"""Explicit cointerval edge coverings for Mycielski graphs.

These constructions rebuild, as verifiable certificates, the covers that
establish the known boxicity values for Mycielski graphs of complete graphs
and the clique-cover-based upper bound for Mycielski graphs in general. Every
returned cover is verified before it leaves this module; a verification
failure here means a library bug, not a bad input, and raises hard.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SelfCheckError
from .bounds import CliqueCover, verify_clique_cover
from .engine import CointervalCover, verify_cointerval_cover
from .generators import complete_graph, mycielski
from .graphs import (
    Graph, _bit_list, _is_complement, _vertex_set_mask, complement, focal_vertices
)


def _part(host: Graph, blocks: Iterable[tuple[int, int]]) -> Graph:
    """The host's spanning subgraph in which each vertex of a block's vertex
    mask keeps the host neighbours in that block's row mask, and every other
    vertex is isolated. The masks must keep the rows symmetric."""
    rows = [0] * host.n
    for verts, keep in blocks:
        for v in _bit_list(verts):
            rows[v] = host.adj[v] & keep
    return Graph(host.n, tuple(rows))


def complete_mycielski_cover(n: int) -> CointervalCover:
    """Cointerval edge covering of the complement of the Mycielski graph of
    the complete graph on n vertices.

    This is the Thm 4.2 cover with an empty clique cover: the complement of
    the complete graph is edgeless and all n vertices are focal. It has half
    of n rounded up many parts when n is odd and one more when n is even,
    matching the known exact boxicity.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    g = complete_graph(n)
    return mycielski_cover(g, CliqueCover(complement(g), ()))


def mycielski_cover(g: Graph, cover: CliqueCover) -> CointervalCover:
    """Cointerval edge covering of the complement of the Mycielski graph of g,
    built from an edge clique cover of the complement of g.

    One part per cover clique (the clique's first copies joined with all
    second copies and the apex, stripped of the cross and outside-pair edges),
    plus the matching-style parts over the focal vertices, in ascending id
    order. The part count is at most the cover size plus half the focal count
    rounded up, plus one more only when the focal count is even and positive.
    """
    return _mycielski_cover(g, cover, mycielski(g, 2)[0])


def _mycielski_cover(g: Graph, cover: CliqueCover, myc: Graph) -> CointervalCover:
    """``mycielski_cover`` with the Mycielski graph ``myc`` of g (two copies)
    already built by the caller.

    Parts are built from vertex masks: copy 1 of a base vertex set is its
    mask, copy 2 that mask shifted by n, and the apex is bit 2n.
    """
    if not _is_complement(cover.host, g):
        raise ValueError(
            "clique cover does not verify: cover host differs from the given graph"
        )
    verdict = verify_clique_cover(cover.host, cover)
    if not verdict:
        raise ValueError(f"clique cover does not verify: {verdict.reason}")
    n = g.n
    everyone = (1 << n) - 1
    focal = _vertex_set_mask(g, focal_vertices(g))
    cliques = [_vertex_set_mask(g, clique) for clique in cover.cliques]
    spanned = focal
    for clique in cliques:
        spanned |= clique
    if spanned != everyone:
        raise SelfCheckError(
            "cover cliques plus focal vertices do not exhaust the vertex set"
        )
    host = complement(myc)
    second = everyone << n
    apex = 1 << 2 * n

    parts = []
    for clique in cliques:
        # The clique's first copies, all second copies and the apex, less the
        # second-copy pairs outside the clique and the pairs joining a first
        # copy inside it to a second copy outside it.
        second_in = clique << n
        keep = clique | second | apex
        blocks = [
            (clique, clique | second_in | apex),
            (second_in | apex, keep),
            (second & ~second_in, second_in | apex),
        ]
        parts.append(_part(host, blocks))

    if focal:
        # The apex part: the apex, the second copy of the last focal vertex
        # and the first copies of all of them. Then one part per consecutive
        # pair of focal vertices (1st & 2nd, 3rd & 4th, ...) on their first
        # copies plus the second copies of all focal vertices.
        order = _bit_list(focal)
        keep = apex | 1 << (n + order[-1]) | focal
        parts.append(_part(host, [(keep, keep)]))
        for a, b in zip(order[::2], order[1::2]):
            keep = 1 << a | 1 << b | focal << n
            parts.append(_part(host, [(keep, keep)]))

    built = CointervalCover(host, tuple(parts))
    verdict = verify_cointerval_cover(myc, built)
    if not verdict:
        raise SelfCheckError(
            f"clique-cover-based Mycielski cover failed to verify: {verdict.reason}"
        )
    return built
