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
from .generators import MycielskiLayout, complete_graph, mycielski
from .graphs import Graph, _vertex_set_mask, complement, focal_vertices


def _induced_part(
    host: Graph, verts: Iterable[int], cut: dict[int, int] | None = None
) -> Graph:
    """The host's spanning subgraph on its edges with both ends in ``verts``,
    less ``cut[v]`` from the row of each vertex v (``cut`` must be symmetric)."""
    keep = _vertex_set_mask(host, verts)
    cut = cut or {}
    rows = tuple(
        host.adj[v] & keep & ~cut.get(v, 0) if keep >> v & 1 else 0
        for v in range(host.n)
    )
    return Graph(host.n, rows)


def _apex_cover_part(
    host: Graph, layout: MycielskiLayout, base_vertices: list[int]
) -> Graph:
    """The one part containing the apex: induced on the apex, the second copy
    of the last listed base vertex, and the first copies of all of them."""
    verts = {layout.apex, layout.copy(2, base_vertices[-1])}
    verts |= {layout.copy(1, v) for v in base_vertices}
    return _induced_part(host, verts)


def _pair_cover_part(
    host: Graph,
    layout: MycielskiLayout,
    first_pair: tuple[int, int],
    second_copy_of: list[int],
) -> Graph:
    """A part induced on two first-copy vertices plus a block of second
    copies."""
    verts = {layout.copy(1, first_pair[0]), layout.copy(1, first_pair[1])}
    verts |= {layout.copy(2, v) for v in second_copy_of}
    return _induced_part(host, verts)


def _matching_pair_parts(
    host: Graph,
    layout: MycielskiLayout,
    base_vertices: list[int],
) -> list[Graph]:
    """The pair parts over consecutive base vertices (1st & 2nd, 3rd & 4th,
    ...), plus a wrap-around part over the last two when the count is even."""
    l = len(base_vertices)
    parts = []
    for i in range(1, (l + 1) // 2):
        pair = (base_vertices[2 * i - 2], base_vertices[2 * i - 1])
        parts.append(_pair_cover_part(host, layout, pair, base_vertices))
    if l >= 2 and l % 2 == 0:
        pair = (base_vertices[l - 2], base_vertices[l - 1])
        parts.append(_pair_cover_part(host, layout, pair, base_vertices))
    return parts


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
    verdict = verify_clique_cover(complement(g), cover)
    if not verdict:
        raise ValueError(f"clique cover does not verify: {verdict.reason}")
    focal = sorted(focal_vertices(g))
    everyone = set(range(g.n))
    if set(focal).union(*cover.cliques) != everyone:
        raise SelfCheckError(
            "cover cliques plus focal vertices do not exhaust the vertex set"
        )
    myc, layout = mycielski(g, 2)
    host = complement(myc)

    parts = []
    for clique in cover.cliques:
        inside = set(clique)
        outside = everyone - inside
        verts = {layout.copy(1, v) for v in inside}
        verts |= {layout.copy(2, v) for v in everyone}
        verts.add(layout.apex)
        # Cut the second-copy pairs outside the clique and the pairs joining a
        # first copy inside it to a second copy outside it.
        first_in = _vertex_set_mask(host, (layout.copy(1, x) for x in inside))
        second_out = _vertex_set_mask(host, (layout.copy(2, y) for y in outside))
        cut = {layout.copy(1, x): second_out for x in inside}
        cut |= {layout.copy(2, y): second_out | first_in for y in outside}
        parts.append(_induced_part(host, verts, cut))

    if focal:
        parts.append(_apex_cover_part(host, layout, focal))
        parts += _matching_pair_parts(host, layout, focal)

    built = CointervalCover(host, tuple(parts))
    verdict = verify_cointerval_cover(myc, built)
    if not verdict:
        raise SelfCheckError(
            f"clique-cover-based Mycielski cover failed to verify: {verdict.reason}"
        )
    return built
