"""Exact auxiliary solvers and the boxicity bound calculators.

The two exact solvers are iterative-deepening searches meant for desk-scale
graphs: the minimum edge clique cover is the engine's minimum set cover over
the maximal cliques, and the chromatic number tries k = 1, 2, ... colours.
Each of the paper's three bounds is an integer formula in one function:
Cor 3.6 in ``cor36_lower``, Thm 4.2 in ``thm42_upper`` and Thm 1.1 (boxicity
against chromatic number) in ``thm11_upper``. Their invariants are computed
from the graph itself (focal-vertex counts are always recomputed, never
taken from a family descriptor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, SelfCheckError
from .generators import mycielski
from .graphs import (
    Graph,
    _vertex_set_mask,
    complement,
    focal_vertices,
    graph6_encode,
    is_clique,
)
from .engine import (
    DEFAULT_COMPLEMENT_EDGE_CAP,
    Verdict,
    _exact_boxicity,
    _minimum_cover,
    exact_boxicity,
    matching_lower_bound,
)
from .intervals import maximal_cliques

#: Edge cap for the exact edge-clique-cover solver.
DEFAULT_CLIQUE_COVER_EDGE_CAP = 40

#: Vertex cap for the exact chromatic number solver.
DEFAULT_CHROMATIC_MAX_N = 16


@dataclass(frozen=True, slots=True)
class CliqueCover:
    """A family of cliques of ``host`` covering all of its edges."""

    host: Graph
    cliques: tuple[tuple[int, ...], ...]


def verify_clique_cover(host: Graph, cover: CliqueCover) -> Verdict:
    if cover.host != host:
        return Verdict(False, "cover host differs from the given graph")
    for i, clique in enumerate(cover.cliques):
        if not is_clique(host, clique):
            return Verdict(False, f"set {i} is not a clique")
    covered = [0] * host.n
    for clique in cover.cliques:
        inside = _vertex_set_mask(host, clique)
        for v in clique:
            covered[v] |= inside
    missing = tuple(h & ~c for h, c in zip(host.adj, covered))
    if any(missing):
        u, v = Graph(host.n, missing).edges()[0]
        return Verdict(False, f"edge {u}-{v} is covered by no clique")
    return Verdict(True)


def edge_clique_cover(g: Graph) -> tuple[int, CliqueCover]:
    """Minimum number of cliques covering all edges, with a witness cover.

    Any clique extends to a maximal one covering at least the same edges, so
    the exact search is a minimum set cover over the maximal cliques. An
    edgeless graph's maximal cliques are its vertices, which cover no edge,
    so its cover is empty and its cover number 0.
    """
    edges = g.edges()
    if len(edges) > DEFAULT_CLIQUE_COVER_EDGE_CAP:
        raise CapacityError(
            f"graph has {len(edges)} edges, over the edge-clique-cover cap "
            f"{DEFAULT_CLIQUE_COVER_EDGE_CAP}"
        )
    cliques = maximal_cliques(g)
    # Each clique's set holds the indices of the edges with both ends in it.
    sets = [
        sum(1 << i for i, (u, v) in enumerate(edges) if m >> u & m >> v & 1)
        for m in (_vertex_set_mask(g, clique) for clique in cliques)
    ]
    chosen, _ = _minimum_cover((1 << len(edges)) - 1, sets)
    cover = CliqueCover(g, tuple(sorted(cliques[i] for i in chosen)))
    return len(chosen), cover


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative-deepening k-coloring from k = 1.

    Vertices are branched in descending degree order; a new color may only be
    opened by the first vertex to use it, which kills color-permutation
    symmetry.
    """
    if g.n > DEFAULT_CHROMATIC_MAX_N:
        raise CapacityError(
            f"graph has {g.n} vertices, over the chromatic-number cap "
            f"{DEFAULT_CHROMATIC_MAX_N}"
        )
    order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))

    def colorable(k: int) -> bool:
        classes = [0] * k  # classes[c]: vertex mask of colour c

        def assign(i: int, used: int) -> bool:
            if i == g.n:
                return True
            v = order[i]
            row = g.adj[v]
            for c in range(min(used + 1, k)):
                if classes[c] & row:
                    continue
                classes[c] |= 1 << v
                if assign(i + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << v
            return False

        found = assign(0, 0)
        assign = None  # assign holds itself through its cell: free it now
        return found

    k = 1
    while not colorable(k):
        k += 1
    return k


def mycielski_kn_boxicity(n: int) -> int:
    """Boxicity of the Mycielski graph of the complete graph on n vertices:
    the Thm 4.2 bound with no complement edges and n focal vertices, which
    is exact here. Half of n rounded up, plus one more when n is even."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return thm42_upper(0, n)


def _focal_count(g: Graph) -> int:
    """Focal vertices of g, with the complement-side reading asserted equal:
    v is isolated in the complement when its closed row is full."""
    focal = focal_vertices(g)
    full = (1 << g.n) - 1
    comp_isolated = {v for v in range(g.n) if g.adj[v] | 1 << v == full}
    if focal != comp_isolated:
        raise SelfCheckError("focal vertices differ from complement-isolated ones")
    return len(focal)


def cor36_lower(box: int, focal: int) -> int:
    """Cor 3.6: the boxicity of the Mycielski graph of g is at least the
    boxicity of g plus half its focal-vertex count rounded up."""
    return box + (focal + 1) // 2


def thm42_upper(theta: int, focal: int) -> int:
    """Thm 4.2: the boxicity of the Mycielski graph of g is at most the edge
    clique cover number of the complement of g, plus half the focal-vertex
    count rounded up, plus one more only when that count is even and positive.
    Shared by the calculator and the survey checks so the condition cannot
    drift."""
    return theta + (focal + 1) // 2 + (1 if focal and focal % 2 == 0 else 0)


def thm11_upper(n: int, chi: int) -> int:
    """Thm 1.1: a graph on n vertices with chromatic number chi has boxicity
    at most n/2 - n/(2 chi) + 1, rounded down. Written as box = n/2 - s with
    chi >= n/(2s+2), it rearranges to this; integer arithmetic throughout."""
    return (n * chi - n + 2 * chi) // (2 * chi)


def mycielski_lower_bound(
    g: Graph,
    r: int = 2,
    max_complement_edges: int = DEFAULT_COMPLEMENT_EDGE_CAP,
) -> int:
    """Lower bound for the boxicity of the generalized Mycielski graph of g
    (``cor36_lower``); valid for every r >= 2."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return cor36_lower(exact_boxicity(g, max_complement_edges).value, _focal_count(g))


def mycielski_upper_bound(g: Graph) -> int:
    """Upper bound for the boxicity of the Mycielski graph of g
    (``thm42_upper``)."""
    theta, _ = edge_clique_cover(complement(g))
    return thm42_upper(theta, _focal_count(g))


@dataclass(frozen=True, slots=True)
class MultipartiteMycielskiBounds:
    lower: int
    upper: int
    exact: int | None


def multipartite_mycielski_bounds(parts: Iterable[int]) -> MultipartiteMycielskiBounds:
    """Cor 3.6 and Thm 4.2 for the Mycielski graph of a complete multipartite
    graph. Its boxicity and the clique cover number of its complement are
    both the number of parts with at least 2 vertices (Roberts 1969), and its
    focal vertices are the singleton parts. The bounds meet when the
    singleton count is odd or zero, and the upper one is exact when every
    part is a singleton (the complete graph, ``mycielski_kn_boxicity``)."""
    sizes = list(parts)
    if not sizes:
        raise ValueError("need at least one part")
    for p in sizes:
        if p < 1:
            raise ValueError(f"part sizes must be positive, got {p}")
    l = sizes.count(1)
    box = len(sizes) - l
    lower = cor36_lower(box, l)
    upper = thm42_upper(box, l)
    exact = upper if lower == upper or box == 0 else None
    return MultipartiteMycielskiBounds(lower, upper, exact)


@dataclass(frozen=True, slots=True)
class BoundsReport:
    """Bounds on the boxicity of the Mycielski graph of the reported graph.

    ``lower`` and ``upper`` hold (value, source-tag) pairs; ``exact`` is only
    filled when an exact engine run was requested and feasible.
    """

    graph6: str
    lower: tuple[tuple[int, str], ...]
    upper: tuple[tuple[int, str], ...]
    exact: int | None

    def __post_init__(self) -> None:
        if self.lower and self.upper:
            lo = max(v for v, _ in self.lower)
            hi = min(v for v, _ in self.upper)
            if lo > hi:
                raise SelfCheckError(
                    f"bounds crossed for {self.graph6}: max lower {lo} > min upper {hi}"
                )
            if self.exact is not None and not lo <= self.exact <= hi:
                raise SelfCheckError(
                    f"exact value {self.exact} outside [{lo}, {hi}] for {self.graph6}"
                )


def compute_bounds_report(
    g: Graph,
    r: int = 2,
    include_exact: bool = False,
    max_complement_edges: int = DEFAULT_COMPLEMENT_EDGE_CAP,
) -> BoundsReport:
    """All applicable bounds on the boxicity of the r-copy Mycielski graph
    of g, cross-validated (crossed bounds raise, signalling a bug). Box, the
    focal count and the complement's clique cover number are computed once,
    and g's complement is built once: the clique cover reads the host that
    the engine built for g, and builds it only when the engine refused g.

    Cor 3.6 needs the exact boxicity of g, so it is left out when the engine
    refuses g, as Thm 4.2 is left out when the edge-clique-cover solver
    refuses the complement of g, and Thm 1.1 when the colouring solver
    refuses the graph it needs a chromatic number of."""
    myc, _ = mycielski(g, r)
    focal = _focal_count(g)
    lower = []
    host = None
    try:
        result, host = _exact_boxicity(g, max_complement_edges)
    except CapacityError:
        pass
    else:
        lower.append((cor36_lower(result.value, focal), "cor3.6"))
    lower.append((matching_lower_bound(myc), "lemma3.3"))
    upper = []
    if r == 2:
        try:
            theta, _ = edge_clique_cover(complement(g) if host is None else host)
        except CapacityError:
            pass
        else:
            upper.append((thm42_upper(theta, focal), "thm4.2"))
    upper.append((myc.n // 2, "roberts-floor-n/2"))
    try:
        chi_myc = chromatic_number(g) + 1 if r == 2 else chromatic_number(myc)
    except CapacityError:
        pass
    else:
        upper.append((thm11_upper(myc.n, chi_myc), "thm1.1"))
    exact = None
    if include_exact:
        exact = exact_boxicity(myc, max_complement_edges).value
    return BoundsReport(graph6_encode(g), tuple(lower), tuple(upper), exact)
