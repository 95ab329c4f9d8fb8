"""Interval and cointerval graph recognition with explicit representations.

The decision comes first and is polynomial: a graph is interval iff it has no
induced 4-cycle and its complement is transitively orientable (Gilmore &
Hoffman 1964). ``_decide`` alone decides it: the 4-cycle test on neighbour
bitmasks first, then one ``_interval_order`` of the complement, returned.
``_transitive_orientation`` orients the edges of the rows it is given by
Golumbic's G-decomposition (1977): one implication class at a time, each
found in the graph the earlier classes leave. It returns each vertex's
predecessor mask, or None when a class forces an edge both ways.

Cointervality is decided by one orientation. Let P be a transitive
orientation of a graph H; H is P's comparability graph, so an induced pair
of independent edges of H (the complement of an induced 4-cycle) is exactly
an induced 2+2 of P, two 2-chains with no comparability between them. P is
2+2-free, an interval order (Fishburn 1970), exactly when its predecessor
sets are nested: a 2+2 a<x, c<y puts a in pred(x) alone and c in pred(y)
alone, and two sets that are not nested, with a in pred(x) but not pred(y)
and c in pred(y) but not pred(x), make a<x, c<y a 2+2: by transitivity any
other comparability among the four gives a<y or c<x. So H is cointerval
iff it has a transitive orientation and the distinct predecessor sets of
any one of them, sorted by size, form a chain P_0 < ... < P_k.
``_interval_order`` returns that orientation with its chain, or None;
``is_cointerval`` and the engine's certificate verifier run it on the
graph's own rows, so no complement is built.

The same interval order is the layout, in O(n^2) bit operations with no
clique listed: ``_order_layout`` gives vertex v [index of pred(v), last i
with v not in P_i]. ``interval_representation`` lays out from the order
that ``_decide`` accepted, and the engine lays out each cover part from the
order its certificate check found. A representation that
``verify_interval_representation`` rejects raises ``SelfCheckError``.

``is_interval``'s witness is still searched, not read off the decision's
order: the maximal cliques in a linear order in which the cliques holding
any fixed vertex are consecutive, the first valid order of a lexicographic
permutation search (exponential in the worst case). A search that finds no
order, or a component with more maximal cliques than vertices (an interval
graph is chordal, so it has at most n, Fulkerson & Gross 1965), contradicts
the decision and raises ``SelfCheckError``.

Representations are checked on meet masks: per coordinate, each vertex gets
the mask of the vertices whose interval meets its own, its interval compared
directly with every other; the masks are ANDed over the coordinates and
compared with the rows. The engine's box check uses the same kernel,
``_meet_verdict``.

``chordal_at_free_oracle`` is a deliberately independent second implementation
(perfect elimination ordering, then an asteroidal-triple test that labels the
components left by each vertex's closed neighbourhood once and looks triples
up in those labels) used to cross-check the recognizer in tests; it shares no
code with the decision or the clique route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, NotIntervalError, SelfCheckError
from .graphs import Graph, _bit_list, connected_components

#: An interval order on a graph's vertices (``_interval_order``): each vertex's
#: predecessor mask, and the distinct masks as a chain sorted by size.
IntervalOrder = tuple[list[int], list[int]]

#: Cap on the number of maximal cliques ``maximal_cliques`` lists. Recognition
#: needs none: it decides without cliques, and the witness search stops at one
#: clique more than the component's vertex count.
MAX_CLIQUES = 4096


def _maximal_cliques_masks(
    adj: tuple[int, ...], within: int, limit: int
) -> list[int] | None:
    """Bron-Kerbosch with pivoting, restricted to the vertex mask ``within``;
    None as soon as more than ``limit`` maximal cliques are found."""
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> bool:
        if not p and not x:
            cliques.append(r)
            return len(cliques) <= limit
        px = p | x
        best_v = -1
        best_cover = -1
        scan = px
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            cover = (p & adj[v]).bit_count()
            if cover > best_cover:
                best_cover = cover
                best_v = v
        cand = p & ~adj[best_v]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if not expand(r | low, p & adj[v], x & adj[v]):
                return False
            p ^= low
            x |= low
        return True

    complete = expand(0, within, 0)
    expand = None  # expand holds itself through its cell: free it now
    return cliques if complete else None


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, each sorted internally, listed lexicographically."""
    masks = _maximal_cliques_masks(g.adj, (1 << g.n) - 1, MAX_CLIQUES)
    if masks is None:
        raise CapacityError(
            f"maximal clique count exceeds cap {MAX_CLIQUES} (MAX_CLIQUES)"
        )
    return sorted(tuple(_bit_list(m)) for m in masks)


def _consecutive_order(clique_masks: list[int]) -> list[int] | None:
    """First clique order (by index, lexicographic exploration) in which every
    vertex's cliques are consecutive, or None if no such order exists."""
    k = len(clique_masks)
    order: list[int] = []

    def extend(used: int, seen: int, prev: int) -> bool:
        if len(order) == k:
            return True
        for i in range(k):
            if used >> i & 1:
                continue
            c = clique_masks[i]
            if c & seen & ~prev:
                continue  # would reopen a vertex whose clique run already closed
            order.append(i)
            if extend(used | 1 << i, seen | c, c):
                return True
            order.pop()
        return False

    placed = extend(0, 0, 0)
    extend = None  # extend holds itself through its cell: free it now
    return order if placed else None


def _decide(n: int, adj: tuple[int, ...]) -> tuple[str | None, IntervalOrder | None]:
    """Why the graph on neighbour rows ``adj`` is not interval (Gilmore &
    Hoffman 1964) and None, or None and an interval order on its
    complement, the graph's layout (``_order_layout``).

    First the induced 4-cycle test: two non-adjacent vertices whose common
    neighbours are not a clique. Then one ``_interval_order`` of the
    complement: with no induced 4-cycle its chain test cannot fail, so None
    means no transitive orientation.
    """
    full = (1 << n) - 1
    for u in range(n):
        far = full & ~adj[u] & ~((2 << u) - 1)
        while far:
            low = far & -far
            far ^= low
            common = adj[u] & adj[low.bit_length() - 1]
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                if common & ~adj[low.bit_length() - 1] & ~low:
                    return "induced 4-cycle", None
    order = _interval_order([full & ~adj[v] & ~(1 << v) for v in range(n)])
    if order is None:
        return "complement not transitively orientable", None
    return None, order


def _transitive_orientation(n: int, rows: Sequence[int]) -> list[int] | None:
    """A transitive orientation of the graph on neighbour rows ``rows`` as
    the predecessor mask of each vertex, or None if it has none.

    Golumbic's G-decomposition (1977): the edges are oriented one implication
    class at a time, each class found in the graph ``rem`` left after the
    earlier classes are deleted. Orienting edge ab as a->b forces a->c for
    every neighbour c of a in ``rem`` that is not one of b there, and c->b
    for every neighbour c of b that is not one of a. The graph is
    transitively orientable iff no class forces an edge both ways, and then
    the union of the classes, each as first oriented, is transitive.
    """
    rem = list(rows)
    out = [0] * n  # out[a]: vertices b with a->b oriented
    into = [0] * n  # into[b]: vertices a with a->b oriented
    for a0 in range(n):
        while rem[a0]:
            b0 = (rem[a0] & -rem[a0]).bit_length() - 1
            out[a0] |= 1 << b0
            into[b0] |= 1 << a0
            touched = 1 << a0 | 1 << b0
            stack = [(a0, b0)]
            while stack:
                a, b = stack.pop()
                forced = rem[a] & ~rem[b] & ~(1 << b) & ~out[a]
                if forced:
                    if forced & into[a]:
                        return None
                    out[a] |= forced
                    touched |= forced
                    while forced:
                        low = forced & -forced
                        forced ^= low
                        c = low.bit_length() - 1
                        into[c] |= 1 << a
                        stack.append((a, c))
                forced = rem[b] & ~rem[a] & ~(1 << a) & ~into[b]
                if forced:
                    if forced & out[b]:
                        return None
                    into[b] |= forced
                    touched |= forced
                    while forced:
                        low = forced & -forced
                        forced ^= low
                        c = low.bit_length() - 1
                        out[c] |= 1 << b
                        stack.append((c, b))
            # The class is closed. Earlier classes are gone from ``rem``, so
            # the oriented edges left there are this class's: delete them.
            while touched:
                low = touched & -touched
                touched ^= low
                v = low.bit_length() - 1
                rem[v] &= ~(out[v] | into[v])
    return into


def _interval_order(rows: Sequence[int]) -> IntervalOrder | None:
    """An interval order on the graph with neighbour rows ``rows``, or None if
    the graph is not cointerval: a transitive orientation as the predecessor
    mask of each vertex, and the distinct predecessor masks sorted by size,
    which form a chain (Fishburn 1970)."""
    into = _transitive_orientation(len(rows), rows)
    if into is None:
        return None
    chain = sorted(set(into), key=int.bit_count)
    for p, q in zip(chain, chain[1:]):
        if p & ~q:
            return None
    return into, chain


def _is_interval_masks(n: int, adj: tuple[int, ...]) -> bool:
    """The decision alone, without a witness."""
    return _decide(n, adj)[0] is None


def _component_clique_orders(g: Graph) -> list[list[int]]:
    """Witness for an interval graph: ordered maximal-clique masks per
    component (components by smallest vertex). Raises SelfCheckError when the
    clique search contradicts the decision that the graph is interval."""
    result = []
    for comp in connected_components(g):
        # An interval graph is chordal, so it has at most n maximal cliques.
        cliques = _maximal_cliques_masks(g.adj, comp, comp.bit_count())
        if cliques is None:
            raise SelfCheckError(
                "interval graph has a component with more maximal cliques than vertices"
            )
        cliques.sort(key=_bit_list)
        order = _consecutive_order(cliques)
        if order is None:
            raise SelfCheckError("interval graph has no consecutive clique ordering")
        result.append([cliques[i] for i in order])
    return result


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a certificate check: ``reason`` says why it failed."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _meet_verdict(g: Graph, columns: Iterable[Sequence[tuple[int, int]]], what: str) -> Verdict:
    """Accept iff two vertices are adjacent exactly when their intervals meet
    in every column; ``columns`` holds one non-empty interval per vertex for
    each coordinate. Per column, each vertex gets the mask of the vertices
    whose interval meets its own; the masks are ANDed over the columns and
    compared with the rows. The first disagreeing pair, lowest u then lowest
    v, names the failure, with ``what`` naming the vertices' objects."""
    meet = [(1 << g.n) - 1] * g.n
    for col in columns:
        # [lo, hi] meets [c, d] iff c <= hi and lo <= d.
        meet = [
            m & sum(1 << u for u, (c, d) in enumerate(col) if c <= hi and lo <= d)
            for m, (lo, hi) in zip(meet, col)
        ]
    for u, (row, m) in enumerate(zip(g.adj, meet)):
        diff = (row ^ m) >> (u + 1)
        if diff:
            v = (diff & -diff).bit_length() + u
            want = "adjacent" if row >> v & 1 else "non-adjacent"
            return Verdict(False, f"{what} of {u} and {v} disagree with {want} pair")
    return Verdict(True)


@dataclass(frozen=True, slots=True)
class RecognitionResult:
    """Outcome of interval recognition.

    On success ``clique_order`` is a witness: a linear order of all maximal
    cliques satisfying the consecutiveness condition. On failure ``reason``
    names the test that rejected: ``induced 4-cycle`` or ``complement not
    transitively orientable``.
    """

    interval: bool
    clique_order: tuple[tuple[int, ...], ...] | None = None
    reason: str | None = None

    @property
    def verdict(self) -> str:
        return "interval" if self.interval else "not-interval"


def is_interval(g: Graph) -> RecognitionResult:
    """Decide intervality; deterministic, certificate-producing.

    ``_decide`` answers first; only an accepted graph runs the clique-order
    search, not yet replaced by the decision's order. The witness is built
    per connected component (components in order of smallest vertex, each
    component's clique permutations explored in lexicographic order, first
    valid one kept).
    """
    reason, _ = _decide(g.n, g.adj)
    if reason is not None:
        return RecognitionResult(False, reason=reason)
    ordered = _component_clique_orders(g)
    witness = tuple(
        tuple(_bit_list(m)) for comp_order in ordered for m in comp_order
    )
    return RecognitionResult(True, clique_order=witness)


@dataclass(frozen=True, slots=True)
class IntervalRep:
    """Closed integer intervals, one per vertex; their intersection graph is
    the represented graph."""

    intervals: tuple[tuple[int, int], ...]

    def to_text(self) -> str:
        return "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in enumerate(self.intervals))


def interval_representation(g: Graph) -> IntervalRep:
    """Interval representation, decided by ``_decide`` and laid out from the
    interval order on the complement that accepted it (``_order_layout``),
    and verified before it returns. No clique is listed or ordered.
    """
    _, order = _decide(g.n, g.adj)
    if order is None:
        raise NotIntervalError("graph is not interval, no representation exists")
    rep = _order_layout(order)
    verdict = verify_interval_representation(g, rep)
    if not verdict:
        raise SelfCheckError(f"interval representation failed verification: {verdict.reason}")
    return rep


def verify_interval_representation(g: Graph, rep: IntervalRep) -> Verdict:
    """Accept iff ``rep`` gives every vertex a non-empty interval and two
    intervals meet exactly when their vertices are adjacent: a box
    representation with one coordinate, checked on meet masks, each interval
    compared directly with every other (``_meet_verdict``)."""
    if len(rep.intervals) != g.n:
        return Verdict(False, f"{len(rep.intervals)} intervals for {g.n} vertices")
    for v, (lo, hi) in enumerate(rep.intervals):
        if lo > hi:
            return Verdict(False, f"vertex {v} has an empty interval")
    return _meet_verdict(g, [rep.intervals], "intervals")


def _order_layout(order: IntervalOrder) -> IntervalRep:
    """Interval representation of the complement of a graph, read off an
    interval order on the graph (``_interval_order``): vertex v gets [index
    of pred(v) in the chain P_0 < ... < P_k, last i with v not in P_i], so
    two vertices get disjoint intervals exactly when one precedes the other.
    """
    into, chain = order
    rank = {p: i for i, p in enumerate(chain)}
    hi = [len(chain) - 1] * len(into)
    for i, (p, q) in enumerate(zip(chain, chain[1:])):
        for v in _bit_list(q & ~p):
            hi[v] = i
    return IntervalRep(tuple((rank[p], h) for p, h in zip(into, hi)))


def is_cointerval(g: Graph) -> bool:
    """True iff the complement is an interval graph; no witness is built."""
    return _interval_order(g.adj) is not None


def chordal_at_free_oracle(g: Graph) -> bool:
    """Independent recognizer: chordal (via maximum-cardinality search) and
    free of asteroidal triples (every vertex triple, checked against per-vertex
    component labels)."""
    return _is_chordal(g) and not _has_asteroidal_triple(g)


def _is_chordal(g: Graph) -> bool:
    n = g.n
    weight = [0] * n
    numbered = 0
    peo_pos = [0] * n  # elimination position; higher = eliminated later
    for step in range(n, 0, -1):
        v = max(
            (u for u in range(n) if not numbered >> u & 1),
            key=lambda u: (weight[u], -u),
        )
        numbered |= 1 << v
        peo_pos[v] = step
        row = g.adj[v] & ~numbered
        for u in _bit_list(row):
            weight[u] += 1
    # Verify the elimination property: the later-eliminated neighbors of each
    # vertex must form a clique, which reduces to checking them all against
    # the one eliminated soonest.
    for v in range(n):
        later = [u for u in _bit_list(g.adj[v]) if peo_pos[u] > peo_pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: peo_pos[w])
        for w in later:
            if w != u and not g.adj[u] >> w & 1:
                return False
    return True


def _has_asteroidal_triple(g: Graph) -> bool:
    """Three pairwise non-adjacent vertices, each pair joined by a path that
    avoids the third's closed neighbourhood. One sweep per vertex c labels the
    components of g minus N[c]; each triple is then three bit lookups."""
    n = g.n
    # comp[c][v]: the component of g - N[c] that holds v (0 when v is in N[c])
    comp = []
    for c in range(n):
        label = [0] * n
        rest = (1 << n) - 1 & ~(g.adj[c] | 1 << c)
        while rest:
            seen = frontier = rest & -rest
            while frontier:
                nxt = 0
                for v in _bit_list(frontier):
                    nxt |= g.adj[v]
                frontier = nxt & rest & ~seen
                seen |= frontier
            rest &= ~seen
            for v in _bit_list(seen):
                label[v] = seen
        comp.append(label)
    for a in range(n):
        for b in range(a + 1, n):
            if not comp[a][b]:  # b is in N[a]
                continue
            for c in range(b + 1, n):
                if (
                    comp[c][a] >> b & 1
                    and comp[b][a] >> c & 1
                    and comp[a][b] >> c & 1
                ):
                    return True
    return False
