"""Exact boxicity via minimum cointerval edge coverings of the complement.

The boxicity of g equals the minimum number of cointerval spanning subgraphs
of the complement of g, the host, whose edge sets jointly cover every host
edge; the minimizing family is a checkable certificate, and reading each
part's complement as an interval representation turns the certificate into
boxes whose intersection graph is g.

Search architecture
-------------------
The stage ``_maximal_cointerval_family_masks`` builds the family of
inclusion-maximal cointerval subsets of the host's edges in three steps. It
first decides whether g is interval: if so, the host is cointerval, its own
one member and the one-part cover (no part when g is complete), so neither
family method runs, the cap does not apply, and the cover search takes two
nodes (none for a complete g). Any other g is checked against the cap on its
own rows, before the complement is built, so asking the engine costs a
caller no more than predicting its refusal. Then one of two exact methods
builds the family, chosen by the host's density. The prefix DP's time is set
by its 2^s prefixes, the subset scan's by the branches its prunes leave,
which grow with density; the routing constant is the break-even measured on
the benchmark's ``box-hard`` hosts, and under a raised cap it does not move
through s = 13 (``break_even`` and ``raised_cap`` in ``BENCH_29.json``). The
cheaper DP step has since moved the ``box-hard`` break-even lower
(``break_even`` in ``BENCH_32.json``); the constant is kept, because moving
it changes the node counts.
Both methods return masks over the host's sorted edge list, which the stage
sorts, so the family, the cover and the certificate are the same whichever
runs; only the node count differs.

The subset scan ``_maximal_cointerval_masks`` walks an include-first binary
decision tree over the host's edges. Cointervality is not monotone under
adding or removing edges, so partial subsets cannot be pruned on
cointervality itself; the scan prunes on three exact grounds instead. The
first two make every leaf cointerval without a test: a graph is cointerval
iff it has no induced pair of independent edges (the complement of an
induced 4-cycle) and is transitively orientable (Gilmore & Hoffman 1964).

* a pair of chosen vertex-disjoint edges whose four cross pairs are all
  absent (no host edge, or decided out) can never be repaired, and every
  completion then contains an induced pair of independent edges. The scan
  reads this off two per-vertex rows, the chosen neighbours and the absent
  pairs, at the decision that makes the last cross pair absent: choosing ab
  is pruned when a chosen edge has both ends among the vertices absent to a
  and to b, and deciding ab out is pruned when chosen edges av and bw with
  v != w have aw, vb and vw absent;
* an implication class that holds an edge both ways. Two chosen edges va
  and vb whose pair ab is absent must both leave v or both enter v in any
  transitive orientation (Golumbic's Gamma). The scan finds each such
  relation on the same two rows when its last edge is chosen or its pair
  decided out, and adds it to a parity union-find over the edges'
  orientations that is undone on backtrack; relations only accumulate along
  a branch, so a parity conflict holds in every completion and prunes it.
  At a leaf the relations are the part's whole Gamma, and a graph is
  transitively orientable iff no class conflicts (Golumbic 1977, Thm 5.1);
* a branch whose remaining potential edge set is contained in an
  already-found maximal subset cannot contribute a new maximal subset. Only
  an exclude child is tested: an include child's remaining potential edge
  set is its parent's, just found uncovered. Each node carries the found
  subsets that contain its chosen edges, and the exclude child at position
  j is subsumed when one of them holds every position from j on that is not
  blocked. Host edge xy is blocked when a chosen edge has both ends absent
  to x and to y: absent pairs and chosen edges only accumulate along a
  branch, so the first ground refuses xy at every node below, and every
  leaf below is a proper subset of that found subset. A subsumed child
  counts as a node and is not entered.

Edges are decided vertex by vertex. The scan places the host's vertices one
at a time and decides each vertex's edges to the vertices placed before it
together. When a vertex's edges are decided, every pair inside the placed
prefix is decided, so every induced pair of independent edges and every
class conflict inside the prefix has been pruned, and each live branch
chooses a cointerval graph on the prefix. Next comes the unplaced vertex
with the fewest host edges to unplaced vertices: those edges are the pairs
left undecided between the prefix and the rest, across which a conflict can
still wait for a decision. Ties go to lower host degree, which at an equal
count is the vertex with the fewest edges back into the prefix, so the new
prefix closes after the fewest decisions; then to lower index. This order
makes the fewest nodes of those measured in ``BENCH_17.json``.

Include-first order guarantees every superset of a subset is visited first,
so with the third ground every leaf is inclusion-maximal. The result is
exactly the brute-force family (asserted against a plain subset scan in the
tests), just reached faster.

The prefix DP ``_prefix_dp_masks`` builds the same family from g's vertex
orders. A set S of host edges is cointerval exactly when g plus the host
edges outside S is interval, so the maximal S are the host edges that the
minimal interval completions of g leave out (Heggernes, Suchan, Todinca &
Villanger 2007). Each vertex order gives an interval completion: place the
vertices in order, and when v is placed after the prefix P, join v to every
u in P that still has a g-neighbour outside P. g plus that fill is the
intersection graph of the intervals from each vertex's place to its last
g-neighbour's. Every interval supergraph of g holds the completion of its
own left-endpoint order, because an interval that starts before v and meets
one that starts after v holds v's left endpoint; so the minimal fills over
all orders are exactly the minimal completions. The fill of a step depends
only on (P, v), and a smaller fill at P stays smaller after any
continuation, so the DP keeps, for each prefix P, the inclusion-minimal
fills of the orders of P, one layer of prefixes per size (the
vertex-ordering DP of Bodlaender, Fomin, Koster, Kratsch & Thilikos 2012);
at P = V it holds exactly the minimal fills, and each member is the host's
edges less one of them. Universal vertices of g take no fill and add none,
so the DP works on the host's non-isolated vertices alone.

Minimum set cover over the family (``_minimum_cover``) is iterative
deepening on the cover size. Family order, branch order and tie-breaks are
lexicographic on edge lists, and every node on the path to a minimum cover
passes the cut in the round k = OPT, so the first cover that round finds,
the certificate, is the first minimum cover in that order. An edgeless host
has the single empty maximal subset and the empty cover.

Cover parts are bitmask graphs: each is a ``Graph`` on the host's vertices,
the spanning subgraph it denotes. The verifier decides cointervality with
``intervals._interval_order`` on the part's own rows, since a certificate
may come from outside the engine: one transitive orientation whose
predecessor sets form a chain. ``exact_boxicity`` verifies its cover before
it returns and keeps it only as masks: a result holds the value, the
caller's g, the parts as masks over ``host.edges()`` and the two search
counts. Boxes are laid out from the interval order that verified each part
(``intervals._order_layout``), so no part's complement is built and each
part is oriented once per call. Parts become edge text only in
``format_cover``.

Certificate text format (bit-exact): line 1 ``host <graph6>``, line 2
``parts <k>``, then k lines each holding a space-separated sorted list of
edges ``u-v`` with u < v, parts sorted lexicographically.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import zip_longest
from typing import Iterable

from .errors import CapacityError, SelfCheckError
from .graphs import (
    Graph,
    _bit_list,
    _is_complement,
    complement,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    subgraph_distance,
)
from .intervals import (
    IntervalOrder,
    Verdict,
    _interval_order,
    _is_interval_masks,
    _maximal_cliques_masks,
    _meet_verdict,
    _order_layout,
)

#: Default cap on complement edge count for the exact engine
#: (CLI flag ``--max-complement-edges``).
DEFAULT_COMPLEMENT_EDGE_CAP = 24

#: Most non-isolated host vertices the prefix DP takes: it keeps up to 2^s
#: prefixes, so a larger host goes to the subset scan whatever its density.
DP_MAX_VERTICES = 16

#: Largest vertex count for which the matching lower bound search is exact;
#: above it a greedy extension is used (still a valid lower bound).
MATCHING_EXACT_MAX_N = 14


@dataclass(frozen=True, slots=True)
class CointervalCover:
    """A family of cointerval spanning subgraphs of ``host`` covering its
    edges; host is the complement of the graph whose boxicity is certified.

    Each part is a graph on the host's vertices: the spanning subgraph it
    denotes. Parts are normalized to lexicographic order of their edge lists.
    """

    host: Graph
    parts: tuple[Graph, ...]

    def __post_init__(self) -> None:
        parts = tuple(sorted(self.parts, key=_EDGE_LIST_ORDER))
        object.__setattr__(self, "parts", parts)


def _compare_edge_lists(p: Graph, q: Graph) -> int:
    """-1, 0 or 1 as p's sorted edge list comes before, equals or comes after
    q's in lexicographic order, read off the rows without listing edges.

    At the first pair uv that one part holds and the other does not, the part
    holding uv comes first, unless the other has no edge after uv: then the
    other's edge list is a prefix of the first's."""
    for u, (a, b) in enumerate(zip_longest(p.adj, q.adj, fillvalue=0)):
        diff = (a ^ b) >> (u + 1)
        if diff:
            v = (diff & -diff).bit_length() + u
            rest, other = (b, q) if a >> v & 1 else (a, p)
            # Later edges of the other part: uw with w > v, or any with both
            # ends past u.
            later = rest >> (v + 1) or any(row >> (u + 1) for row in other.adj[u + 1:])
            return -1 if (other is q) == bool(later) else 1
    return 0


_EDGE_LIST_ORDER = cmp_to_key(_compare_edge_lists)


@dataclass(frozen=True, slots=True)
class BoxRep:
    """Per-vertex boxes: ``dimension`` closed integer intervals per vertex."""

    dimension: int
    boxes: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, slots=True)
class BoxicityResult:
    """The boxicity, its verified certificate and the search counts.

    ``g`` is the caller's own graph, kept as given. ``part_masks`` are the
    certificate's parts, chosen family members as masks over
    ``host.edges()``, in certificate order. The result holds no other graph:
    each ``host`` access builds the complement of g, each ``certificate``
    access builds the host and the cover from the masks, and each
    ``box_rep`` access builds and verifies the boxes again, so bind any of
    them once."""

    value: int
    g: Graph
    part_masks: tuple[int, ...]
    nodes_explored: int
    family_size: int

    @property
    def host(self) -> Graph:
        return complement(self.g)

    @property
    def certificate(self) -> CointervalCover:
        host = self.host
        return CointervalCover(host, _mask_parts(host, self.part_masks))

    @property
    def box_rep(self) -> BoxRep:
        return cover_to_box_representation(self.g, self.certificate)


def _maximal_cointerval_masks(host: Graph) -> tuple[list[int], int]:
    """All inclusion-maximal cointerval subsets of the host's edges.

    Returns bitmasks indexed by position in ``host.edges()`` plus the node
    count of the scan. See the module docstring for the decision order and
    the pruning argument.
    """
    n, row, edges = host.n, host.adj, host.edges()
    m = len(edges)
    full = (1 << m) - 1
    # Edges are decided vertex by vertex (see the module docstring); rank[v]
    # is v's place in the vertex order.
    rank = [0] * n
    left = (1 << n) - 1
    for r in range(n):
        v = min(
            (u for u in range(n) if left >> u & 1),
            key=lambda u: ((row[u] & left).bit_count(), row[u].bit_count()),
        )
        rank[v] = r
        left ^= 1 << v
    # Positions by the later endpoint's place, then by the earlier one's.
    places = [sorted((rank[a], rank[b]), reverse=True) for a, b in edges]
    perm = sorted(range(m), key=places.__getitem__)
    internal = [edges[i] for i in perm]
    # pos[u][v]: the scan position of host edge uv.
    pos = [[0] * n for _ in range(n)]
    for p, (a, b) in enumerate(internal):
        pos[a][b] = pos[b][a] = p
    # absent[v]: vertices u != v whose pair uv is not a host edge or is
    # decided out on the current branch, so no completion holds it.
    absent = [((1 << n) - 1) ^ row[v] ^ 1 << v for v in range(n)]

    found: list[int] = []  # maximal masks; a mask's id is its index here
    holds = [0] * m  # holds[p]: ids of the found masks that hold position p
    crow = [0] * n  # crow[v]: chosen neighbours of v on the current branch
    # Implication classes as a parity union-find over the orientation bits of
    # the host edges: bit 0 orients uv with u < v from u to v. No path
    # compression, so ``undo`` can detach the roots ``log`` records. ``relate``
    # hangs its first edge's root under its second's, and ``joins`` passes the
    # newly chosen edge first, so that edge joins a class one step below its
    # root instead of becoming the class's new root.
    parent = list(range(m))
    flip = [0] * m  # orientation of p relative to parent[p]
    log: list[int] = []  # attached roots, in attach order
    nodes = 0

    def relate(p: int, q: int, d: int) -> bool:
        """Record that p and q have relative orientation d; False when their
        class already holds the opposite, so it holds an edge both ways."""
        while parent[p] != p:
            d ^= flip[p]
            p = parent[p]
        while parent[q] != q:
            d ^= flip[q]
            q = parent[q]
        if p == q:
            return not d
        parent[p] = q
        flip[p] = d
        log.append(p)
        return True

    def undo(mark: int) -> None:
        while len(log) > mark:
            q = log.pop()
            parent[q] = q

    def joins(v: int, p: int, w: int, others: int) -> bool:
        """Relate edge p = vw to each chosen edge vc, c in ``others``: with
        wc absent, both must leave v or both enter it (Golumbic's Gamma)."""
        pv, side = pos[v], v > w
        while others:
            low = others & -others
            others ^= low
            c = low.bit_length() - 1
            if not relate(p, pv[c], side ^ (v > c)):
                return False
        return True

    def subsumed(j: int, cand: int) -> bool:
        """Whether a found mask in ``cand`` holds every position from j on
        that no chosen edge blocks: host edge xy is blocked when a chosen edge
        has both ends absent to x and to y, so no leaf below holds it. Only a
        position that some candidate misses is tested, and an unblocked one
        keeps the candidates that hold it."""
        later = full >> j << j
        while later:
            p = later & -later
            later ^= p
            i = p.bit_length() - 1
            if cand & ~holds[i]:
                x, y = internal[i]
                far = absent[x] & absent[y]
                rest = far
                while rest:
                    u = rest & -rest
                    rest ^= u
                    if crow[u.bit_length() - 1] & far:
                        break
                else:
                    cand &= holds[i]
                    if not cand:
                        return False
        return True

    def rec(idx: int, chosen: int, cand: int) -> None:
        """Decide positions idx.. below ``chosen``; ``cand`` holds the ids of
        the found masks that contain ``chosen``."""
        nonlocal nodes
        nodes += 1
        if idx == m:
            # Every two disjoint chosen edges have a chosen cross edge and no
            # class conflicts, so the chosen edges have no induced 2K2 and are
            # transitively orientable: cointerval.
            bit = 1 << len(found)
            found.append(chosen)
            for p in _bit_list(chosen):
                holds[p] |= bit
            return
        a, b = internal[idx]
        mark = len(log)

        # Choosing ab kills a chosen xy whose four cross pairs are all absent,
        # that is, with both ends in far.
        far = absent[a] & absent[b]
        rest = far
        while rest:
            low = rest & -rest
            rest ^= low
            if crow[low.bit_length() - 1] & far:
                break
        else:
            # Choosing ab relates it to each chosen ac with bc absent, and to
            # each chosen bc with ac absent.
            ra = crow[a] & absent[b]
            rb = crow[b] & absent[a]
            if (not ra or joins(a, idx, b, ra)) and (not rb or joins(b, idx, a, rb)):
                crow[a] |= 1 << b
                crow[b] |= 1 << a
                before = len(found)
                rec(idx + 1, chosen | 1 << idx, cand & holds[idx])
                # Every mask found below the include child contains chosen.
                cand |= (1 << len(found)) - (1 << before)
                crow[a] ^= 1 << b
                crow[b] ^= 1 << a
            if len(log) > mark:
                undo(mark)

        absent[a] |= 1 << b
        absent[b] |= 1 << a
        # Deciding ab out kills chosen av and bw, v != w, whose other cross
        # pairs aw, vb and vw are already absent.
        ends = crow[b] & absent[a]
        rest = crow[a] & absent[b] if ends else 0
        while rest:
            low = rest & -rest
            rest ^= low
            if absent[low.bit_length() - 1] & ends:
                break
        else:
            # Deciding ab out relates ca and cb for each common chosen neighbour.
            common = crow[a] & crow[b]
            while common:
                low = common & -common
                common ^= low
                c = low.bit_length() - 1
                if not relate(pos[c][a], pos[c][b], (c > a) ^ (c > b)):
                    break
            else:
                # A found mask that holds chosen and every later position a
                # leaf below could hold leaves the exclude child nothing new:
                # one node, no descent. ``subsumed`` holds on an empty cand.
                if cand and subsumed(idx + 1, cand):
                    nodes += 1
                else:
                    rec(idx + 1, chosen, cand)
            if len(log) > mark:
                undo(mark)
        absent[a] ^= 1 << b
        absent[b] ^= 1 << a

    rec(0, 0, 0)
    rec = None  # rec holds itself through its cell: free the scan state now

    found.sort(key=int.bit_count, reverse=True)  # stable: ties in found order
    out = []
    for mask in found:
        lex_mask = 0
        for p in _bit_list(mask):
            lex_mask |= 1 << perm[p]
        out.append(lex_mask)
    return out, nodes


def _prefix_dp_masks(host: Graph) -> tuple[list[int], int]:
    """All inclusion-maximal cointerval subsets of the host's edges, as the
    host edges left out by the minimal interval completions of g, the host's
    complement: a prefix DP over g's vertex orders.

    Returns bitmasks indexed by position in ``host.edges()``, in no fixed
    order, plus the number of (prefix, vertex) steps, s * 2^(s-1). See the
    module docstring for the fill rule and why the family is exact. The DP
    works on the host's s non-isolated vertices, numbered 0..s-1 in label
    order, so a prefix is an s-bit int, and loops layer by layer with no
    recursion. A table ``U`` of the vertices with a g-neighbour in each
    subset gives each prefix's reaching vertices with one AND, and a table
    ``R`` of the host edges at each subset's vertices turns them into the
    edges that reach; a step's fill is those edges that also lie at v, one
    AND with v's edge star, since v is outside the prefix and every reaching
    vertex is inside. The prefixes are bucketed by size once, and each
    successor of a layer gets an empty slot before the layer is stepped. A
    layer steps its prefixes in increasing order, extending a prefix's one
    fill (the common case) with no list built, collects each successor's
    candidate fills in its slot, frees each prefix's own fills once it is
    stepped, and reduces each successor once when the layer is done; a
    successor whose candidates are all one fill keeps it without a
    reduction.

    Every prefix is needed. Letting a prefix grow only by a vertex with a
    g-neighbour already placed (or by any vertex once nothing placed reaches
    past it) loses family members: on 3 of the 12,345 graphs with 8
    vertices and a complement edge, and on 90 of 3,000 random graphs with
    9-11 vertices and edge density 0.2-0.5.
    """
    hrow = host.adj
    edges = host.edges()
    # The live vertices, the host's non-isolated ones, in label order; g's
    # universal vertices are the rest, and they add no fill and take none.
    verts = [v for v in range(host.n) if hrow[v]]
    s = len(verts)
    full = (1 << s) - 1
    local = {v: i for i, v in enumerate(verts)}
    lhrow = [sum(1 << local[u] for u in _bit_list(hrow[v])) for v in verts]
    # g's rows on the live vertices: the complements of the host's.
    lrow = [full ^ h ^ 1 << i for i, h in enumerate(lhrow)]
    # star[i]: the bits of the host edges at live vertex i in the edge list.
    star = [0] * s
    for p, (u, v) in enumerate(edges):
        star[local[u]] |= 1 << p
        star[local[v]] |= 1 << p
    # U[S]: the live vertices with a g-neighbour in S; R[S]: the host edges
    # at the vertices of S. One OR per subset each.
    U = [0]
    R = [0]
    for i in range(s):
        U += [near | lrow[i] for near in U]
        R += [at | star[i] for at in R]
    # layers[k]: the prefixes of k vertices, in increasing order.
    layers: list[list[int]] = [[] for _ in range(s + 1)]
    for prefix in range(1 << s):
        layers[prefix.bit_count()].append(prefix)
    pairs = [(1 << i, star[i]) for i in range(s)]
    # slot[P]: prefix P's fills, from when P's layer is next until P is
    # stepped: its candidates while its layer is being collected, its
    # inclusion-minimal fills once that layer is reduced.
    slot: list[list[int] | None] = [None] * (1 << s)
    slot[0] = [0]
    steps = 0
    for k in range(s):
        after = layers[k + 1]
        for succ in after:
            slot[succ] = []
        steps += (s - k) * len(layers[k])
        for prefix in layers[k]:
            fills = slot[prefix]
            slot[prefix] = None
            # The host edges at placed vertices with a g-neighbour still
            # unplaced: their intervals reach every vertex placed from now
            # on, so placing v fills its edges among them.
            reach = R[U[full ^ prefix] & prefix]
            if len(fills) == 1:
                single = fills[0]
                for bit, star_v in pairs:
                    if not prefix & bit:
                        slot[prefix | bit].append(single | reach & star_v)
            else:
                for bit, star_v in pairs:
                    if not prefix & bit:
                        fill_v = reach & star_v
                        slot[prefix | bit] += [fill | fill_v for fill in fills]
        for prefix in after:
            cands = slot[prefix]
            if cands.count(cands[0]) == len(cands):
                del cands[1:]
            else:
                slot[prefix] = _minimal_masks(cands)
    every = (1 << len(edges)) - 1
    return [every ^ fill for fill in slot[full]], steps


def _minimal_masks(masks: list[int]) -> list[int]:
    """The inclusion-minimal masks of the list, each once, by popcount. A
    proper subset has the smaller popcount, so after the sort each mask is
    kept unless a kept mask of smaller popcount is a subset of it: no kept
    mask ever needs removing, and masks of equal popcount, distinct once
    repeats are gone, are never compared."""
    # kept: the kept masks of popcount below count; level: those of count.
    kept: list[int] = []
    level: list[int] = []
    count = 0
    for mask in sorted(set(masks), key=int.bit_count):
        if mask.bit_count() != count:
            count = mask.bit_count()
            kept += level
            level = []
        for old in kept:
            if old & mask == old:
                break
        else:
            level.append(mask)
    return kept + level


def _maximal_cointerval_family_masks(g: Graph, cap: int) -> tuple[Graph, list[int], int]:
    """The complement of g as the host, the maximal cointerval subsets of its
    edges as masks over ``host.edges()`` in edge-list order, and the node
    count of the method that built them.

    An interval g is answered at any size, with the host as the one member.
    Any other g is refused over ``cap`` host edges, C(n,2) - m; a host with m
    edges on s non-isolated vertices then goes to the prefix DP when m >= 2s
    and s <= ``DP_MAX_VERTICES``, and to the subset scan otherwise. The scan
    recurses once per host edge, so a host past the recursion limit is
    refused too."""
    if _is_interval_masks(g.n, g.adj):
        host = complement(g)
        return host, [(1 << host.num_edges()) - 1], 0
    size = g.n * (g.n - 1) // 2 - g.num_edges()
    if size > cap:
        raise CapacityError(
            f"host has {size} edges, over the cap {cap} (--max-complement-edges)"
        )
    host = complement(g)
    s = sum(1 for row in host.adj if row)  # non-isolated host vertices
    if s <= DP_MAX_VERTICES and size >= 2 * s:
        family, nodes = _prefix_dp_masks(host)
    else:
        try:
            family, nodes = _maximal_cointerval_masks(host)
        except RecursionError:  # the scan recurses once per host edge
            limit = f"the subset scan's recursion limit {sys.getrecursionlimit()}"
            raise CapacityError(f"host has {size} edges, over {limit}") from None
    # Masks index the lexicographic edge list, so this orders by edge list.
    family.sort(key=_bit_list)
    return host, family, nodes


def maximal_cointerval_family(host: Graph) -> list[Graph]:
    """All inclusion-maximal cointerval edge subsets of the host graph, as
    spanning subgraphs, ordered lexicographically by sorted edge list. A
    cointerval host is its own one member at any size; any other host over
    the default complement-edge cap raises ``CapacityError``."""
    _, family, _ = _maximal_cointerval_family_masks(
        complement(host), DEFAULT_COMPLEMENT_EDGE_CAP
    )
    return list(_mask_parts(host, family))


def _mask_parts(host: Graph, masks: Iterable[int]) -> tuple[Graph, ...]:
    """The spanning subgraphs of the host that the masks over ``host.edges()``
    denote, in the masks' order."""
    edges = host.edges()
    return tuple(Graph.from_edges(host.n, (edges[p] for p in _bit_list(m))) for m in masks)


def _minimum_cover(universe: int, sets: list[int]) -> tuple[list[int], int]:
    """Exact minimum cover of the universe bits by the given set masks.

    Iterative deepening on the cover size k = 1, 2, ...: each round is a
    depth-first search for at most k sets that branches on the uncovered
    element contained in the fewest sets, tries sets in list order, and cuts a
    node whose uncovered count, over the best single-set gain and rounded up,
    exceeds the sets left. Returns the chosen set indices, the first minimum
    cover in that order, and the node count over all rounds.
    """
    if universe == 0:
        return [], 0
    # elem_sets[e]: the indices of the sets holding element e, in list order.
    elem_sets: list[list[int]] = [[] for _ in range(universe.bit_length())]
    for i, s in enumerate(sets):
        s &= universe
        while s:
            low = s & -s
            s ^= low
            elem_sets[low.bit_length() - 1].append(i)
    counts = [len(found) for found in elem_sets]
    if any(universe >> e & 1 and not c for e, c in enumerate(counts)):
        raise SelfCheckError("set cover universe has an uncoverable element")
    nodes = 0
    path: list[int] = []

    def search(rest: int, left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if not rest:
            return True
        gain = max([(s & rest).bit_count() for s in sets])
        if -(-rest.bit_count() // gain) > left:
            return False
        # Branch on the element in the fewest sets, the lowest on ties.
        fewest, bits = len(sets) + 1, rest
        while bits:
            low = bits & -bits
            bits ^= low
            if counts[low.bit_length() - 1] < fewest:
                e = low.bit_length() - 1
                fewest = counts[e]
                if fewest == 1:  # no element is in fewer sets
                    break
        for i in elem_sets[e]:
            path.append(i)
            if search(rest & ~sets[i], left - 1):
                return True
            path.pop()
        return False

    k = 1
    while not search(universe, k):
        k += 1
    search = None  # search holds itself through its cell: free it now
    return path, nodes


def exact_boxicity(
    g: Graph, max_complement_edges: int = DEFAULT_COMPLEMENT_EDGE_CAP
) -> BoxicityResult:
    """Exact boxicity with a cointerval-cover certificate, verified before
    it returns and kept as masks, from which ``certificate`` builds the cover
    and ``box_rep`` verified boxes on access. Complete graphs have
    boxicity 0, and other interval graphs 1, from the decision without the
    scan and at any size; any other graph whose complement is over
    ``max_complement_edges`` raises ``CapacityError``.

    Restricting the cover search to inclusion-maximal cointerval subsets is
    lossless: any part of a cover stays cointerval when replaced by a maximal
    superset from the family, and the union only grows.
    """
    return _exact_boxicity(g, max_complement_edges)[0]


def _exact_boxicity(g: Graph, max_complement_edges: int) -> tuple[BoxicityResult, Graph]:
    """``exact_boxicity``'s result and the complement of g that the engine
    built for it, for callers that need both without building it again."""
    host, family, scan_nodes = _maximal_cointerval_family_masks(g, max_complement_edges)
    universe = (1 << host.num_edges()) - 1
    chosen, cover_nodes = _minimum_cover(universe, family)
    # The family is in edge-list order, so sorted indices are certificate order.
    masks = tuple(family[i] for i in sorted(chosen))
    _self_check(g, CointervalCover(host, _mask_parts(host, masks)))
    result = BoxicityResult(len(masks), g, masks, scan_nodes + cover_nodes, len(family))
    return result, host

def _self_check(g: Graph, cover: CointervalCover) -> None:
    """Verify the engine's certificate."""
    verdict = verify_cointerval_cover(g, cover)
    if not verdict:
        raise SelfCheckError(f"engine certificate failed verification: {verdict.reason}")


def verify_cointerval_cover(g: Graph, cover: CointervalCover) -> Verdict:
    """Check the three certificate invariants: parts within the host's edges,
    every part cointerval as a spanning subgraph, and full edge coverage."""
    return _cover_orders(g, cover)[0]


def _cover_orders(
    g: Graph, cover: CointervalCover
) -> tuple[Verdict, list[IntervalOrder]]:
    """``verify_cointerval_cover``'s verdict, and on acceptance each part's
    interval order (``intervals._interval_order``), the orientation that
    decided it cointerval."""
    host = cover.host
    if not _is_complement(host, g):
        raise ValueError("cover host is not the complement of the given graph")
    covered = [0] * host.n
    orders = []
    for i, part in enumerate(cover.parts):
        if part.n != host.n:
            return Verdict(False, f"part {i} has host_n {part.n}, want {host.n}"), []
        foreign = tuple(p & ~h for p, h in zip(part.adj, host.adj))
        if any(foreign):
            u, v = Graph(host.n, foreign).edges()[0]
            return Verdict(False, f"part {i} contains non-host edge {u}-{v}"), []
        order = _interval_order(part.adj)
        if order is None:
            return Verdict(False, f"part {i} is not cointerval"), []
        orders.append(order)
        covered = [c | p for c, p in zip(covered, part.adj)]
    missing = tuple(h & ~c for h, c in zip(host.adj, covered))
    if any(missing):
        u, v = Graph(host.n, missing).edges()[0]
        return Verdict(False, f"host edge {u}-{v} is covered by no part"), []
    return Verdict(True), orders


def _cover_to_box_rep(g: Graph, orders: list[IntervalOrder]) -> BoxRep:
    """Boxes from the interval orders of a verified cover's parts: coordinate
    j of vertex v is v's interval in ``_order_layout`` of part j's order. The
    boxes are verified before they return."""
    if orders:
        dims = [_order_layout(order).intervals for order in orders]
        rep = BoxRep(len(dims), tuple(tuple(dim[v] for dim in dims) for v in range(g.n)))
    else:
        rep = BoxRep(1, tuple(((0, 0),) for _ in range(g.n)))
    verdict = verify_box_representation(g, rep)
    if not verdict:
        raise SelfCheckError(
            f"engine box representation failed verification: {verdict.reason}"
        )
    return rep


def cover_to_box_representation(g: Graph, cover: CointervalCover) -> BoxRep:
    """Turn a verified cover into boxes: coordinate j of vertex v is v's
    interval in the interval representation of the complement of part j."""
    verdict, orders = _cover_orders(g, cover)
    if not verdict:
        raise ValueError(f"cover does not verify: {verdict.reason}")
    return _cover_to_box_rep(g, orders)


def verify_box_representation(g: Graph, rep: BoxRep) -> Verdict:
    """Accept iff the boxes meet exactly along adjacency: per coordinate,
    each vertex's mask of the vertices whose interval meets its own, ANDed
    over the coordinates and compared with the rows."""
    if len(rep.boxes) != g.n:
        return Verdict(False, f"{len(rep.boxes)} boxes for {g.n} vertices")
    for v, box in enumerate(rep.boxes):
        if len(box) != rep.dimension:
            return Verdict(False, f"box of vertex {v} has wrong dimension")
        for lo, hi in box:
            if lo > hi:
                return Verdict(False, f"vertex {v} has an empty interval")
    full = (1 << g.n) - 1
    if rep.dimension == 0 and any(row | 1 << v != full for v, row in enumerate(g.adj)):
        return Verdict(False, "dimension 0 can only represent a complete graph")
    return _meet_verdict(g, zip(*rep.boxes), "boxes")


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def matching_lower_bound(g: Graph) -> int:
    """Lower bound from an induced matching structure in the complement.

    Finds the largest k such that disjoint vertex sets {a_1..a_k} and
    {b_1..b_k} exist whose cross edges in the complement are exactly the
    matching a_i b_i (edges inside either set are unconstrained), and returns
    the ceiling of k/2. Exact for graphs up to MATCHING_EXACT_MAX_N vertices,
    greedy above (still a valid lower bound).
    """
    value, _ = matching_bound_detail(g)
    return value


def matching_bound_detail(g: Graph) -> tuple[int, str]:
    """Matching lower bound plus how it was obtained: "exact" or "heuristic".

    Oriented complement edges (a, b) are mutually compatible when their
    endpoints are disjoint and neither cross pair a-d, c-b is a complement
    edge; the largest structure is a maximum clique of the compatibility
    relation.
    """
    comp = complement(g)
    comp_edges = comp.edges()
    if not comp_edges:
        return 0, "exact"
    oriented: list[tuple[int, int]] = []
    for u, v in comp_edges:
        oriented.append((u, v))
        oriented.append((v, u))
    if g.n > MATCHING_EXACT_MAX_N:
        # Keep each (a, b) with a and b unused and no complement edge a-d or
        # c-b to a kept (c, d): compatible with every kept edge.
        tails = heads = 0
        for a, b in oriented:
            ends = 1 << a | 1 << b
            if not ((tails | heads) & ends or comp.adj[a] & heads or comp.adj[b] & tails):
                tails |= 1 << a
                heads |= 1 << b
        return (tails.bit_count() + 1) // 2, "heuristic"
    k = len(oriented)
    compat = [0] * k
    for i in range(k):
        a, b = oriented[i]
        for j in range(i + 1, k):
            c, d = oriented[j]
            if a == c or a == d or b == c or b == d:
                continue
            if comp.adj[a] >> d & 1 or comp.adj[c] >> b & 1:
                continue
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    # A graph on k vertices has at most 3^(k/3) maximal cliques (Moon &
    # Moser 1965), below this limit, so the search never returns None.
    cliques = _maximal_cliques_masks(compat, (1 << k) - 1, 3 ** (k // 3 + 1))
    best = max(c.bit_count() for c in cliques)
    return (best + 1) // 2, "exact"


def pair_lower_bound(g: Graph, h1: Iterable[int], h2: Iterable[int]) -> int:
    """Additive lower bound from two complement-induced subgraphs at
    complement distance at least 2: boxicity of g is at least the sum of the
    boxicities of the complements of those induced subgraphs."""
    s1 = sorted(set(h1))
    s2 = sorted(set(h2))
    if not s1 or not s2:
        raise ValueError("both vertex sets must be nonempty")
    if set(s1) & set(s2):
        raise ValueError("vertex sets must be disjoint")
    comp = complement(g)
    d = subgraph_distance(comp, s1, s2)
    if d < 2:
        raise ValueError(
            f"complement distance between the sets is {d}, need at least 2"
        )
    # Complementing commutes with taking an induced subgraph.
    return sum(exact_boxicity(induced_subgraph(g, s)).value for s in (s1, s2))


# ---------------------------------------------------------------------------
# Certificate text format
# ---------------------------------------------------------------------------

def format_cover(cover: CointervalCover) -> str:
    lines = [f"host {graph6_encode(cover.host)}", f"parts {len(cover.parts)}"]
    for part in cover.parts:
        lines.append(" ".join(f"{u}-{v}" for u, v in part.edges()))
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> CointervalCover:
    lines = text.splitlines()
    if (
        len(lines) < 2
        or not lines[0].startswith("host ")
        or not lines[1].startswith("parts ")
    ):
        raise ValueError("certificate must start with 'host <graph6>' and 'parts <k>'")
    host = graph6_decode(lines[0][len("host "):].strip())
    try:
        k = int(lines[1][len("parts "):])
    except ValueError:
        raise ValueError("bad part count line") from None
    if k < 0 or len(lines) < 2 + k:
        raise ValueError(f"certificate promises {k} parts but has {len(lines) - 2}")
    if any(line.strip() for line in lines[2 + k:]):
        raise ValueError(f"unexpected content after the {k} part lines")
    parts = []
    for i in range(k):
        pairs = []
        for token in lines[2 + i].split():
            try:
                u, v = token.split("-")
                pairs.append((int(u), int(v)))
            except ValueError:
                raise ValueError(f"bad edge token {token!r} in part {i}") from None
        parts.append(Graph.from_edges(host.n, pairs))
    return CointervalCover(host, tuple(parts))
