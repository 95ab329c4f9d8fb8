"""Exhaustive small-graph corpora and brute-force isomorphism.

Test support at desk scale, not a feature: one representative per isomorphism
class, generated by extending the (n-1)-vertex corpus with every possible new
neighborhood. Within one parent, a new neighborhood that leaves out a lower
twin of a vertex it holds is skipped: a twin swap turns it into a smaller
neighborhood of the same parent. Each surviving candidate is built as a tuple
of neighbour rows and gets one invariant, updated from its parent's: per
vertex the triple (degree, triangles at the vertex, the multiset of neighbour
degrees packed into one int). The sorted triples are the bucket key, and a
backtracking search from each bucket member, which maps a vertex only to a
vertex with the same triple, compares it with the candidate. The first
candidate of a class in generation order (parents in corpus order, new
neighborhoods by increasing bitmask) is its representative, so the corpus and
its labels do not depend on the invariant or on the skip. Only
representatives become ``Graph`` values. Intended for n up to about 8.
"""

from __future__ import annotations

from .graphs import Graph, is_connected

Triple = tuple[int, int, int]


def _invariant(n: int, adj: tuple[int, ...]) -> list[Triple]:
    """Per-vertex triples (degree, triangles at v, neighbour degrees as a
    multiset: one base-2**b digit per degree, b wide enough to count n)."""
    deg = [row.bit_count() for row in adj]
    b = n.bit_length()
    triples = []
    for v, row in enumerate(adj):
        tri = nbr = 0
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            tri += (row & adj[u]).bit_count()
            nbr += 1 << b * deg[u]
        triples.append((deg[v], tri >> 1, nbr))
    return triples


def _classes(triples: list[Triple]) -> dict[Triple, int]:
    """Vertex bitmask of each triple's class."""
    out: dict[Triple, int] = {}
    for v, t in enumerate(triples):
        out[t] = out.get(t, 0) | 1 << v
    return out


def _search_order(adj: tuple[int, ...], triples: list[Triple]) -> list[int]:
    """Placement order for the search from this graph: rarest triple first,
    neighbours of placed vertices preferred, so the adjacency prune fires
    early."""
    size = {t: c.bit_count() for t, c in _classes(triples).items()}
    rank = sorted(range(len(adj)), key=lambda v: (size[triples[v]], -triples[v][0], v))
    order: list[int] = []
    unplaced = (1 << len(adj)) - 1
    reach = 0
    while unplaced:
        pool = reach & unplaced or unplaced
        v = next(v for v in rank if pool >> v & 1)
        order.append(v)
        unplaced ^= 1 << v
        reach |= adj[v]
    return order


def _maps_onto(
    order: list[int],
    triples: list[Triple],
    adj_g: tuple[int, ...],
    adj_h: tuple[int, ...],
    classes_h: dict[Triple, int],
) -> bool:
    """Whether some bijection from g onto h preserves adjacency. It places
    g's vertices in ``order``, each only on an h-vertex of its own triple
    class (``classes_h``)."""
    n = len(order)
    image = [0] * n  # image[v]: bit of the h-vertex that g-vertex v is placed on

    def place(i: int, placed: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        need = 0
        rest = adj_g[v] & placed
        while rest:
            low = rest & -rest
            rest ^= low
            need |= image[low.bit_length() - 1]
        cand = classes_h[triples[v]] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            if (adj_h[low.bit_length() - 1] & used) == need:
                image[v] = low
                if place(i + 1, placed | 1 << v, used | low):
                    return True
        return False

    found = place(0, 0, 0)
    place = None  # place holds itself through its cell: free it now
    return found


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force bijection search with invariant pruning; meant for n <= 8."""
    if g.n != h.n:
        return False
    tg = _invariant(g.n, g.adj)
    th = _invariant(h.n, h.adj)
    if sorted(tg) != sorted(th):
        return False
    return _maps_onto(_search_order(g.adj, tg), tg, g.adj, h.adj, _classes(th))


def _twin_masks(adj: tuple[int, ...]) -> list[int]:
    """New-neighbourhood masks for the children of one parent, in increasing
    order, that hold in every class of twins of the parent the class's
    lowest-indexed members. Twins have the same neighbours apart from each
    other; a vertex cannot have both a true and a false twin, so the classes
    partition the vertices. A skipped mask becomes a smaller kept one by twin
    swaps, which are automorphisms of the parent."""
    masks = [0]
    done = 0
    for v, row in enumerate(adj):
        if done >> v & 1:
            continue
        prefixes = [0, 1 << v]
        for u in range(v + 1, len(adj)):
            if adj[u] & ~(1 << v) == row & ~(1 << u):
                prefixes.append(prefixes[-1] | 1 << u)
        done |= prefixes[-1]
        masks = [m | p for m in masks for p in prefixes]
    masks.sort()
    return masks


def _child_invariant(
    b: int, base: list[Triple], weight: list[int], adj: tuple[int, ...], mask: int
) -> list[Triple]:
    """``_invariant`` of the child that joins a new last vertex to ``mask``,
    from the parent's rows ``adj`` and triples ``base`` (in base-2**b digits of
    the child's n). ``weight[s]`` is the packed degree multiset of the parent
    vertex set ``s``; a neighbour in ``mask`` moves up one digit."""
    step = (1 << b) - 1
    top = 1 << b * mask.bit_count()
    triples = []
    edges = 0
    for v, (deg, tri, nbr) in enumerate(base):
        common = adj[v] & mask
        if mask >> v & 1:
            shared = common.bit_count()
            edges += shared
            triples.append((deg + 1, tri + shared, nbr + step * weight[common] + top))
        else:
            triples.append((deg, tri, nbr + step * weight[common]))
    triples.append((mask.bit_count(), edges >> 1, weight[mask] << b))
    return triples


_cache: dict[int, list[Graph]] = {}


def all_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class, each
    class represented by its first candidate in generation order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n not in _cache:
        if n == 1:
            _cache[n] = [Graph(1, (0,))]
        else:
            result: list[Graph] = []
            # sorted triples -> (rows, triples, search order) of each representative
            buckets: dict[
                tuple[Triple, ...], list[tuple[tuple[int, ...], list[Triple], list[int]]]
            ] = {}
            new = n - 1
            b = n.bit_length()
            for parent in all_graphs(n - 1):
                adj = parent.adj
                base = _invariant(n, adj)  # the parent's triples, in the child's digits
                weight = [0]
                for deg, _, _ in base:
                    weight += [w + (1 << b * deg) for w in weight]
                for mask in _twin_masks(adj):
                    rows = tuple(
                        row | (mask >> v & 1) << new for v, row in enumerate(adj)
                    ) + (mask,)
                    triples = _child_invariant(b, base, weight, adj, mask)
                    bucket = buckets.setdefault(tuple(sorted(triples)), [])
                    if bucket:
                        classes = _classes(triples)
                        if any(
                            _maps_onto(order, rep_triples, rep, rows, classes)
                            for rep, rep_triples, order in bucket
                        ):
                            continue
                    bucket.append((rows, triples, _search_order(rows, triples)))
                    result.append(Graph(n, rows))
            _cache[n] = result
    return list(_cache[n])


def connected_graphs(n: int) -> list[Graph]:
    return [g for g in all_graphs(n) if is_connected(g)]
