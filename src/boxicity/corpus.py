"""Exhaustive small-graph corpora and brute-force isomorphism.

Test support at desk scale, not a feature: one representative per isomorphism
class, generated by extending the (n-1)-vertex corpus with every possible new
neighborhood. Each candidate is built as a tuple of neighbour rows and gets
one invariant: per vertex the triple (degree, triangles at the vertex, the
multiset of neighbour degrees packed into one int). The sorted triples are
the bucket key, and a backtracking search, which maps a vertex only to a
vertex with the same triple, compares the candidate with the bucket's
members. The first candidate of a class in generation order (parents in
corpus order, new neighborhoods by increasing bitmask) is its representative,
so the corpus and its labels do not depend on the invariant. Only
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

    return place(0, 0, 0)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force bijection search with invariant pruning; meant for n <= 8."""
    if g.n != h.n:
        return False
    tg = _invariant(g.n, g.adj)
    th = _invariant(h.n, h.adj)
    if sorted(tg) != sorted(th):
        return False
    return _maps_onto(_search_order(g.adj, tg), tg, g.adj, h.adj, _classes(th))


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
            # sorted triples -> (rows, triple classes) of each representative
            buckets: dict[tuple[Triple, ...], list[tuple[tuple[int, ...], dict]]] = {}
            new = n - 1
            for parent in all_graphs(n - 1):
                for mask in range(1 << new):
                    rows = tuple(
                        row | (mask >> v & 1) << new for v, row in enumerate(parent.adj)
                    ) + (mask,)
                    triples = _invariant(n, rows)
                    bucket = buckets.setdefault(tuple(sorted(triples)), [])
                    if bucket:
                        order = _search_order(rows, triples)
                        if any(
                            _maps_onto(order, triples, rows, rep, classes)
                            for rep, classes in bucket
                        ):
                            continue
                    bucket.append((rows, _classes(triples)))
                    result.append(Graph(n, rows))
            _cache[n] = result
    return list(_cache[n])


def connected_graphs(n: int) -> list[Graph]:
    return [g for g in all_graphs(n) if is_connected(g)]
