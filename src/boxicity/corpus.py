"""Exhaustive small-graph corpora and brute-force isomorphism.

Test support at desk scale, not a feature: one representative per isomorphism
class, generated by extending the (n-1)-vertex corpus with every possible new
neighborhood and de-duplicating by invariant bucketing plus backtracking
isomorphism search. Intended for n up to about 8.
"""

from __future__ import annotations

from .graphs import Graph, is_connected
from .intervals import _bit_list


def _invariant(g: Graph):
    deg = [g.adj[v].bit_count() for v in range(g.n)]
    tri = []
    for v in range(g.n):
        row = g.adj[v]
        t = 0
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            t += (row & g.adj[low.bit_length() - 1]).bit_count()
        tri.append(t // 2)
    nbr_degrees = tuple(
        sorted(tuple(sorted(deg[u] for u in _bit_list(g.adj[v]))) for v in range(g.n))
    )
    return (
        g.n,
        sum(deg) // 2,
        tuple(sorted(zip(deg, tri))),
        nbr_degrees,
    )


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force bijection search with degree pruning; meant for n <= 8."""
    if g.n != h.n:
        return False
    if _invariant(g) != _invariant(h):
        return False
    n = g.n
    gdeg = [g.adj[v].bit_count() for v in range(n)]
    hdeg = [h.adj[v].bit_count() for v in range(n)]
    # Rarest degrees first, neighbors of placed vertices preferred: both make
    # the adjacency-consistency prune fire early.
    freq = {d: gdeg.count(d) for d in set(gdeg)}
    order: list[int] = []
    placed_mask = 0
    remaining = set(range(n))
    while remaining:
        frontier = [v for v in remaining if g.adj[v] & placed_mask]
        pool = frontier or list(remaining)
        v = min(pool, key=lambda v: (freq[gdeg[v]], -gdeg[v], v))
        order.append(v)
        placed_mask |= 1 << v
        remaining.remove(v)

    mapping = [-1] * n

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or hdeg[w] != gdeg[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if (g.adj[v] >> u & 1) != (h.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                if assign(i + 1, used | 1 << w):
                    return True
                mapping[v] = -1
        return False

    return assign(0, 0)


_cache: dict[int, list[Graph]] = {}


def all_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n not in _cache:
        if n == 1:
            _cache[n] = [Graph(1, (0,))]
        else:
            result: list[Graph] = []
            buckets: dict[object, list[Graph]] = {}
            new = n - 1
            for parent in all_graphs(n - 1):
                for mask in range(1 << new):
                    rows = [
                        parent.adj[v] | ((mask >> v & 1) << new) for v in range(new)
                    ]
                    rows.append(mask)
                    cand = Graph(n, tuple(rows))
                    bucket = buckets.setdefault(_invariant(cand), [])
                    if not any(are_isomorphic(cand, rep) for rep in bucket):
                        bucket.append(cand)
                        result.append(cand)
            _cache[n] = result
    return list(_cache[n])


def connected_graphs(n: int) -> list[Graph]:
    return [g for g in all_graphs(n) if is_connected(g)]

