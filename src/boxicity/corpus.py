"""Exhaustive small-graph corpora and brute-force isomorphism.

Test support at desk scale, not a feature: one representative per isomorphism
class, generated by extending the (n-1)-vertex corpus with every possible new
neighborhood. Within one parent, a new neighborhood that leaves out a lower
twin of a vertex it holds is skipped: a twin swap turns it into a smaller
neighborhood of the same parent. Each surviving candidate is built as a tuple
of neighbour rows and gets one invariant, updated from its parent's: per
vertex the pair (degree, triangles at the vertex). The sorted pairs are the
bucket key. A backtracking search from each bucket member compares it with
the candidate: it places the member's vertices in label order, each only on
a vertex with the same pair whose placed neighbours are the images of its
lower-labelled neighbours. The first candidate of a class in generation
order (parents in corpus order, new neighborhoods by increasing bitmask) is
its representative, so the corpus and its labels do not depend on the
invariant or on the skip. Only representatives become ``Graph`` values.
Intended for n up to about 8.
"""

from __future__ import annotations

from .graphs import Graph, is_connected

Pair = tuple[int, int]


def _invariant(adj: tuple[int, ...]) -> list[Pair]:
    """Per-vertex pairs (degree, triangles at v)."""
    pairs = []
    for row in adj:
        tri = 0
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            tri += (row & adj[low.bit_length() - 1]).bit_count()
        pairs.append((row.bit_count(), tri >> 1))
    return pairs


def _classes(pairs: list[Pair]) -> dict[Pair, int]:
    """Vertex bitmask of each pair's class."""
    out: dict[Pair, int] = {}
    for v, p in enumerate(pairs):
        out[p] = out.get(p, 0) | 1 << v
    return out


def _maps_onto(
    pairs: list[Pair],
    adj_g: tuple[int, ...],
    adj_h: tuple[int, ...],
    classes_h: dict[Pair, int],
) -> bool:
    """Whether some bijection from g onto h preserves adjacency. It places
    g's vertices in label order, each only on an h-vertex of its own pair
    class (``classes_h``) whose placed neighbours are the images of its
    lower-labelled neighbours."""
    n = len(adj_g)
    image = [0] * n  # image[v]: bit of the h-vertex that g-vertex v is placed on

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        need = 0
        rest = adj_g[v] & ((1 << v) - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            need |= image[low.bit_length() - 1]
        cand = classes_h[pairs[v]] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            if (adj_h[low.bit_length() - 1] & used) == need:
                image[v] = low
                if place(v + 1, used | low):
                    return True
        return False

    found = place(0, 0)
    place = None  # place holds itself through its cell: free it now
    return found


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force bijection search with invariant pruning; meant for n <= 8."""
    if g.n != h.n:
        return False
    pg = _invariant(g.adj)
    ph = _invariant(h.adj)
    if sorted(pg) != sorted(ph):
        return False
    return _maps_onto(pg, g.adj, h.adj, _classes(ph))


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


def _child_invariant(base: list[Pair], adj: tuple[int, ...], mask: int) -> list[Pair]:
    """``_invariant`` of the child that joins a new last vertex to ``mask``,
    from the parent's rows ``adj`` and pairs ``base``."""
    pairs = []
    edges = 0
    for v, (deg, tri) in enumerate(base):
        if mask >> v & 1:
            shared = (adj[v] & mask).bit_count()
            edges += shared
            pairs.append((deg + 1, tri + shared))
        else:
            pairs.append((deg, tri))
    pairs.append((mask.bit_count(), edges >> 1))
    return pairs


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
            # sorted pairs -> (rows, pairs) of each representative
            buckets: dict[tuple[Pair, ...], list[tuple[tuple[int, ...], list[Pair]]]] = {}
            new = n - 1
            for parent in all_graphs(n - 1):
                adj = parent.adj
                base = _invariant(adj)
                for mask in _twin_masks(adj):
                    rows = tuple(
                        row | (mask >> v & 1) << new for v, row in enumerate(adj)
                    ) + (mask,)
                    pairs = _child_invariant(base, adj, mask)
                    bucket = buckets.setdefault(tuple(sorted(pairs)), [])
                    if bucket:
                        classes = _classes(pairs)
                        if any(
                            _maps_onto(rep_pairs, rep, rows, classes)
                            for rep, rep_pairs in bucket
                        ):
                            continue
                    bucket.append((rows, pairs))
                    result.append(Graph(n, rows))
            _cache[n] = result
    return list(_cache[n])


def connected_graphs(n: int) -> list[Graph]:
    return [g for g in all_graphs(n) if is_connected(g)]
