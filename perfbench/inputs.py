"""Graph inputs and answer checks written independently of the package.

A graph here is a pair ``(n, edges)``: vertices ``0..n-1`` and a sorted tuple
of pairs ``(u, v)`` with ``u < v``. Nothing in this module imports
``boxicity``; workloads convert these graphs into the package's own type only
when they hand them to it, so the package sees nothing but the inputs.
"""

from __future__ import annotations

import hashlib
import random

#: Seed of the fixed pools of random graphs that every run relabels. Drawing
#: the pools once keeps a batch's total cost steady across run seeds, while
#: the run seed still changes every input the package sees (vertex labels,
#: which drive the engine's and the recognizer's tie-breaks, and op order).
POOL_SEED = 13082368


def graph(n, edges):
    return n, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def complete(n):
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n):
    return n, ()


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def spider(legs):
    """A centre (vertex 0) with one path per entry of ``legs`` hanging off it."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return graph(nxt, edges)


def balanced_spider(n):
    """Three-leg spider on ``n`` vertices with leg lengths as equal as possible."""
    rest = n - 1
    return spider([rest // 3 + (1 if i < rest % 3 else 0) for i in range(3)])


def mycielski(g):
    """Mycielski graph: copy 1 is g, copy 2 vertex v joins copy-1 neighbours
    of v, and the apex joins all of copy 2."""
    n, edges = g
    out = list(edges)
    for u, v in edges:
        out += [(u, n + v), (v, n + u)]
    out += [(n + v, 2 * n) for v in range(n)]
    return graph(2 * n + 1, out)


def join(g, h):
    (gn, ge), (hn, he) = g, h
    edges = list(ge) + [(u + gn, v + gn) for u, v in he]
    edges += [(u, gn + v) for u in range(gn) for v in range(hn)]
    return graph(gn + hn, edges)


def complement_edges(g):
    n, edges = g
    present = set(edges)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def relabel(g, perm):
    n, edges = g
    return graph(n, [(perm[u], perm[v]) for u, v in edges])


def masks(g):
    n, edges = g
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def graph6(g):
    """Standard graph6 text (one header byte, so at most 62 vertices)."""
    n, _ = g
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 here supports 1..62 vertices, got {n}")
    rows = masks(g)
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(body)


def digest(lines):
    """Short SHA-256 digest of a sequence of text lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def maximal_clique_count(g):
    """Number of maximal cliques (Bron-Kerbosch with pivoting)."""
    rows = masks(g)
    count = 0

    def expand(p, x):
        nonlocal count
        if not p and not x:
            count += 1
            return
        pivot = max(_bits(p | x), key=lambda v: (p & rows[v]).bit_count())
        for v in _bits(p & ~rows[pivot]):
            expand(p & rows[v], x & rows[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand((1 << g[0]) - 1, 0)
    return count


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def random_complement_graph(rng, n, m):
    """Uniform graph on n vertices whose complement has exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gone = set(rng.sample(pairs, m))
    return graph(n, [p for p in pairs if p not in gone])


def random_interval_graph(rng, n, max_len=3, max_gap=2):
    """Connected interval graph of n random integer intervals, with the
    intervals as ground truth. Starts advance by random gaps that never pass
    the furthest end so far, so the union of the intervals is one segment."""
    ivs = []
    start = reach = 0
    for i in range(n):
        if i:
            start = min(reach, start + rng.randint(0, max_gap))
        end = start + rng.randint(1, max_len)
        ivs.append((start, end))
        reach = max(reach, end)
    rng.shuffle(ivs)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if max(ivs[u][0], ivs[v][0]) <= min(ivs[u][1], ivs[v][1])
    ]
    return graph(n, edges), tuple(ivs)


def square_making_edges(g):
    """Edges uv whose removal leaves an induced 4-cycle u-x-v-y: u and v have
    two non-adjacent common neighbours x and y. The graph without such an
    edge is not chordal, so not interval."""
    rows = masks(g)
    out = []
    for u, v in g[1]:
        common = rows[u] & rows[v]
        if any(common & ~rows[x] & ~(1 << x) for x in _bits(common)):
            out.append((u, v))
    return out


def intervals_match(g, ivs):
    """Problem text, or None when the intervals' intersection graph is g."""
    return boxes_match(g, [(iv,) for iv in ivs], 1)


def boxes_match(g, boxes, dimension):
    """Problem text, or None when the boxes' intersection graph is g: every
    vertex has ``dimension`` nonempty closed intervals, and two boxes meet
    exactly when their vertices are adjacent."""
    n, edges = g
    if len(boxes) != n:
        return f"{len(boxes)} boxes for {n} vertices"
    for v, box in enumerate(boxes):
        if len(box) != dimension or any(lo > hi for lo, hi in box):
            return f"box of vertex {v} is malformed: {box}"
    adjacent = set(edges)
    for u in range(n):
        for v in range(u + 1, n):
            meets = all(
                max(a[0], b[0]) <= min(a[1], b[1]) for a, b in zip(boxes[u], boxes[v])
            )
            if meets != ((u, v) in adjacent):
                return f"boxes of {u} and {v} disagree with the graph"
    return None


def seeded(seed, label):
    """Independent random stream per (seed, label)."""
    return random.Random(f"{label}:{seed}")
