"""Immutable simple graphs on dense integer vertex ids.

Adjacency is stored as one neighbor bitmask per vertex, so all set algebra
(complement, induced subgraphs, neighborhood tests) is integer bit twiddling.
Graphs are values: every derivation returns a new graph, nothing mutates, and
instances are hashable and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError

#: Largest supported vertex count. Adjacency rows are fixed-width bitmasks of
#: this many bits; exceeding it is a clean capacity error, not silent slowdown.
MAX_VERTICES = 64

#: Distance value for vertex pairs with no connecting path. ``math.inf``
#: compares totally against every finite distance, so callers never need a
#: sentinel check.
INFINITY = math.inf


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor bitmask of ``v``. The relation is symmetric and
    irreflexive by construction; both are validated on creation. Symmetry is
    checked on the rows packed into one integer, a bit matrix with rows padded
    to a power-of-two width, which must equal its transpose.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        if min(self.adj) < 0 or max(self.adj) >> self.n:
            self._raise_row_error()
        width = 1 << (self.n - 1).bit_length()
        diagonal, steps = _bit_matrix(width)
        packed = 0
        for row in reversed(self.adj):
            packed = packed << width | row
        if packed & diagonal:
            self._raise_row_error()
        flipped = packed
        for shift, mask in steps:
            t = (flipped ^ flipped >> shift) & mask
            flipped ^= t ^ t << shift
        if flipped != packed:
            diff = flipped ^ packed
            for v in range(self.n):
                below = diff >> (v * width) & ((1 << v) - 1)
                if below:
                    u = (below & -below).bit_length() - 1
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    def _raise_row_error(self) -> None:
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        _check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return out

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count over ``MAX_VERTICES``. Builders call this with
    their final count before allocating rows, so a huge request fails at once
    instead of exhausting memory."""
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} exceeds MAX_VERTICES={MAX_VERTICES}")


@functools.cache
def _bit_matrix(width: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Masks for a square bit matrix packed into one integer, entry (r, c) at
    bit r * width + c, for a power-of-two width: the diagonal, and the delta
    swaps (shift, mask) that transpose the matrix.

    The swap at step j exchanges entries (r, c + j) and (r + j, c) for every r
    and c with bit j clear, which swaps bit j of the row and column indices;
    the steps for j = width/2, ..., 2, 1 together swap the two indices."""
    diagonal = sum(1 << (v * width + v) for v in range(width))
    steps = []
    j = width >> 1
    while j:
        cols = sum(1 << c for c in range(width) if c & j)
        mask = sum(cols << (r * width) for r in range(width) if not r & j)
        steps.append((j * (width - 1), mask))
        j >>= 1
    return diagonal, tuple(steps)


def _bit_list(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertex_set_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        g._check_vertex(v)
        mask |= 1 << v
    return mask


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~row & ~(1 << v)) for v, row in enumerate(g.adj))
    return Graph(g.n, rows)


def _is_complement(h: Graph, g: Graph) -> bool:
    """Whether h is the complement of g, read off the rows: with both graphs
    loop-free, every pair u != v is an edge of exactly one of them."""
    full = (1 << g.n) - 1
    return h.n == g.n and all(
        a ^ b == full ^ 1 << v for v, (a, b) in enumerate(zip(h.adj, g.adj))
    )


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced on ``s``, relabeled order-preservingly to ``0..|s|-1``."""
    verts = sorted(set(s))
    if not verts:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    for v in verts:
        g._check_vertex(v)
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        row = g.adj[v]
        for u in verts:
            if row >> u & 1:
                rows[pos[v]] |= 1 << pos[u]
    return Graph(len(verts), tuple(rows))


def distance(g: Graph, u: int, v: int) -> int | float:
    """BFS shortest-path length from u to v; INFINITY when no path exists."""
    return subgraph_distance(g, (u,), (v,))


def subgraph_distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> int | float:
    """Minimum pairwise distance between the vertex sets a and b."""
    amask = _vertex_set_mask(g, a)
    bmask = _vertex_set_mask(g, b)
    if not amask or not bmask:
        raise ValueError("subgraph_distance needs nonempty vertex sets")
    if amask & bmask:
        return 0
    seen = amask
    frontier = amask
    d = 0
    while frontier:
        d += 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= g.adj[low.bit_length() - 1]
            frontier ^= low
        nxt &= ~seen
        if nxt & bmask:
            return d
        seen |= nxt
        frontier = nxt
    return INFINITY


def focal_vertices(g: Graph) -> set[int]:
    """Vertices adjacent to every other vertex (full degree n-1)."""
    return {v for v in range(g.n) if g.adj[v].bit_count() == g.n - 1}


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    mask = _vertex_set_mask(g, s)
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if (mask & ~low) & ~g.adj[v]:
            return False
    return True


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    return is_clique(complement(g), s)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Side-by-side union; h's vertices are relabeled to g.n..g.n+h.n-1."""
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges between the two sides."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj]
    rows += [(row << g.n) | gmask for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, by smallest member."""
    adj = g.adj
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        unseen &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# graph6 interchange format
# ---------------------------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    """Encode in the standard graph6 format (bit-exact, upper triangle)."""
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        # 4-byte header: '~' then n in 18 bits, 6 bits per byte, big-endian.
        head = "~" + "".join(
            chr(((g.n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    out = [head]
    for k in range(0, len(bits), 6):
        group = bits[k:k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string; strict about length and zero padding."""
    if not text:
        raise ValueError("empty graph6 string")
    if text[0] == "~":
        if len(text) < 4:
            raise ValueError("truncated graph6 header")
        vals = [ord(c) - 63 for c in text[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ValueError("invalid graph6 header byte")
        n = vals[0] << 12 | vals[1] << 6 | vals[2]
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        if n < 0:
            raise ValueError("invalid graph6 header byte")
        body = text[1:]
    if n < 1:
        raise ValueError(f"graph6 vertex count {n} unsupported")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body length does not match vertex count")
    bits = []
    for c in body:
        val = ord(c) - 63
        if val < 0 or val > 63:
            raise ValueError(f"invalid graph6 byte {c!r}")
        bits.extend(val >> shift & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


def to_dot(g: Graph) -> str:
    """DOT text for human inspection; labels are vertex ids, non-canonical."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
