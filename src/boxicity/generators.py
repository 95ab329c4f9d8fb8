"""Generators for the named graph families and the Mycielski/focalization operators.

Vertex layouts are fixed so that constructions and certificates are
byte-reproducible: multipartite parts occupy consecutive id blocks, cycles and
paths are labeled in traversal order, a star's center is vertex 0, and the
generalized Mycielski graph puts the r copies of the base graph in consecutive
blocks with the apex last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _check_vertex_count, join


def complete_graph(n: int) -> Graph:
    _check_positive(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    _check_positive(n)
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    _check_positive(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _check_vertex_count(n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges)


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center as vertex 0."""
    _check_positive(leaves)
    _check_vertex_count(leaves + 1)
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; part i occupies the i-th consecutive id block."""
    if not parts:
        raise ValueError("complete multipartite graph needs at least one part")
    for p in parts:
        if p < 1:
            raise ValueError(f"part sizes must be positive, got {p}")
    n = sum(parts)
    _check_vertex_count(n)
    labels = []
    for i, p in enumerate(parts):
        labels += [i] * p
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if labels[u] != labels[v]
    ]
    return Graph.from_edges(n, edges)


def _check_positive(n: int) -> None:
    """A family size must be positive and, as a vertex count, within
    ``MAX_VERTICES``."""
    if n < 1:
        raise ValueError(f"family size must be at least 1, got {n}")
    _check_vertex_count(n)


@dataclass(frozen=True, slots=True)
class MycielskiLayout:
    """Vertex bookkeeping for the generalized Mycielski graph.

    Copy i of base vertex v (i = 1..r) sits at id (i-1)*base_n + v and the
    apex is the last id, r*base_n.
    """

    base_n: int
    r: int

    def copy(self, i: int, v: int) -> int:
        if not (1 <= i <= self.r):
            raise ValueError(f"copy index {i} outside 1..{self.r}")
        if not (0 <= v < self.base_n):
            raise ValueError(f"base vertex {v} out of range")
        return (i - 1) * self.base_n + v

    @property
    def apex(self) -> int:
        return self.r * self.base_n

    @property
    def total(self) -> int:
        return self.r * self.base_n + 1

    def copy_set(self, i: int) -> list[int]:
        return [self.copy(i, v) for v in range(self.base_n)]


def mycielski(g: Graph, r: int = 2) -> tuple[Graph, MycielskiLayout]:
    """Generalized Mycielski graph of g with r copies plus an apex.

    Edges: the base edges within copy 1, the cross edges u_{i-1}v_i / v_{i-1}u_i
    between consecutive copies for every base edge uv, and apex edges to every
    vertex of copy r. Yields r*n + 1 vertices and (2r-1)*m + n edges.

    Built from g's rows: copy i of v gets v's row shifted into copies i-1 and
    i+1 (copy 1 into itself and copy 2), and copy r also gets the apex.
    """
    if r < 2:
        raise ValueError(f"mycielski needs r >= 2, got {r}")
    layout = MycielskiLayout(g.n, r)
    _check_vertex_count(layout.total)
    n = g.n
    rows = [row | row << n for row in g.adj]
    for i in range(2, r):
        rows += [row << (i - 2) * n | row << i * n for row in g.adj]
    apex = 1 << layout.apex
    rows += [row << (r - 2) * n | apex for row in g.adj]
    rows.append(((1 << n) - 1) << (r - 1) * n)
    return Graph(layout.total, tuple(rows)), layout


def focalize(g: Graph, times: int = 1) -> Graph:
    """Iterated join with a single vertex; new focal vertices get the highest ids."""
    if times < 1:
        raise ValueError(f"focalize needs times >= 1, got {times}")
    _check_vertex_count(g.n + times)
    out = g
    for _ in range(times):
        out = join(out, Graph(1, (0,)))
    return out


def gen_family(spec: str) -> Graph:
    """Build a graph from a compact family descriptor.

    Grammar::

        complete:N | empty:N | path:N | cycle:N | star:N
        | multipartite:N1,N2,... | mycielski:<spec>:R | focalize:<spec>:T

    The mycielski/focalize forms nest, with their numeric parameter after the
    inner descriptor, e.g. ``mycielski:focalize:cycle:4:1:2``.
    """
    tokens = spec.split(":")
    graph, used = _parse_family(tokens)
    if used != len(tokens):
        raise ValueError(f"trailing tokens in family spec {spec!r}")
    return graph


def _parse_family(tokens: list[str]) -> tuple[Graph, int]:
    if not tokens or not tokens[0]:
        raise ValueError("empty family spec")
    head = tokens[0]
    simple = {
        "complete": complete_graph,
        "empty": empty_graph,
        "path": path_graph,
        "cycle": cycle_graph,
        "star": star_graph,
    }
    if head in simple:
        n = _parse_int(tokens, 1, head)
        return simple[head](n), 2
    if head == "multipartite":
        if len(tokens) < 2:
            raise ValueError("multipartite needs a part list")
        try:
            parts = [int(p) for p in tokens[1].split(",")]
        except ValueError:
            raise ValueError(f"bad multipartite part list {tokens[1]!r}") from None
        return complete_multipartite(parts), 2
    if head in ("mycielski", "focalize"):
        inner, used = _parse_family(tokens[1:])
        param = _parse_int(tokens, 1 + used, head)
        if head == "mycielski":
            return mycielski(inner, param)[0], used + 2
        return focalize(inner, param), used + 2
    raise ValueError(f"unknown family {head!r}")


def _parse_int(tokens: list[str], idx: int, head: str) -> int:
    if idx >= len(tokens):
        raise ValueError(f"{head} is missing its numeric parameter")
    try:
        return int(tokens[idx])
    except ValueError:
        raise ValueError(f"bad number {tokens[idx]!r} for {head}") from None
