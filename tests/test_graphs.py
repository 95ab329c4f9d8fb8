import random

import pytest

from boxicity.corpus import are_isomorphic
from boxicity.errors import CapacityError
from boxicity.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    mycielski,
    path_graph,
    star_graph,
)
from boxicity.graphs import (
    INFINITY,
    Graph,
    complement,
    disjoint_union,
    distance,
    focal_vertices,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_clique,
    is_independent,
    join,
    subgraph_distance,
    to_dot,
)


def d_graph(n):
    """Independent set 0..n-1, clique n..2n-1, perfect matching i -- n+i."""
    edges = [(i, n + i) for i in range(n)]
    edges += [(n + i, n + j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(2 * n, edges)


class TestConstruction:
    def test_validates_symmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, (0b01, 0b10))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_bad_rows_and_edges(self):
        with pytest.raises(ValueError, match="^adjacency row count does not match n$"):
            Graph(3, (0, 0))
        with pytest.raises(ValueError, match="^adjacency row 0 mentions vertices >= n$"):
            Graph(2, (4, 0))
        with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            Graph(65, (0,) * 65)
        # Refused before the rows are allocated.
        with pytest.raises(CapacityError, match="MAX_VERTICES=64"):
            Graph.from_edges(10**11, [])

    def test_edges_lexicographic(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2), (1, 3)]
        assert g.num_edges() == 3

    def test_equality_is_structural(self):
        assert cycle_graph(4) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete_graph(4)) == empty_graph(4)

    def test_involution_edge_for_edge(self, graphs_by_n):
        for g in graphs_by_n[5]:
            assert complement(complement(g)) == g

    def test_edge_counts_sum(self, graphs_by_n):
        for n in (4, 5, 6):
            for g in graphs_by_n[n]:
                assert g.num_edges() + complement(g).num_edges() == n * (n - 1) // 2

    def test_p4_self_complementary(self):
        assert are_isomorphic(complement(path_graph(4)), path_graph(4))


class TestInducedSubgraph:
    def test_three_consecutive_cycle_vertices(self):
        assert induced_subgraph(cycle_graph(5), [0, 1, 2]) == path_graph(3)

    def test_complete_subset(self):
        assert induced_subgraph(complete_graph(5), [1, 3, 4]) == complete_graph(3)

    def test_first_copy_of_mycielski(self):
        g = cycle_graph(4)
        myc, layout = mycielski(g, 2)
        assert induced_subgraph(myc, layout.copy_set(1)) == g

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(4), [])
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(4), [0, 7])

    def test_commutes_with_complement(self, graphs_by_n):
        rng = random.Random(11)
        for g in graphs_by_n[6][::7]:
            s = rng.sample(range(6), rng.randint(2, 5))
            assert complement(induced_subgraph(g, s)) == induced_subgraph(
                complement(g), s
            )


class TestDistance:
    def test_cycle_antipodes(self):
        assert distance(cycle_graph(6), 0, 3) == 3

    def test_same_vertex(self):
        assert distance(cycle_graph(6), 2, 2) == 0

    def test_disconnected_is_infinite(self):
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert distance(two_edges, 0, 2) == INFINITY
        assert distance(two_edges, 0, 2) > 10**9

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            distance(cycle_graph(4), 0, 4)


class TestSubgraphDistance:
    def test_overlap_is_zero(self):
        assert subgraph_distance(cycle_graph(6), [0, 1], [1, 2]) == 0

    def test_cycle_sets(self):
        assert subgraph_distance(cycle_graph(6), [0], [2, 3]) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            subgraph_distance(cycle_graph(6), [], [1])

    def test_focalized_mycielski_separation(self):
        # In the complement of the Mycielski graph of a focalized graph, the
        # non-focal first-copy vertices sit at distance >= 2 from the two
        # copies of the added focal vertex.
        base = cycle_graph(4)
        focal_id = base.n  # focalize appends the new vertex last
        myc, layout = mycielski(join(base, Graph(1, (0,))), 2)
        comp = complement(myc)
        h = [layout.copy(1, v) for v in range(base.n)]
        d = [layout.copy(1, focal_id), layout.copy(2, focal_id)]
        assert subgraph_distance(comp, h, d) >= 2


class TestFocalVertices:
    def test_complete(self):
        assert focal_vertices(complete_graph(5)) == set(range(5))

    def test_star_center(self):
        assert focal_vertices(star_graph(3)) == {0}

    def test_cycle_has_none(self):
        assert focal_vertices(cycle_graph(4)) == set()

    def test_single_vertex_is_focal(self):
        assert focal_vertices(Graph(1, (0,))) == {0}

    def test_equals_isolated_vertices_of_complement(self, graphs_by_n):
        for g in graphs_by_n[5]:
            comp = complement(g)
            isolated = {v for v in range(g.n) if comp.adj[v] == 0}
            assert focal_vertices(g) == isolated


class TestCliqueIndependent:
    def test_complete_subsets(self):
        g = complete_graph(5)
        assert is_clique(g, [0, 2, 4])
        assert not is_independent(g, [0, 2])

    def test_small_sets_vacuous(self):
        g = cycle_graph(4)
        assert is_clique(g, [])
        assert is_clique(g, [2])
        assert is_independent(g, [2])

    def test_matching_structure_sides(self):
        g = d_graph(3)
        assert is_independent(g, [0, 1, 2])
        assert is_clique(g, [3, 4, 5])


class TestUnionJoin:
    def test_two_singletons(self):
        assert disjoint_union(Graph(1, (0,)), Graph(1, (0,))) == empty_graph(2)

    def test_join_of_edgeless_pairs_is_four_cycle(self):
        assert are_isomorphic(join(empty_graph(2), empty_graph(2)), cycle_graph(4))

    def test_join_with_singleton_is_focalization(self):
        g = cycle_graph(4)
        joined = join(Graph(1, (0,)), g)
        assert are_isomorphic(joined, join(g, Graph(1, (0,))))

    def test_de_morgan(self, graphs_by_n):
        for g in graphs_by_n[3]:
            for h in graphs_by_n[2]:
                assert join(g, h) == complement(
                    disjoint_union(complement(g), complement(h))
                )


class TestGraph6:
    def test_known_strings(self):
        assert graph6_encode(complete_graph(2)) == "A_"
        assert graph6_encode(complete_graph(3)) == "Bw"
        assert graph6_encode(complete_graph(4)) == "C~"
        assert graph6_decode("Bw") == complete_graph(3)

    def test_round_trip_corpus(self, graphs_by_n):
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                assert graph6_decode(graph6_encode(g)) == g

    def test_large_n_header(self):
        g = empty_graph(63)
        assert graph6_encode(g).startswith("~")
        assert graph6_decode(graph6_encode(g)) == g
        star64 = Graph.from_edges(64, [(0, i) for i in range(1, 64)])
        assert graph6_decode(graph6_encode(star64)) == star64

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph6_decode("")
        with pytest.raises(ValueError):
            graph6_decode("B")  # missing body
        with pytest.raises(ValueError):
            graph6_decode("A" + chr(50))  # byte below the graph6 range
        for text, message in (
            ("~??", "truncated graph6 header"),
            ("~\x1f??", "invalid graph6 header byte"),
            ("?", "graph6 vertex count 0 unsupported"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                graph6_decode(text)

    def test_rejects_nonzero_padding(self):
        # n=2 has one data bit; the remaining five padding bits must be zero.
        with pytest.raises(ValueError, match="padding"):
            graph6_decode("A" + chr(63 + 0b111111))

    def test_agrees_with_networkx(self, graphs_by_n):
        nx = pytest.importorskip("networkx")
        for n in (3, 5, 6):
            for g in graphs_by_n[n]:
                text = graph6_encode(g)
                other = nx.from_graph6_bytes(text.encode())
                assert sorted(other.edges()) == g.edges()
                back = nx.to_graph6_bytes(other, header=False).decode().strip()
                assert back == text


def test_dot_output():
    assert to_dot(path_graph(3)) == (
        "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    )
