import pytest

from boxicity.corpus import are_isomorphic
from boxicity.errors import CapacityError
from boxicity.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    focalize,
    gen_family,
    mycielski,
    path_graph,
    star_graph,
)
from boxicity.graphs import (
    Graph,
    focal_vertices,
    induced_subgraph,
    is_independent,
)


class TestFamilies:
    def test_balanced_bipartite_is_four_cycle(self):
        assert are_isomorphic(complete_multipartite([2, 2]), cycle_graph(4))

    def test_star(self):
        g = star_graph(3)
        assert g.n == 4
        assert g.edges() == [(0, 1), (0, 2), (0, 3)]

    def test_all_singleton_parts_give_complete(self):
        assert complete_multipartite([1] * 5) == complete_graph(5)

    def test_part_blocks_are_consecutive(self):
        g = complete_multipartite([2, 3])
        assert not g.has_edge(0, 1)
        assert is_independent(g, [2, 3, 4])
        assert g.has_edge(0, 2) and g.has_edge(1, 4)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            complete_multipartite([2, 0])
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            path_graph(0)

    def test_vertex_cap_at_the_boundary(self):
        # Each builder accepts its largest graph within MAX_VERTICES = 64 and
        # refuses one more vertex before it builds anything.
        builders = [
            (complete_graph, 64, 65),
            (empty_graph, 64, 65),
            (path_graph, 64, 65),
            (cycle_graph, 64, 65),
            (star_graph, 63, 64),
            (lambda n: complete_multipartite([n - 1, 1]), 64, 65),
            (lambda r: mycielski(complete_graph(3), r)[0], 21, 22),
            (lambda t: focalize(complete_graph(3), t), 61, 62),
        ]
        for build, fits, over in builders:
            assert build(fits).n == 64
            with pytest.raises(CapacityError, match="MAX_VERTICES=64"):
                build(over)
            with pytest.raises(CapacityError, match="MAX_VERTICES=64"):
                build(10**11)


class TestMycielski:
    def test_of_single_edge_is_five_cycle(self):
        # Expanding the definition for a single edge uv: vertices u1, v1, u2,
        # v2, z with edges u1v1, u1v2, v1u2, zu2, zv2 form a 5-cycle.
        myc, _ = mycielski(complete_graph(2), 2)
        assert myc.n == 5 and myc.num_edges() == 5
        assert are_isomorphic(myc, cycle_graph(5))

    def test_of_edgeless_is_star_plus_isolated(self):
        for n, r in [(3, 2), (2, 4)]:
            myc, layout = mycielski(empty_graph(n), r)
            assert sorted(myc.edges()) == sorted(
                (layout.copy(r, v), layout.apex) for v in range(n)
            )

    def test_of_four_cycle_size(self):
        myc, _ = mycielski(cycle_graph(4), 2)
        assert myc.n == 9 and myc.num_edges() == 16

    def test_size_formulas(self, graphs_by_n):
        for g in graphs_by_n[4]:
            for r in (2, 3):
                myc, _ = mycielski(g, r)
                assert myc.n == r * g.n + 1
                assert myc.num_edges() == (2 * r - 1) * g.num_edges() + g.n

    def test_first_copy_induces_base(self, graphs_by_n):
        for g in graphs_by_n[4]:
            myc, layout = mycielski(g, 3)
            assert induced_subgraph(myc, layout.copy_set(1)) == g

    def test_apex_adjacent_to_last_copy_exactly(self):
        g = path_graph(3)
        for r in (2, 3):
            myc, layout = mycielski(g, r)
            assert myc.adj[layout.apex] == sum(
                1 << layout.copy(r, v) for v in range(g.n)
            )

    def test_later_copies_independent(self, graphs_by_n):
        for g in graphs_by_n[3]:
            myc, layout = mycielski(g, 3)
            for i in (2, 3):
                assert is_independent(myc, layout.copy_set(i))

    def test_layout_ids(self):
        _, layout = mycielski(path_graph(3), 2)
        assert [layout.copy(1, v) for v in range(3)] == [0, 1, 2]
        assert [layout.copy(2, v) for v in range(3)] == [3, 4, 5]
        assert layout.apex == 6 and layout.total == 7

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            mycielski(path_graph(3), 1)

    def test_matches_edge_list_reference(self, graphs_by_n):
        # Reference from the definition: base edges in copy 1, u_{i-1}v_i and
        # v_{i-1}u_i for each base edge uv, the apex joined to copy r.
        def reference(g, r):
            n = g.n
            edges = list(g.edges())
            for i in range(2, r + 1):
                for u, v in g.edges():
                    edges += [((i - 2) * n + u, (i - 1) * n + v)]
                    edges += [((i - 2) * n + v, (i - 1) * n + u)]
            edges += [(r * n, (r - 1) * n + v) for v in range(n)]
            return Graph.from_edges(r * n + 1, edges)

        bases = [complete_graph(1)] + [g for n in range(1, 7) for g in graphs_by_n[n]]
        for g in bases:
            for r in (2, 3, 4):
                myc, layout = mycielski(g, r)
                assert myc == reference(g, r)
                assert (layout.base_n, layout.r) == (g.n, r)


class TestFocalize:
    def test_edgeless_becomes_star(self):
        assert are_isomorphic(focalize(empty_graph(4), 1), star_graph(4))

    def test_complete_grows(self):
        assert focalize(complete_graph(3), 1) == complete_graph(4)

    def test_focal_count_accumulates(self):
        assert len(focal_vertices(focalize(cycle_graph(4), 3))) == 3

    def test_new_vertices_get_highest_ids(self):
        g = focalize(cycle_graph(4), 2)
        assert focal_vertices(g) == {4, 5}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            focalize(path_graph(3), 0)


class TestGenFamily:
    def test_simple(self):
        assert gen_family("cycle:5") == cycle_graph(5)
        assert gen_family("multipartite:1,2,2") == complete_multipartite([1, 2, 2])
        assert gen_family("star:3") == star_graph(3)

    def test_nested(self):
        assert gen_family("mycielski:cycle:4:2") == mycielski(cycle_graph(4), 2)[0]
        assert gen_family("focalize:empty:3:2") == focalize(empty_graph(3), 2)
        nested = gen_family("mycielski:focalize:cycle:4:1:2")
        assert nested == mycielski(focalize(cycle_graph(4), 1), 2)[0]

    def test_rejects_malformed(self):
        for bad in ["", "hexagon:6", "cycle", "cycle:x", "cycle:4:7", "mycielski:cycle:4"]:
            with pytest.raises(ValueError):
                gen_family(bad)

    def test_single_vertex_is_smallest(self):
        assert gen_family("complete:1") == Graph(1, (0,))
        with pytest.raises(ValueError):
            gen_family("empty:0")
