import hashlib
import itertools
import random

import pytest

from boxicity import intervals
from boxicity.errors import CapacityError, NotIntervalError, SelfCheckError
from boxicity.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    mycielski,
    path_graph,
)
from boxicity.graphs import (
    Graph,
    complement,
    disjoint_union,
    graph6_encode,
    induced_subgraph,
)
from boxicity.intervals import (
    IntervalRep,
    _decide,
    _has_asteroidal_triple,
    _interval_order,
    _is_interval_masks,
    chordal_at_free_oracle,
    interval_representation,
    is_cointerval,
    is_interval,
    maximal_cliques,
    verify_interval_representation,
)


def perfect_matching(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)])


def spider(legs):
    """A centre (vertex 0) with one path per entry of ``legs`` hanging off it."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph.from_edges(nxt, edges)


def caterpillar(spine, leaves):
    """A path of ``spine`` vertices with ``leaves`` pendant vertices on each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        edges += [(i, spine + i * leaves + j) for j in range(leaves)]
    return Graph.from_edges(spine * (leaves + 1), edges)


def brute_has_asteroidal_triple(g):
    """The asteroidal-triple definition, one breadth-first search per pair of
    a triple: three pairwise non-adjacent vertices, each pair joined by a path
    that avoids the third vertex's closed neighbourhood."""

    def joined(src, dst, avoid):
        if (avoid >> src | avoid >> dst) & 1:
            return False
        seen = frontier = 1 << src
        while frontier:
            nxt = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    nxt |= g.adj[v]
            frontier = nxt & ~seen & ~avoid
            if frontier >> dst & 1:
                return True
            seen |= frontier
        return False

    for a, b, c in itertools.combinations(range(g.n), 3):
        if (g.adj[a] >> b | g.adj[a] >> c | g.adj[b] >> c) & 1:
            continue
        if (
            joined(a, b, g.adj[c] | 1 << c)
            and joined(a, c, g.adj[b] | 1 << b)
            and joined(b, c, g.adj[a] | 1 << a)
        ):
            return True
    return False


def reconstruct(rep, n):
    """Intersection graph of an interval representation (test oracle)."""
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if max(rep.intervals[u][0], rep.intervals[v][0])
        <= min(rep.intervals[u][1], rep.intervals[v][1])
    ]
    return Graph.from_edges(n, edges)


class TestMaximalCliques:
    def test_complete(self):
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_four_cycle_gives_edges(self):
        assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_path(self):
        assert maximal_cliques(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]

    def test_cap(self):
        # The complement of a perfect matching on 26 vertices has 2^13 = 8192
        # maximal cliques, one vertex from each non-edge.
        with pytest.raises(CapacityError, match="MAX_CLIQUES"):
            maximal_cliques(complement(perfect_matching(26)))


class TestIsInterval:
    def test_path_is_interval(self):
        result = is_interval(path_graph(4))
        assert result.interval and result.verdict == "interval"
        assert result.clique_order == ((0, 1), (1, 2), (2, 3))

    def test_four_cycle_is_not(self):
        result = is_interval(cycle_graph(4))
        assert not result.interval and result.verdict == "not-interval"
        assert result.reason

    def test_mycielski_of_path_is_not(self):
        myc, _ = mycielski(path_graph(4), 2)
        assert not is_interval(myc).interval

    def test_witness_order_is_consecutive(self, graphs_by_n):
        for g in graphs_by_n[5]:
            result = is_interval(g)
            if not result.interval:
                continue
            seen_done = set()
            prev = set()
            for clique in result.clique_order:
                now = set(clique)
                assert not (now & seen_done)
                seen_done |= prev - now
                prev = now


class TestIntervalRepresentation:
    def test_complete_shares_a_point(self):
        rep = interval_representation(complete_graph(5))
        assert rep.intervals == ((0, 0),) * 5

    def test_edgeless_spreads_out(self):
        rep = interval_representation(empty_graph(4))
        assert rep.intervals == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_path_matches_clique_indices(self):
        rep = interval_representation(path_graph(4))
        assert rep.intervals == ((0, 0), (0, 1), (1, 2), (2, 2))

    def test_reconstruction_exhaustive(self, graphs_by_n):
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                if not is_interval(g).interval:
                    continue
                rep = interval_representation(g)
                assert reconstruct(rep, n) == g
                cliques = maximal_cliques(g)
                for lo, hi in rep.intervals:
                    assert 0 <= lo <= hi <= 2 * len(cliques)

    def test_rejects_non_interval(self):
        with pytest.raises(NotIntervalError):
            interval_representation(cycle_graph(4))

    def test_serialization(self):
        text = interval_representation(path_graph(3)).to_text()
        assert text == "0 0 0\n1 0 1\n2 1 1\n"

    def test_trees_up_to_64_vertices_without_the_clique_search(self, monkeypatch):
        # The layout comes from an orientation of the complement, so no clique
        # is listed or ordered; is_interval's clique-order search gives no
        # answer within 20 s on the 20-vertex caterpillar.
        def fail(*args):
            raise AssertionError("the layout ran the clique search")

        monkeypatch.setattr(intervals, "_consecutive_order", fail)
        monkeypatch.setattr(intervals, "_maximal_cliques_masks", fail)
        trees = [caterpillar(spine, leaves) for spine, leaves in (
            (10, 1), (12, 1), (20, 1), (32, 1), (21, 2), (16, 3), (8, 7))]
        trees += [spider(legs) for legs in ([1] * 63, [1, 1, 61], [1, 2, 30], [2])]
        assert max(g.n for g in trees) == 64
        for g in trees:
            assert reconstruct(interval_representation(g), g.n) == g

    def test_one_orientation(self, orientation_calls):
        # The interval order that decides the complement cointerval is the
        # layout: the complement is oriented once.
        g = caterpillar(12, 1)
        assert reconstruct(interval_representation(g), g.n) == g
        assert orientation_calls == [24]
        # An induced 4-cycle rejects before any orientation: C4, K_{2,3},
        # and an interval graph less the edge 0-1, whose ends keep the two
        # non-adjacent common neighbours 2 and 3.
        ivs = ((0, 4), (2, 6), (2, 2), (3, 4), (5, 8), (7, 9), (0, 1))
        g = reconstruct(IntervalRep(ivs), len(ivs))
        cut = Graph.from_edges(g.n, [e for e in g.edges() if e != (0, 1)])
        orientation_calls.clear()
        for h in (cycle_graph(4), complete_multipartite([2, 3]), cut):
            with pytest.raises(NotIntervalError):
                interval_representation(h)
        assert orientation_calls == []
        # An accepted graph is decided by one orientation of its complement,
        # and the clique-order witness orients nothing.
        assert is_interval(g).interval
        assert orientation_calls == [7]


class TestVerifyIntervalRepresentation:
    def test_matches_reconstruction_on_corpus_and_mutations(self, graphs_by_n):
        # Every witness with up to 6 vertices and each single-endpoint +-1
        # move of it: accepted exactly when its intersection graph is g.
        count = rejected = 0

        def check(g, moved):
            nonlocal count, rejected
            rep = interval_representation(g)
            reps = [rep]
            for v in moved:
                for end in (0, 1):
                    for delta in (-1, 1):
                        ivs = list(rep.intervals)
                        ends = list(ivs[v])
                        ends[end] += delta
                        ivs[v] = tuple(ends)
                        reps.append(IntervalRep(tuple(ivs)))
            for r in reps:
                verdict = verify_interval_representation(g, r)
                well_formed = all(lo <= hi for lo, hi in r.intervals)
                assert verdict.ok == (well_formed and reconstruct(r, g.n) == g)
                count += 1
                rejected += not verdict.ok

        for n in range(1, 7):
            for g in graphs_by_n[n]:
                if is_interval(g).interval:
                    check(g, range(n))
        assert (count, rejected) == (3112, 2315)
        # At full size: the 64-vertex caterpillar's witness and the moves of
        # the spine's two ends and middle pair and of their leaves.
        count = rejected = 0
        check(caterpillar(32, 1), (0, 15, 16, 31, 32, 47, 48, 63))
        assert (count, rejected) == (33, 28)

    def test_messages(self):
        g = path_graph(3)
        cases = [
            (((0, 0), (0, 1)), "2 intervals for 3 vertices"),
            (((0, 0), (1, 0), (1, 1)), "vertex 1 has an empty interval"),
            (((0, 0), (1, 2), (2, 2)), "intervals of 0 and 1 disagree with adjacent pair"),
            (((0, 1), (1, 1), (1, 2)), "intervals of 0 and 2 disagree with non-adjacent pair"),
        ]
        for intervals_, reason in cases:
            assert verify_interval_representation(g, IntervalRep(intervals_)).reason == reason
        assert verify_interval_representation(g, IntervalRep(((0, 0), (0, 1), (1, 1)))).ok


class TestHereditary:
    def test_induced_subgraphs_stay_interval(self, graphs_by_n):
        rng = random.Random(23)
        interval_graphs = [g for g in graphs_by_n[6] if is_interval(g).interval]
        for g in interval_graphs[::3]:
            for _ in range(4):
                s = rng.sample(range(6), rng.randint(1, 5))
                assert is_interval(induced_subgraph(g, s)).interval


class TestCointerval:
    def test_edgeless_is_cointerval(self):
        assert is_cointerval(empty_graph(5))

    def test_two_disjoint_edges_are_not(self):
        # Complement of the two disjoint edges is the 4-cycle, not interval.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert complement(g) == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert not is_cointerval(g)

    def test_perfect_matchings_are_not(self):
        # The complements have far more maximal cliques than vertices, so
        # recognition rejects them without enumerating all cliques.
        for n in (26, 64):
            m = perfect_matching(n)
            assert not is_interval(complement(m)).interval
            assert is_cointerval(m) is False

    def test_isolated_vertices_do_not_matter(self, graphs_by_n):
        for g in graphs_by_n[4]:
            padded = disjoint_union(g, empty_graph(2))
            assert is_cointerval(padded) == is_cointerval(g)

    def test_decides_without_a_witness(self, monkeypatch):
        # Complements of interval caterpillars are cointerval; answering must
        # not run the exponential clique-order search.
        def fail(cliques):
            raise AssertionError("is_cointerval ran the clique-order search")

        monkeypatch.setattr(intervals, "_consecutive_order", fail)
        for spine in (10, 32):
            assert is_cointerval(complement(caterpillar(spine, 1))) is True

    def test_matches_oracle_on_corpus(self, graphs_by_n):
        # The chain test against the independent recognizer, which shares no
        # code with the orientation, run on the complement.
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                cointerval = _interval_order(g.adj) is not None
                assert cointerval == chordal_at_free_oracle(complement(g))

    def test_only_the_chain_test_rejects(self):
        # 2K2, P5 and C6 are bipartite, so transitively orientable, and each
        # holds an induced pair of independent edges: the orientation exists,
        # and its predecessor sets are not nested.
        for g in (perfect_matching(4), path_graph(5), cycle_graph(6)):
            assert intervals._transitive_orientation(g.n, g.adj) is not None
            assert _interval_order(g.adj) is None
            assert not chordal_at_free_oracle(complement(g))


class TestOracle:
    def test_paths_pass(self):
        for n in (1, 2, 5, 8):
            assert chordal_at_free_oracle(path_graph(n))

    def test_four_cycle_fails_chordality(self):
        assert not chordal_at_free_oracle(cycle_graph(4))

    def test_asteroidal_triple_detected(self):
        # The net (a triangle with one pendant vertex per corner) is chordal,
        # but its three leaves form an asteroidal triple.
        net = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
        )
        assert not chordal_at_free_oracle(net)
        assert not is_interval(net).interval

    def test_asteroidal_triples_match_definition_small(self, graphs_by_n):
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                assert _has_asteroidal_triple(g) == brute_has_asteroidal_triple(g)

    def test_asteroidal_triples_match_definition_on_trees(self):
        # Spiders with three legs of length at least 2 and caterpillars with a
        # lengthened leaf have an asteroidal triple; caterpillars have none.
        trees = [spider(legs) for legs in itertools.combinations_with_replacement(
            (1, 2, 3, 5, 9), 3)]
        trees += [spider([2, 2, 2, 2]), spider([7, 7, 7, 7]), spider([1] * 29)]
        for spine, leaves in ((1, 0), (2, 1), (5, 1), (14, 1), (15, 1), (9, 2), (7, 3)):
            g = caterpillar(spine, leaves)
            trees.append(g)
            if spine >= 3 and g.n < 30:
                # Lengthen the first leaf of spine vertex 1 by one edge.
                trees.append(Graph.from_edges(
                    g.n + 1, g.edges() + [(spine + leaves, g.n)]))
        assert max(g.n for g in trees) == 30
        for g in trees:
            assert _has_asteroidal_triple(g) == brute_has_asteroidal_triple(g)

    def test_matches_recognizer_small(self, graphs_by_n):
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                want = chordal_at_free_oracle(g)
                assert _is_interval_masks(g.n, g.adj) == want
                assert is_interval(g).interval == want
                assert is_cointerval(complement(g)) == want
                try:
                    interval_representation(g)
                except NotIntervalError:
                    assert not want
                else:
                    assert want
                assert is_cointerval(g) == chordal_at_free_oracle(complement(g))


class TestDecision:
    """The polynomial decision against the independent oracle. ``is_interval``
    builds a witness with the exponential clique-order search on accepted
    graphs, so on interval caterpillars it is compared up to 12 vertices only;
    a 20-vertex caterpillar already takes it over 20 s."""

    def test_spiders_up_to_64_vertices(self):
        for legs in ([2, 2, 2], [1, 1, 5], [1, 2, 9], [5, 5, 5], [10, 10, 10],
                     [20, 20, 20], [1, 1, 61], [21, 21, 21]):
            g = spider(legs)
            want = chordal_at_free_oracle(g)
            assert _is_interval_masks(g.n, g.adj) == want
            assert is_interval(g).interval == want

    def test_caterpillars_up_to_64_vertices(self):
        for spine, leaves in ((2, 1), (4, 1), (6, 1), (3, 3), (16, 3)):
            g = caterpillar(spine, leaves)
            assert chordal_at_free_oracle(g)
            assert _is_interval_masks(g.n, g.adj)
            if g.n <= 12:
                assert is_interval(g).interval
        # Lengthening the leaf of spine vertex 10 leaves a tree that is no
        # caterpillar: its end and the two end leaves are an asteroidal triple.
        g = Graph.from_edges(63, caterpillar(31, 1).edges() + [(41, 62)])
        assert not chordal_at_free_oracle(g)
        assert not _is_interval_masks(g.n, g.adj)
        assert not is_interval(g).interval

    def test_random_graphs_up_to_20_vertices(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.randint(1, 20)
            p = rng.random()
            g = Graph.from_edges(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            want = chordal_at_free_oracle(g)
            assert _is_interval_masks(g.n, g.adj) == want
            assert is_interval(g).interval == want

    def test_c4_reason_iff_brute_force_c4(self, graphs_by_n):
        # The reason contract: "induced 4-cycle" exactly when some 4 vertices
        # induce a 2-regular graph, which on 4 vertices is the 4-cycle.
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                has_c4 = any(
                    all((g.adj[v] & sum(1 << u for u in quad)).bit_count() == 2
                        for v in quad)
                    for quad in itertools.combinations(range(n), 4)
                )
                assert (_decide(g.n, g.adj)[0] == "induced 4-cycle") == has_c4

    def test_reasons_digest_pinned(self, graphs_by_n):
        # Every graph with up to 7 vertices: the decision's reason, or None.
        digest = hashlib.sha256()
        count = 0
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                digest.update(f"{graph6_encode(g)}|{_decide(g.n, g.adj)[0]}\n".encode())
                count += 1
        assert count == 1252
        assert digest.hexdigest() == (
            "b1e5341d2dbc9334e6b2b4c474fc5b4f360b4f6f3cd29b9a1ceafc1d19c7dab5"
        )

    def test_recognition_digest_pinned(self, graphs_by_n):
        # Every graph with up to 7 vertices: verdict, reason and clique order.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                r = is_interval(g)
                digest.update(
                    f"{graph6_encode(g)}|{r.verdict}|{r.reason}|{r.clique_order}\n".encode()
                )
        assert digest.hexdigest() == (
            "c781d5f2175ca81104600fb48d0d7b83f1fe4195aafec620c839c67bf01adb3e"
        )

    def test_cointerval_digest_pinned(self, graphs_by_n):
        # Every graph with up to 7 vertices: the cointervality decision.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                cointerval = _interval_order(g.adj) is not None
                digest.update(f"{graph6_encode(g)}|{cointerval}\n".encode())
        assert digest.hexdigest() == (
            "0ae313671fbe2ed125872cdd4089ba35dca2fb6e69bbdfcc57ae8202e88830ba"
        )

    def test_balanced_spider_61(self):
        # Legs of 20: the three leg ends form an asteroidal triple. Deciding
        # by clique-order search alone gave no answer in 100 s at 19 vertices.
        result = is_interval(spider([20, 20, 20]))
        assert result.verdict == "not-interval"
        assert result.reason == "complement not transitively orientable"

    def test_reasons(self):
        assert is_interval(cycle_graph(4)).reason == "induced 4-cycle"
        assert is_interval(complete_multipartite([2, 3])).reason == "induced 4-cycle"
        assert is_interval(cycle_graph(5)).reason == (
            "complement not transitively orientable"
        )
        assert is_interval(path_graph(5)).reason is None


class TestWitnessSelfCheck:
    def test_missing_clique_order_raises(self, monkeypatch):
        monkeypatch.setattr(intervals, "_consecutive_order", lambda cliques: None)
        with pytest.raises(SelfCheckError):
            is_interval(path_graph(5))
        # An orientation that orients no edge is a chain of one empty
        # predecessor set: it accepts C5 and lays every vertex out at one point.
        monkeypatch.setattr(intervals, "_transitive_orientation", lambda n, rows: [0] * n)
        with pytest.raises(SelfCheckError, match="failed verification"):
            interval_representation(cycle_graph(5))

    def test_unverified_witness_raises(self, monkeypatch):
        # A layout that moves the last vertex off its neighbour is caught
        # before it returns.
        layout = intervals._order_layout
        monkeypatch.setattr(
            intervals, "_order_layout",
            lambda order: IntervalRep(layout(order).intervals[:-1] + ((9, 9),)),
        )
        with pytest.raises(SelfCheckError, match="intervals of 3 and 4 disagree with adjacent"):
            interval_representation(path_graph(5))

    def test_too_many_cliques_raises(self, monkeypatch):
        monkeypatch.setattr(intervals, "_maximal_cliques_masks", lambda *args: None)
        with pytest.raises(SelfCheckError):
            is_interval(path_graph(5))

    def test_rejection_runs_no_search(self, monkeypatch):
        def fail(cliques):
            raise AssertionError("clique-order search ran on a rejected graph")

        monkeypatch.setattr(intervals, "_consecutive_order", fail)
        assert not is_interval(spider([2, 2, 2])).interval
        with pytest.raises(NotIntervalError):
            interval_representation(cycle_graph(5))
