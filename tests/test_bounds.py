import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from boxicity import bounds, constructions, engine
from boxicity.errors import CapacityError, SelfCheckError
from boxicity.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    focalize,
    mycielski,
    path_graph,
    star_graph,
)
from boxicity.graphs import complement, graph6_encode, is_clique
from boxicity.engine import exact_boxicity
from boxicity.bounds import (
    BoundsReport,
    CliqueCover,
    chromatic_number,
    compute_bounds_report,
    edge_clique_cover,
    multipartite_mycielski_bounds,
    mycielski_kn_boxicity,
    mycielski_lower_bound,
    mycielski_upper_bound,
    thm11_upper,
    verify_clique_cover,
)


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


class TestEdgeCliqueCover:
    def test_complete(self):
        theta, cover = edge_clique_cover(complete_graph(6))
        assert theta == 1 and cover.cliques == ((0, 1, 2, 3, 4, 5),)

    def test_triangle_free_needs_all_edges(self):
        theta, _ = edge_clique_cover(path_graph(4))
        assert theta == 3

    def test_edgeless_is_zero(self):
        for n in (4, 64):
            theta, cover = edge_clique_cover(empty_graph(n))
            assert theta == 0 and cover.cliques == ()

    def test_complement_of_multipartite_identity(self):
        # The complement splits into one clique per part, so the cover number
        # is the number of parts of size at least 2.
        for n in range(2, 7):
            for parts in partitions(n):
                g = complete_multipartite(parts)
                theta, cover = edge_clique_cover(complement(g))
                singles = sum(1 for p in parts if p == 1)
                assert theta == len(parts) - singles
                assert verify_clique_cover(complement(g), cover).ok

    def test_covers_verify(self, graphs_by_n):
        for g in graphs_by_n[5]:
            _, cover = edge_clique_cover(g)
            assert verify_clique_cover(g, cover).ok
            for clique in cover.cliques:
                assert is_clique(g, clique)

    def test_rejected_cover_reasons_digest(self, graphs_by_n):
        # Pins every verdict and reason string on three broken covers of each
        # complement: a clique dropped, a non-clique pair added, wrong host.
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 7):
            for g in graphs_by_n[n]:
                host = complement(g)
                _, cc = edge_clique_cover(host)
                checks = []
                if cc.cliques:
                    checks.append(("drop", CliqueCover(host, cc.cliques[1:])))
                if g.edges():
                    extra = cc.cliques + (g.edges()[0],)
                    checks.append(("foreign", CliqueCover(host, extra)))
                checks.append(("host", CliqueCover(g, cc.cliques)))
                for tag, cover in checks:
                    verdict = verify_clique_cover(host, cover)
                    line = f"{graph6_encode(g)}|{tag}|{verdict.ok}|{verdict.reason}\n"
                    digest.update(line.encode())
                    count += 1
        assert count == 611
        assert digest.hexdigest() == (
            "7264549657e3bf796d237a6c9fe740c0d6b25d9bb1b1a937c9c00eef494756be"
        )

    def test_exact_on_corpus(self, graphs_by_n):
        # Independent oracle: try every family of up to theta-1 maximal
        # cliques and confirm none covers all edges.
        from boxicity.intervals import maximal_cliques

        for g in graphs_by_n[5][::3]:
            theta, _ = edge_clique_cover(g)
            if theta <= 1:
                continue
            edges = set(g.edges())
            cliques = maximal_cliques(g)
            clique_edges = [
                {tuple(sorted(p)) for p in combinations(c, 2)} for c in cliques
            ]
            for k in range(1, theta):
                for combo in combinations(clique_edges, k):
                    assert set().union(*combo) != edges

    def test_capacity(self):
        with pytest.raises(CapacityError):
            edge_clique_cover(complete_graph(10))


class TestChromaticNumber:
    def test_complete(self):
        assert chromatic_number(complete_graph(6)) == 6

    def test_odd_cycle(self):
        assert chromatic_number(cycle_graph(5)) == 3

    def test_bipartite(self):
        assert chromatic_number(complete_multipartite([3, 3])) == 2

    def test_edgeless(self):
        for n in (5, 16):
            assert chromatic_number(empty_graph(n)) == 1

    def test_exhaustive_oracle_agreement(self, graphs_by_n):
        # Independent check: no proper coloring with chi-1 colors exists, and
        # one with chi colors does.
        import itertools

        def proper_exists(g, k):
            return any(
                all(c[u] != c[v] for u, v in g.edges())
                for c in itertools.product(range(k), repeat=g.n)
            )

        for g in graphs_by_n[4]:
            chi = chromatic_number(g)
            assert proper_exists(g, chi)
            if chi > 1:
                assert not proper_exists(g, chi - 1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            chromatic_number(empty_graph(17))


class TestMycielskiChromaticStep:
    def test_small_connected(self, connected_by_n):
        for n in range(1, 5):
            for g in connected_by_n[n]:
                myc, _ = mycielski(g, 2)
                assert chromatic_number(myc) == chromatic_number(g) + 1


class TestMycielskiCompleteFormula:
    def test_table(self):
        assert [mycielski_kn_boxicity(n) for n in range(1, 7)] == [1, 2, 2, 3, 3, 4]

    def test_degenerate_single_vertex(self):
        myc, _ = mycielski(complete_graph(1), 2)
        assert exact_boxicity(myc).value == 1 == mycielski_kn_boxicity(1)

    def test_matches_engine(self):
        for n in (2, 3):
            myc, _ = mycielski(complete_graph(n), 2)
            assert exact_boxicity(myc).value == mycielski_kn_boxicity(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mycielski_kn_boxicity(0)


class TestMycielskiLowerBound:
    def test_no_focal_vertices(self):
        assert mycielski_lower_bound(cycle_graph(4)) == 2

    def test_two_focalizations(self):
        assert mycielski_lower_bound(focalize(cycle_graph(4), 2)) == 3

    def test_star(self):
        assert mycielski_lower_bound(star_graph(3)) == 2

    def test_single_vertex(self):
        assert mycielski_lower_bound(complete_graph(1)) == 1

    def test_holds_for_three_copies(self):
        # The lower bound is independent of the copy count; check it against
        # exact values of three-copy Mycielski graphs of complete graphs.
        for n, cap in [(1, 24), (2, 24), (3, 27)]:
            myc, _ = mycielski(complete_graph(n), 3)
            lb = mycielski_lower_bound(complete_graph(n), 3)
            assert lb <= exact_boxicity(myc, max_complement_edges=cap).value

    def test_rejects_single_copy(self):
        with pytest.raises(ValueError):
            mycielski_lower_bound(cycle_graph(4), 1)

    def test_focal_count_checks_closed_rows(self, monkeypatch):
        # Two focal vertices: each closed row is full. A focal reading that
        # misses them contradicts the rows.
        g = focalize(cycle_graph(4), 2)
        assert bounds._focal_count(g) == 2
        monkeypatch.setattr(bounds, "focal_vertices", lambda g: set())
        with pytest.raises(SelfCheckError, match="focal vertices differ"):
            bounds._focal_count(g)


class TestMycielskiUpperBound:
    def test_four_cycle(self):
        assert mycielski_upper_bound(cycle_graph(4)) == 2

    def test_star(self):
        assert mycielski_upper_bound(star_graph(3)) == 2

    def test_complete_four(self):
        assert mycielski_upper_bound(complete_graph(4)) == 3

    def test_sandwich_where_computable(self, graphs_by_n):
        for n in range(1, 5):
            for g in graphs_by_n[n]:
                myc, _ = mycielski(g, 2)
                if complement(myc).num_edges() > 24:
                    continue
                value = exact_boxicity(myc).value
                assert mycielski_lower_bound(g) <= value <= mycielski_upper_bound(g)


class TestMultipartiteBounds:
    def test_balanced_pairs(self):
        b = multipartite_mycielski_bounds([2, 2])
        assert (b.lower, b.upper, b.exact) == (2, 2, 2)

    def test_one_singleton(self):
        b = multipartite_mycielski_bounds([2, 2, 1])
        assert (b.lower, b.upper, b.exact) == (3, 3, 3)

    def test_two_singletons_leave_a_gap(self):
        b = multipartite_mycielski_bounds([1, 1, 2])
        assert (b.lower, b.upper, b.exact) == (2, 3, None)

    def test_exact_values_match_engine_small(self):
        checked = []
        for parts in ([1, 1], [2, 1], [2, 2], [1, 1, 1], [1, 1, 1, 1]):
            b = multipartite_mycielski_bounds(parts)
            if b.exact is None:
                continue
            myc, _ = mycielski(complete_multipartite(parts), 2)
            if complement(myc).num_edges() <= 24:
                assert exact_boxicity(myc).value == b.exact
                checked.append(parts)
        # C5, the Mycielski graph of K2, and M(K4), 14 complement edges and
        # boxicity 3, have an exact value because every part is a singleton.
        assert [1, 1] in checked and [1, 1, 1, 1] in checked

    def test_complete_graphs_are_exact(self):
        for n in range(1, 9):
            b = multipartite_mycielski_bounds([1] * n)
            assert b.exact == mycielski_kn_boxicity(n)
            assert b.lower <= b.exact <= b.upper
            if n % 2 == 0:
                assert b.exact == b.upper

    def test_lower_and_exact_digest_pinned(self):
        # (parts, lower, exact) on all 271 partitions with up to 12 vertices.
        digest = hashlib.sha256()
        for n in range(1, 13):
            for parts in partitions(n):
                b = multipartite_mycielski_bounds(parts)
                digest.update(f"{parts},{b.lower},{b.exact}\n".encode())
        assert digest.hexdigest() == (
            "0b884b0c1ab168eac85f879a767fd2cbde0d4dd54571b79024e3c9cd96776de4"
        )

    def test_upper_meets_exact(self):
        # Thm 4.2 gives the upper bound, so it is the exact value wherever
        # one is known: K_{2,1,1,1} has lower bound 3 and boxicity 3.
        for n in range(1, 13):
            for parts in partitions(n):
                b = multipartite_mycielski_bounds(parts)
                assert b.lower <= b.upper
                if b.exact is not None:
                    assert b.upper == b.exact, parts

    def test_odd_singletons_match_engine(self):
        # 23 and 36 complement edges: the second is over the default cap.
        for parts in ([2, 1, 1, 1], [3, 1, 1, 1]):
            myc, _ = mycielski(complete_multipartite(parts), 2)
            b = multipartite_mycielski_bounds(parts)
            assert exact_boxicity(myc, max_complement_edges=36).value == 3 == b.upper

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            multipartite_mycielski_bounds([])
        with pytest.raises(ValueError):
            multipartite_mycielski_bounds([2, 0])


def thm11_holds(g):
    return exact_boxicity(g).value <= thm11_upper(g.n, chromatic_number(g))


class TestChromaticBoxicity:
    def test_tight_octahedron(self):
        g = complete_multipartite([2, 2, 2])
        assert chromatic_number(g) == 3
        assert exact_boxicity(g).value == 3 == thm11_upper(6, 3)

    def test_complete(self):
        g = complete_graph(4)
        assert chromatic_number(g) == 4 and thm11_upper(4, 4) == 2
        assert thm11_holds(g)

    def test_small_corpus(self, graphs_by_n):
        for n in range(1, 5):
            for g in graphs_by_n[n]:
                assert thm11_holds(g)

    def test_thm11_upper_matches_fraction_reference(self):
        # The integer formula against the two rational readings of Thm 1.1:
        # the floor of n/2 - n/(2 chi) + 1, and chi >= n/(2s+2) for a
        # boxicity n/2 - s with s >= 0.
        for n in range(1, 65):
            for chi in range(1, n + 1):
                bound = thm11_upper(n, chi)
                assert bound == int(Fraction(n, 2) - Fraction(n, 2 * chi) + 1)
                for box in range(n // 2 + 1):
                    s = Fraction(n, 2) - box
                    assert (box <= bound) == (chi >= Fraction(n) / (2 * s + 2))


class TestBoundsReport:
    def test_example_row(self):
        report = compute_bounds_report(complete_multipartite([1, 1, 2]))
        assert max(v for v, _ in report.lower) == 2
        assert min(v for v, _ in report.upper) == 3
        tags = {tag for _, tag in report.lower} | {tag for _, tag in report.upper}
        assert tags == {"cor3.6", "lemma3.3", "thm4.2", "roberts-floor-n/2", "thm1.1"}

    def test_complement_of_g_built_once(self, connected_by_n, monkeypatch):
        """g's complement is built once per report, counted across modules:
        by the engine as its result's host, which the clique cover reads,
        or, when the engine refuses g (a cap of 0), by the Thm 4.2 branch.
        At r = 3 the engine alone needs it."""
        calls = Counter()

        def counting(fn):
            def wrapped(g, *args, **kwargs):
                calls[g] += 1
                return fn(g, *args, **kwargs)

            return wrapped

        for module in (bounds, constructions, engine):
            monkeypatch.setattr(module, "complement", counting(module.complement))
        default = engine.DEFAULT_COMPLEMENT_EDGE_CAP
        for r, cap in ((2, default), (3, default), (2, 0)):
            for n in range(1, 7):
                for g in connected_by_n[n]:
                    calls.clear()
                    compute_bounds_report(g, r, max_complement_edges=cap)
                    assert calls[g] == 1, (r, cap, graph6_encode(g))

    def test_exact_inside_bounds(self, graphs_by_n):
        for g in graphs_by_n[3]:
            report = compute_bounds_report(g, include_exact=True)
            assert report.exact is not None
            lo = max(v for v, _ in report.lower)
            hi = min(v for v, _ in report.upper)
            assert lo <= report.exact <= hi

    def test_over_chromatic_cap_drops_only_thm11(self):
        # K17 is over the chromatic-number cap, so Thm 1.1 is left out at
        # r = 2 as it is at r = 3; K16 is at the cap and keeps it.
        report = compute_bounds_report(complete_graph(17))
        assert report.lower == ((9, "cor3.6"), (9, "lemma3.3"))
        assert report.upper == ((9, "thm4.2"), (17, "roberts-floor-n/2"))
        report = compute_bounds_report(complete_graph(16))
        assert report.upper == ((9, "thm4.2"), (16, "roberts-floor-n/2"), (16, "thm1.1"))

    def test_over_engine_cap_drops_only_cor36(self):
        # The complement of C9 has 27 edges, over the engine cap, and C9 is
        # not interval, so the engine refuses it. Cor 3.6 needs the exact
        # boxicity of C9 and is left out; the other bounds need no engine run.
        report = compute_bounds_report(cycle_graph(9))
        assert report.lower == ((1, "lemma3.3"),)
        assert report.upper == ((7, "thm4.2"), (9, "roberts-floor-n/2"), (8, "thm1.1"))
        # P9's complement has 28 edges, but P9 is interval: the engine answers
        # it at any size, so Cor 3.6 stays.
        report = compute_bounds_report(path_graph(9))
        assert report.lower == ((1, "cor3.6"), (1, "lemma3.3"))
        assert report.upper == ((6, "thm4.2"), (9, "roberts-floor-n/2"), (7, "thm1.1"))
        # The cap is the caller's: the complement of C5 has 5 edges.
        for cap, tags in ((5, ["cor3.6", "lemma3.3"]), (4, ["lemma3.3"])):
            report = compute_bounds_report(cycle_graph(5), max_complement_edges=cap)
            assert [tag for _, tag in report.lower] == tags
        with pytest.raises(CapacityError):
            compute_bounds_report(path_graph(9), include_exact=True)

    def test_over_clique_cover_cap_drops_only_thm42(self):
        # Thm 4.2 needs the clique cover number of the complement, and the
        # solver refuses over 40 edges. The complement of P10 has 36 edges,
        # P11's has 45; both paths are interval and under the chromatic cap,
        # so P11 keeps every other bound.
        report = compute_bounds_report(path_graph(10))
        assert report.upper == ((6, "thm4.2"), (10, "roberts-floor-n/2"), (8, "thm1.1"))
        report = compute_bounds_report(path_graph(11))
        assert report.lower == ((1, "cor3.6"), (1, "lemma3.3"))
        assert report.upper == ((11, "roberts-floor-n/2"), (8, "thm1.1"))
        # C12 (54 complement edges) is refused by the engine too, so Cor 3.6
        # goes with Thm 4.2; P20 and the 30-leaf star are over the chromatic
        # cap as well, so Thm 1.1 goes and Roberts' n/2 alone is left above.
        report = compute_bounds_report(cycle_graph(12))
        assert report.lower == ((1, "lemma3.3"),)
        assert report.upper == ((12, "roberts-floor-n/2"), (9, "thm1.1"))
        report = compute_bounds_report(path_graph(20))
        assert report.lower == ((1, "cor3.6"), (1, "lemma3.3"))
        assert report.upper == ((20, "roberts-floor-n/2"),)
        report = compute_bounds_report(star_graph(30))
        assert report.lower == ((2, "cor3.6"), (1, "lemma3.3"))
        assert report.upper == ((31, "roberts-floor-n/2"),)
        with pytest.raises(CapacityError, match="edge-clique-cover cap 40"):
            edge_clique_cover(complement(path_graph(11)))

    def test_crossed_bounds_raise(self):
        with pytest.raises(SelfCheckError):
            BoundsReport("stub", ((3, "a"),), ((2, "b"),), None)

    def test_higher_copy_counts(self):
        report = compute_bounds_report(cycle_graph(4), r=3)
        assert all(tag != "thm4.2" for _, tag in report.upper)
        assert max(v for v, _ in report.lower) <= min(v for v, _ in report.upper)
