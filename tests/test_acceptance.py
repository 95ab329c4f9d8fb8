"""Acceptance suite: every numbered criterion as one test, exact tolerances.

Each test prints a single pass line on success (visible with -s or -rA;
``pytest -v`` additionally reports one PASSED/FAILED line per criterion).
"""

import time

from boxicity.bounds import (
    chromatic_number,
    edge_clique_cover,
    mycielski_kn_boxicity,
    mycielski_lower_bound,
    thm11_upper,
)
from boxicity.constructions import mycielski_cover
from boxicity.engine import exact_boxicity, verify_cointerval_cover
from boxicity.generators import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    focalize,
    mycielski,
    path_graph,
    star_graph,
)
from boxicity.graphs import complement, focal_vertices, join
from boxicity.intervals import chordal_at_free_oracle, is_interval

from test_bounds import partitions
from test_graphs import d_graph


def report(criterion, detail, started):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {time.time() - started:.1f}s)")


def test_criterion_01_mycielski_complete_table():
    started = time.time()
    values = []
    for n in (2, 3, 4):
        myc, _ = mycielski(complete_graph(n), 2)
        values.append(exact_boxicity(myc).value)
    myc5, _ = mycielski(complete_graph(5), 2)
    assert complement(myc5).num_edges() == 20
    values.append(exact_boxicity(myc5, max_complement_edges=20).value)
    assert values == [2, 2, 3, 3]
    assert values == [mycielski_kn_boxicity(n) for n in (2, 3, 4, 5)]
    report(1, "boxicity of Mycielski complete graphs n=2..5 is 2,2,3,3", started)


def test_criterion_02_mycielski_four_cycle():
    started = time.time()
    myc, _ = mycielski(cycle_graph(4), 2)
    assert complement(myc).num_edges() == 20
    result = exact_boxicity(myc)
    assert result.value == 2
    assert len(result.certificate.parts) == 2
    assert verify_cointerval_cover(myc, result.certificate).ok
    report(2, "Mycielski of the 4-cycle has boxicity 2 with a verified 2-part cover", started)


def test_criterion_03_multipartite_formula():
    started = time.time()
    checked = 0
    for n in range(1, 9):
        for parts in partitions(n):
            g = complete_multipartite(parts)
            want = sum(1 for p in parts if p >= 2)
            assert exact_boxicity(g, max_complement_edges=28).value == want
            checked += 1
    assert checked == 66
    report(3, f"multipartite boxicity formula on all {checked} partitions of n<=8", started)


def test_criterion_04_matching_clique_shape():
    started = time.time()
    for n in (2, 3, 4):
        g = complement(d_graph(n))
        assert exact_boxicity(g).value == (n + 1) // 2
    report(4, "independent-set/clique/matching complements hit ceil(n/2) for n=2..4", started)


def test_criterion_05_focalization_invariance(graphs_by_n):
    started = time.time()
    count = 0
    for n in range(1, 6):
        for g in graphs_by_n[n]:
            assert exact_boxicity(focalize(g, 1)).value == exact_boxicity(g).value
            count += 1
    assert count == 52
    report(5, f"focalization preserves boxicity on all {count} graphs with n<=5", started)


def test_criterion_06_mycielski_lower_bound(connected_by_n):
    started = time.time()
    for n in range(1, 5):
        for g in connected_by_n[n]:
            myc, _ = mycielski(g, 2)
            myc_box = exact_boxicity(myc).value
            assert mycielski_lower_bound(g, 2) <= myc_box
            if focal_vertices(g):
                assert myc_box > exact_boxicity(g).value
    report(6, "Mycielski lower bound and strict growth on connected n<=4", started)


def test_criterion_07_constructive_upper_bound(connected_by_n):
    started = time.time()
    count = 0
    for n in range(1, 7):
        for g in connected_by_n[n]:
            theta, clique_cover = edge_clique_cover(complement(g))
            built = mycielski_cover(g, clique_cover)  # verified internally
            l = len(focal_vertices(g))
            limit = theta + (l + 1) // 2 + (0 if (l == 0 or l % 2 == 1) else 1)
            assert len(built.parts) <= limit
            if l == 0 or l % 2 == 1:
                assert len(built.parts) <= theta + (l + 1) // 2
            count += 1
    assert count == 143
    report(7, f"constructive Mycielski covers verified on {count} connected graphs n<=6", started)


def test_criterion_08_chromatic_ladder(connected_by_n):
    started = time.time()
    for n in range(1, 6):
        for g in connected_by_n[n]:
            myc, _ = mycielski(g, 2)
            assert chromatic_number(myc) == chromatic_number(g) + 1
    report(8, "Mycielski raises the chromatic number by one on connected n<=5", started)


def test_criterion_09_chromatic_boxicity_inequality(graphs_by_n):
    started = time.time()
    count = 0
    for n in range(1, 7):
        for g in graphs_by_n[n]:
            assert exact_boxicity(g).value <= thm11_upper(g.n, chromatic_number(g))
            count += 1
    assert count == 208
    tight = complete_multipartite([2, 2, 2])
    assert chromatic_number(tight) == 3
    assert exact_boxicity(tight).value == 3 == thm11_upper(6, 3)
    report(9, f"boxicity-chromatic inequality on all {count} graphs n<=6 incl. tight case", started)


def test_criterion_10_path_mycielski():
    started = time.time()
    assert is_interval(path_graph(4)).interval
    myc, _ = mycielski(path_graph(4), 2)
    assert not is_interval(myc).interval
    assert complement(myc).num_edges() == 23
    result = exact_boxicity(myc, max_complement_edges=23)
    assert result.value == 2
    report(10, "path on 4 vertices is interval, its Mycielski graph is not and has boxicity 2", started)


def test_criterion_11_join_example():
    started = time.time()
    star_myc, _ = mycielski(star_graph(3), 2)
    g = join(complete_graph(3), star_myc)
    assert exact_boxicity(g).value == 2
    report(11, "join of a triangle with the Mycielski star keeps boxicity 2", started)


def test_criterion_12_oracle_equivalence(graphs_by_n):
    started = time.time()
    count = 0
    for n in range(1, 8):
        for g in graphs_by_n[n]:
            assert chordal_at_free_oracle(g) == is_interval(g).interval
            count += 1
    assert count == 1252
    report(12, f"recognizer matches the chordal/AT-free oracle on all {count} graphs n<=7", started)
