"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import types

import pytest

import hostspeed
import inputs as gi
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def modules():
    return run.load_package()


@pytest.fixture(scope="module")
def pkg(modules):
    from boxicity.corpus import connected_graphs

    return types.SimpleNamespace(
        Graph=modules["graphs"].Graph,
        chordal_at_free_oracle=modules["intervals"].chordal_at_free_oracle,
        SURVEY_HEADER=modules["cli"].SURVEY_HEADER,
        corpus_graphs=connected_graphs(5),
    )


def test_tail_rank_leaves_ten_operations_beyond():
    assert run.tail_rank(42) == 32
    assert run.tail_rank(11) == 1
    assert run.tail_rank(10) is None
    latencies = [i / 1000 for i in range(1, 43)]  # 1..42 ms
    p50, tail = run.latency_stats(latencies)
    assert p50 == pytest.approx(21.5)
    assert tail == pytest.approx(32.0)
    assert sum(x * 1e3 > tail for x in latencies) == run.TAIL_BEYOND


def test_failed_operations_count_as_infinite_latency():
    ok = [0.001] * 20
    p50, tail = run.latency_stats(ok + [math.inf] * 5)
    assert math.isfinite(p50) and tail == pytest.approx(1.0)
    p50, tail = run.latency_stats(ok + [math.inf] * 11)
    assert math.isfinite(p50) and math.isinf(tail)
    p50, _ = run.latency_stats([0.001] * 3 + [math.inf] * 4)
    assert math.isinf(p50)
    assert run._finite(math.inf) is None and run._finite(2.5) == 2.5


def test_wrong_answer_becomes_a_failure():
    class Always:
        def check(self, api, op, result):
            return "wrong on purpose"

    op = workloads.Op("x", gi.path(2), None)
    batch = run.Batch(0.1, [0.1], ["ok"], [object()], 0.1)
    problems = run.check_batch(Always(), [op], {}, batch)
    assert batch.kinds == ["wrong"] and math.isinf(batch.latencies[0]) and problems


@pytest.mark.parametrize("name", ["box-hard", "survey", "interval", "reach"])
def test_inputs_are_a_function_of_the_seed(pkg, name):
    wl = workloads.WORKLOADS[name]

    def digest(seed):
        return gi.digest(run._input_line(op) for op in wl.make(seed, pkg))

    assert digest(3) == digest(3)
    if name != "reach":  # seven fixed commands: only their order varies
        assert digest(3) != digest(4)


def test_pooled_inputs_stay_within_their_class():
    for g in workloads.BoxHard.pool():
        assert g[0] in (9, 10) and len(gi.complement_edges(g)) in (20, 21, 22)
    for g, cut in workloads.Interval.pool():
        assert 16 <= g[0] <= 26 and len(cut[1]) == len(g[1]) - 1
        assert gi.maximal_clique_count(g) <= workloads.MAX_ACCEPT_CLIQUES
        assert gi.maximal_clique_count(cut) <= workloads.MAX_REJECT_CLIQUES
        (gone,) = set(g[1]) - set(cut[1])
        assert gone in gi.square_making_edges(g)


def test_own_graph_helpers_agree_with_their_definitions(modules):
    rng = gi.seeded(1, "test")
    for _ in range(20):
        g, ivs = gi.random_interval_graph(rng, rng.randint(5, 20))
        assert gi.intervals_match(g, ivs) is None
    graphs = modules["graphs"]
    for g in (gi.path(7), gi.balanced_spider(19), gi.mycielski(gi.cycle(5)), gi.empty(46)):
        assert gi.graph6(g) == graphs.graph6_encode(graphs.Graph.from_edges(g[0], g[1]))
    built, _ = modules["generators"].mycielski(graphs.Graph.from_edges(4, gi.path(4)[1]))
    assert tuple(built.edges()) == gi.mycielski(gi.path(4))[1]
    assert gi.maximal_clique_count(gi.cycle(5)) == 5


def test_discovery_finds_the_engine_leaf_test_boundary(modules):
    boundaries = tracing.discover(modules)
    sites = {b[4] for b in boundaries}
    assert tracing.LEAF_SITE in sites
    assert "cli>engine.exact_boxicity" in sites
    assert "engine._maximal_cointerval_family_masks" in sites
    assert not any(b[4].startswith("engine>engine") for b in boundaries)
    assert tracing.missing(boundaries) == []


def test_a_renamed_boundary_is_reported_missing(modules, monkeypatch):
    monkeypatch.delattr(modules["engine"], "_is_interval_masks")
    assert tracing.missing(tracing.discover(modules)) == [tracing.LEAF_SITE]


def test_self_time_subtracts_direct_children():
    spans = [
        ["bench>engine.exact_boxicity", "engine", 0.0, 1.0, -1, (5, 2)],
        ["engine>intervals._is_interval_masks", "intervals", 0.1, 0.3, 0, True],
        ["engine>intervals._is_interval_masks", "intervals", 0.4, 0.5, 0, False],
        ["engine._minimum_cover", "engine", 0.6, 0.9, 0, None],
    ]
    agg = tracing.aggregate(spans, ValueError)
    assert agg["engine.self_ms"] == pytest.approx(400 + 300)  # span self + cover self
    assert agg["intervals.self_ms"] == pytest.approx(300)
    assert agg["engine.calls"] == 1 and agg["intervals.calls"] == 2
    assert agg["engine.leaf_tests"] == 2 and agg["engine.leaf_hit_ratio"] == 0.5
    assert agg["engine.cover_ms"] == pytest.approx(300)
    assert agg["engine.nodes"] == 5 and agg["engine.boxicity_calls"] == 1


def test_tracer_restores_the_namespaces(modules):
    boundaries = tracing.discover(modules)
    before = {(id(m), name): getattr(m, name) for m, name, *_ in boundaries}
    tracer = tracing.Tracer()
    tracer.install(boundaries)
    g = modules["graphs"].Graph.from_edges(5, gi.cycle(5)[1])
    assert modules["cli"].exact_boxicity(g).value == 2
    tracer.uninstall()
    assert tracer.spans and all(s[3] >= s[2] for s in tracer.spans)
    assert {(id(m), name): getattr(m, name) for m, name, *_ in boundaries} == before


def test_benchmark_file_matches_the_printed_metrics():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.JUDGED)


def test_host_slowdown_uses_nearby_probes():
    probes = hostspeed.Probes()
    probes.at = [0.0, 1.0, 2.0, 10.0, 11.0]
    probes.took = [h * hostspeed.REFERENCE_S for h in (1.0, 1.0, 1.2, 2.0, 2.0)]
    assert probes.slowdown(0.5, 0.6) == pytest.approx(1.0)  # probes at 0, 1, 2
    assert probes.slowdown(10.2, 10.4) == pytest.approx(2.0)
    assert probes.slowdown(5.0, 5.5) == pytest.approx(1.2)  # none near: nearest
