"""Property tests: the subset scan against the brute-force family, and the
graph6 and certificate text formats against their parsers."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from boxicity.engine import (
    exact_boxicity,
    format_cover,
    maximal_cointerval_family,
    parse_cover,
)
from boxicity.graphs import Graph, graph6_decode, graph6_encode

from test_engine import brute_maximal_family

# Fixed examples, no timing gate, no example database: every run draws the
# same graphs, and a failure is not replayed from an earlier run.
FIXED = settings(derandomize=True, deadline=None, database=None)


@st.composite
def graphs(draw, max_n, max_edges=None):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if max_edges is None:
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        edges = [e for p, e in enumerate(pairs) if bits >> p & 1]
    elif pairs:
        size = min(max_edges, len(pairs))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=size, unique=True))
    else:
        edges = []
    return Graph.from_edges(n, edges)


@settings(FIXED, max_examples=40)
@given(graphs(max_n=7, max_edges=12))
def test_scan_matches_brute_family(host):
    fast = [p.edges() for p in maximal_cointerval_family(host)]
    assert sorted(fast) == brute_maximal_family(host)


@settings(FIXED, max_examples=200)
@given(graphs(max_n=64))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@settings(FIXED, max_examples=60)
@given(graphs(max_n=7, max_edges=12))
def test_certificate_text_round_trip(g):
    cover = exact_boxicity(g).certificate
    assert parse_cover(format_cover(cover)) == cover
