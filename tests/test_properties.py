"""Property tests: the subset scan and the prefix DP against the brute-force
family, the prefix DP's layer reduction against a brute-force
inclusion-minimal filter, the minimum cover search against a brute-force
minimum and against its plain form's path and node count, the graph6 and
certificate text formats against their parsers, the graph symmetry check
against single-bit flips, the support-reduced cointerval decision against
the full-width one and against the independent oracle, the box verifier
against the pairwise check, the oracle's asteroidal-triple test against its
definition, and interval layouts and transitive orientations against their
definitions."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from boxicity.engine import (
    BoxRep,
    _minimal_masks,
    _minimum_cover,
    _prefix_dp_masks,
    exact_boxicity,
    format_cover,
    maximal_cointerval_family,
    parse_cover,
    verify_box_representation,
)
from boxicity.graphs import Graph, complement, graph6_decode, graph6_encode
from boxicity.intervals import (
    _has_asteroidal_triple,
    _interval_order,
    _is_interval_masks,
    _transitive_orientation,
    chordal_at_free_oracle,
    interval_representation,
)

from test_engine import brute_maximal_family, brute_verify_box_representation
from test_intervals import brute_has_asteroidal_triple, reconstruct

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


@st.composite
def middle_hosts(draw):
    """Hosts on 5-7 vertices with 5-12 edges, never complete: room for a
    chosen edge whose cross pairs to a later edge are all absent, so the scan
    cuts exclude branches whose unblocked later edges a found maximal set
    holds."""
    n = draw(st.integers(5, 7))
    pairs = list(itertools.combinations(range(n), 2))
    size = draw(st.integers(5, min(12, len(pairs) - 1)))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, rng.sample(pairs, size))


@settings(FIXED, max_examples=100)
@given(middle_hosts())
def test_scan_matches_brute_family_five_to_seven_vertices(host):
    fast = [p.edges() for p in maximal_cointerval_family(host)]
    assert sorted(fast) == brute_maximal_family(host)


@settings(FIXED, max_examples=100)
@given(st.one_of(graphs(max_n=7, max_edges=12), middle_hosts()))
def test_prefix_dp_matches_brute_family(host):
    # Called directly, at any density: the stage sends only dense hosts to
    # the DP, and interval complements (one member, the host) never reach it.
    masks, _ = _prefix_dp_masks(host)
    edges = host.edges()
    family = [[e for p, e in enumerate(edges) if mask >> p & 1] for mask in masks]
    assert sorted(family) == brute_maximal_family(host)


@settings(FIXED, max_examples=100)
@given(st.one_of(graphs(max_n=6, max_edges=12), middle_hosts()), st.data())
def test_prefix_dp_with_an_isolated_host_vertex_matches_brute_family(host, data):
    # An isolated host vertex, a universal vertex of g, inserted at any
    # label: the DP works on the other vertices, renumbered in order, and
    # takes s * 2^(s-1) steps over the s non-isolated ones.
    i = data.draw(st.integers(0, host.n))
    up = [v + (v >= i) for v in range(host.n)]
    host = Graph.from_edges(host.n + 1, [(up[u], up[v]) for u, v in host.edges()])
    masks, steps = _prefix_dp_masks(host)
    edges = host.edges()
    family = [[e for p, e in enumerate(edges) if mask >> p & 1] for mask in masks]
    assert sorted(family) == brute_maximal_family(host)
    s = sum(1 for row in host.adj if row)
    assert steps == (s << s >> 1)


@st.composite
def candidate_fills(draw):
    """A list of 6-bit masks as a DP successor's candidates arrive: some
    masks are preceded by a proper or equal superset, some repeat, and at 6
    bits many share a popcount."""
    masks = []
    for mask in draw(st.lists(st.integers(0, 63), min_size=1, max_size=12)):
        if draw(st.booleans()):
            masks.append(mask | draw(st.integers(0, 63)))
        masks.append(mask)
        if draw(st.booleans()):
            masks.append(mask)
    return masks


@settings(FIXED, max_examples=300)
@given(candidate_fills())
def test_minimal_masks_match_brute_filter(masks):
    minimal = _minimal_masks(masks)
    brute = {m for m in masks if not any(o & m == o != m for o in masks)}
    assert sorted(minimal) == sorted(brute)
    assert len(minimal) == len(brute)
    assert [m.bit_count() for m in minimal] == sorted(m.bit_count() for m in minimal)


@st.composite
def relabelled_hosts(draw):
    """A host on up to 8 vertices with up to 14 edges, up to 3 of its
    vertices left isolated, and a permutation of its vertices."""
    n = draw(st.integers(1, 8))
    live = n - draw(st.integers(0, min(3, n - 1)))
    pairs = list(itertools.combinations(range(live), 2))
    edges = []
    if pairs:
        size = min(14, len(pairs))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=size, unique=True))
    return Graph.from_edges(n, edges), draw(st.permutations(range(n)))


@settings(FIXED, max_examples=100)
@given(relabelled_hosts())
def test_scan_family_invariant_under_relabelling(case):
    # Relabelling moves the degree ties, and so the order the scan decides
    # edges in; the family must only move with the labels.
    host, perm = case
    moved = Graph.from_edges(host.n, [(perm[u], perm[v]) for u, v in host.edges()])
    mapped = [
        sorted(tuple(sorted((perm[u], perm[v]))) for u, v in part.edges())
        for part in maximal_cointerval_family(host)
    ]
    assert sorted(mapped) == [part.edges() for part in maximal_cointerval_family(moved)]


def union(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


@st.composite
def cover_instances(draw, max_elements=12, max_sets=10):
    """Set masks over up to ``max_elements`` elements and a universe that
    they cover: a subset of their union."""
    size = draw(st.integers(1, max_elements))
    sets = draw(st.lists(st.integers(0, (1 << size) - 1), max_size=max_sets))
    return union(sets) & draw(st.integers(0, (1 << size) - 1)), sets


@settings(FIXED, max_examples=300)
@given(cover_instances())
def test_minimum_cover_matches_brute_minimum(instance):
    universe, sets = instance
    chosen, _ = _minimum_cover(universe, sets)
    assert universe & ~union(sets[i] for i in chosen) == 0
    brute = next(
        k
        for k in range(len(sets) + 1)
        if any(
            universe & ~union(combo) == 0
            for combo in itertools.combinations(sets, k)
        )
    )
    assert len(chosen) == brute


def reference_minimum_cover(universe, sets):
    """The cover search in its plain form: the same rounds, cut and set
    order, with the branching element found by ``min`` over the uncovered
    elements (fewest sets, the lowest on ties)."""
    if universe == 0:
        return [], 0
    width = universe.bit_length()
    holders = {e: [i for i, s in enumerate(sets) if s >> e & 1] for e in range(width)}
    path, nodes = [], 0

    def search(rest, left):
        nonlocal nodes
        nodes += 1
        if not rest:
            return True
        gain = max((s & rest).bit_count() for s in sets)
        if -(-rest.bit_count() // gain) > left:
            return False
        uncovered = [e for e in range(width) if rest >> e & 1]
        for i in holders[min(uncovered, key=lambda e: len(holders[e]))]:
            path.append(i)
            if search(rest & ~sets[i], left - 1):
                return True
            path.pop()
        return False

    k = 1
    while not search(universe, k):
        k += 1
    return path, nodes


@settings(FIXED, max_examples=300)
@given(cover_instances())
def test_minimum_cover_takes_the_reference_path(instance):
    # Same first minimum cover and same node count as the plain search: the
    # certificate and ``nodes_explored`` depend on both.
    universe, sets = instance
    assert _minimum_cover(universe, sets) == reference_minimum_cover(universe, sets)


@settings(FIXED, max_examples=200)
@given(graphs(max_n=64))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@settings(FIXED, max_examples=60)
@given(graphs(max_n=7, max_edges=12))
def test_certificate_text_round_trip(g):
    cover = exact_boxicity(g).certificate
    assert parse_cover(format_cover(cover)) == cover


@st.composite
def symmetric_rows(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    rows = [0] * n
    for p, (u, v) in enumerate(pairs):
        if bits >> p & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


@pytest.mark.parametrize("n", range(1, 65))
@settings(FIXED, max_examples=8)
@given(data=st.data())
def test_graph_symmetry_check(n, data):
    rows = data.draw(symmetric_rows(n))
    assert Graph(n, tuple(rows)).adj == tuple(rows)
    if n == 1:
        return
    u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows[u] ^= 1 << v
    with pytest.raises(ValueError, match="asymmetric adjacency") as info:
        Graph(n, tuple(rows))
    a, b = (int(w) for w in str(info.value).split()[-3::2])
    assert a < b
    assert rows[a] >> b & 1 != rows[b] >> a & 1


@st.composite
def rows_with_isolated_vertices(draw, max_n):
    """Neighbour rows of a graph placed on some of ``n`` vertices; the rest
    are isolated."""
    n = draw(st.integers(1, max_n))
    placed = draw(st.permutations(range(n)))[draw(st.integers(0, n)):]
    pairs = list(itertools.combinations(sorted(placed), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [0] * n
    for (u, v), bit in zip(pairs, bits):
        if bit:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


@settings(FIXED, max_examples=300)
@given(rows_with_isolated_vertices(max_n=24))
def test_support_decision_matches_host_width(rows):
    n = len(rows)
    full = (1 << n) - 1
    co = tuple(full & ~row & ~(1 << v) for v, row in enumerate(rows))
    assert (_interval_order(rows) is not None) == _is_interval_masks(n, co)


@st.composite
def box_cases(draw):
    """Boxes on up to 9 vertices in up to 3 coordinates with endpoints in
    0..10, sometimes with one flaw (a box too many, a box with a coordinate
    missing, an empty interval); and a graph that is the boxes' intersection
    graph with up to two vertex pairs flipped."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(0, 3))
    interval = st.tuples(st.integers(0, 6), st.integers(0, 4)).map(
        lambda t: (t[0], t[0] + t[1])
    )
    boxes = [tuple(draw(st.lists(interval, min_size=dim, max_size=dim))) for _ in range(n)]
    flaw = draw(st.sampled_from(["none"] * 7 + ["extra box", "short box", "empty"]))
    v = draw(st.integers(0, n - 1))
    if flaw == "extra box":
        boxes.append(boxes[v])
    elif flaw == "short box" and dim:
        boxes[v] = boxes[v][1:]
    elif flaw == "empty" and dim:
        lo, _ = boxes[v][-1]
        boxes[v] = boxes[v][:-1] + ((lo, lo - 1),)
    pairs = list(itertools.combinations(range(n), 2))
    edges = {
        (u, w)
        for u, w in pairs
        if all(max(a[0], b[0]) <= min(a[1], b[1]) for a, b in zip(boxes[u], boxes[w]))
    }
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)))
    return Graph.from_edges(n, sorted(edges)), BoxRep(dim, tuple(boxes))


@settings(FIXED, max_examples=500)
@given(box_cases())
def test_box_verifier_matches_pairwise_check(case):
    g, rep = case
    assert verify_box_representation(g, rep) == brute_verify_box_representation(g, rep)


@settings(FIXED, max_examples=300)
@given(graphs(max_n=12))
def test_asteroidal_triple_matches_definition(g):
    assert _has_asteroidal_triple(g) == brute_has_asteroidal_triple(g)


@st.composite
def interval_models(draw, max_n):
    """The intersection graph of up to ``max_n`` random closed intervals with
    endpoints in 0..2n, so that shared endpoints, nesting and isolated
    intervals all occur."""
    n = draw(st.integers(1, max_n))
    starts = draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    ivs = [(a, a + b) for a, b in zip(starts, lengths)]
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if max(ivs[u][0], ivs[v][0]) <= min(ivs[u][1], ivs[v][1])
    ]
    return Graph.from_edges(n, edges)


@settings(FIXED, max_examples=300)
@given(graphs(max_n=16))
def test_chain_test_matches_oracle(g):
    # The orientation's chain test against the independent recognizer on the
    # complement.
    assert (_interval_order(g.adj) is not None) == chordal_at_free_oracle(complement(g))


@settings(FIXED, max_examples=200)
@given(interval_models(max_n=30))
def test_layout_intersection_graph_is_the_graph(g):
    assert reconstruct(interval_representation(g), g.n) == g


@settings(FIXED, max_examples=200)
@given(interval_models(max_n=14))
def test_transitive_orientation_of_a_cointerval_graph(g):
    # The complement of an interval graph: every edge oriented one way, no
    # non-edge oriented, a->b->c implies a->c, and the predecessor sets are
    # nested (an interval order).
    n = g.n
    rows = [((1 << n) - 1) & ~g.adj[v] & ~(1 << v) for v in range(n)]
    into = _transitive_orientation(n, rows)
    assert into is not None
    arcs = {(a, b) for b in range(n) for a in range(n) if into[b] >> a & 1}
    for a, b in itertools.combinations(range(n), 2):
        edge = rows[a] >> b & 1
        assert ((a, b) in arcs) + ((b, a) in arcs) == edge
    for a, b, c in itertools.permutations(range(n), 3):
        if (a, b) in arcs and (b, c) in arcs:
            assert (a, c) in arcs
    for u, v in itertools.combinations(range(n), 2):
        assert into[u] & ~into[v] == 0 or into[v] & ~into[u] == 0
