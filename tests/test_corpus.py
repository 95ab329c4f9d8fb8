import hashlib
import random

import pytest

from boxicity import corpus
from boxicity.corpus import are_isomorphic, connected_graphs
from boxicity.generators import complete_graph, cycle_graph, path_graph, star_graph
from boxicity.graphs import Graph, disjoint_union, graph6_encode


def test_class_counts_match_known_values(graphs_by_n, connected_by_n):
    assert [len(graphs_by_n[n]) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_by_n[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_refuses_an_empty_vertex_count():
    with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
        corpus.all_graphs(0)


def test_corpus_digest_pinned(graphs_by_n):
    # Every representative, its labels and the corpus order: the survey CSV
    # and the certificate digests are computed over this corpus.
    text = "".join(
        graph6_encode(g) + "\n" for n in range(1, 8) for g in graphs_by_n[n]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ae0c52541b1bcc8d36d4443ba759f8ca12c72c5a0aaff7a08294304a6dd47486"
    )


def test_eight_vertex_corpus_pinned():
    # One size past the session corpora: 12,346 classes and 11,117 connected
    # ones (OEIS A000088, A001349), and every representative's labels.
    graphs = corpus.all_graphs(8)
    assert len(graphs) == 12346
    assert len(connected_graphs(8)) == 11117
    text = "".join(graph6_encode(g) + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "69fda48ed5c789b5945500540fd14b642a77c93379eff11f05401a5ed26b601c"
    )


def test_one_invariant_per_candidate(monkeypatch):
    calls = []
    child_invariant = corpus._child_invariant
    monkeypatch.setattr(corpus, "_cache", {})
    monkeypatch.setattr(
        corpus, "_child_invariant", lambda *args: calls.append(args) or child_invariant(*args)
    )
    corpus.all_graphs(6)
    # Candidates on n vertices that survive the twin skip, for n = 2..6.
    assert len(calls) == 2 + 6 + 20 + 102 + 652


def child(parent, mask):
    """The candidate that joins a new last vertex of ``parent`` to ``mask``."""
    new = parent.n
    rows = tuple(row | (mask >> v & 1) << new for v, row in enumerate(parent.adj))
    return Graph(new + 1, rows + (mask,))


def test_twin_skip_drops_only_repeats(graphs_by_n):
    # A skipped mask gives a graph isomorphic to a smaller mask of its parent,
    # so it is never the first candidate of its class.
    for n in range(2, 7):
        for parent in graphs_by_n[n - 1]:
            kept = corpus._twin_masks(parent.adj)
            assert kept == sorted(set(kept)) and kept[0] == 0
            for mask in set(range(1 << parent.n)) - set(kept):
                g = child(parent, mask)
                assert any(are_isomorphic(g, child(parent, m)) for m in range(mask))


def test_child_invariant_matches_invariant(graphs_by_n):
    for n in range(2, 8):
        for parent in graphs_by_n[n - 1]:
            base = corpus._invariant(parent.adj)
            for mask in corpus._twin_masks(parent.adj):
                g = child(parent, mask)
                assert corpus._child_invariant(base, parent.adj, mask) == (
                    corpus._invariant(g.adj)
                )


def test_corpus_members_pairwise_nonisomorphic(graphs_by_n):
    graphs = graphs_by_n[6]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not are_isomorphic(graphs[i], graphs[j])


def test_random_relabelings_are_isomorphic(graphs_by_n):
    rng = random.Random(3)

    def scrambled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    for g in graphs_by_n[6][::5]:
        assert are_isomorphic(g, scrambled(g))
    # Label-order placement across the documented range: both sides of a
    # 7-vertex pair scrambled, each by its own permutation.
    for g in graphs_by_n[7][::20]:
        assert are_isomorphic(scrambled(g), scrambled(g))


def test_distinguishes_same_degree_sequences():
    hexagon = cycle_graph(6)
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert not are_isomorphic(hexagon, two_triangles)
    # 2-regular and triangle-free on both sides: the invariant pairs tie.
    nonagon = cycle_graph(9)
    square_and_pentagon = disjoint_union(cycle_graph(4), cycle_graph(5))
    assert not are_isomorphic(nonagon, square_and_pentagon)


def test_distinguishes_cube_from_wagner_graph():
    # Both are 3-regular and triangle-free, so every vertex has the same
    # invariant pair and only the search tells them apart.
    cube = Graph.from_edges(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                                if not u >> k & 1])
    wagner = Graph.from_edges(
        8, [(v, (v + 1) % 8) for v in range(8)] + [(v, v + 4) for v in range(4)]
    )
    assert not are_isomorphic(cube, wagner)
    assert not are_isomorphic(wagner, cube)
    perm = [3, 6, 0, 5, 7, 1, 4, 2]
    relabeled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in cube.edges()])
    assert are_isomorphic(cube, relabeled)


def test_distinguishes_trees():
    assert not are_isomorphic(path_graph(4), star_graph(3))
    assert not are_isomorphic(path_graph(5), star_graph(4))


def test_positive_examples():
    assert are_isomorphic(complete_graph(4), complete_graph(4))
    spread = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])  # a relabeled path
    assert are_isomorphic(spread, path_graph(4))


def test_connected_filter():
    assert all(
        g.num_edges() >= g.n - 1 for g in connected_graphs(5)
    )
    assert len(connected_graphs(2)) == 1
