import dataclasses
import gc
import hashlib
import itertools
import random

import pytest

from boxicity.bounds import (
    CliqueCover,
    chromatic_number,
    compute_bounds_report,
    thm11_upper,
)
from boxicity.cli import survey_row
from boxicity.constructions import mycielski_cover
from boxicity.corpus import are_isomorphic
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
from boxicity.graphs import Graph, complement, graph6_encode, induced_subgraph, join
from boxicity import engine, intervals
from boxicity.intervals import _is_interval_masks, is_cointerval
from boxicity.engine import (
    BoxRep,
    CointervalCover,
    Verdict,
    cover_to_box_representation,
    exact_boxicity,
    format_cover,
    matching_bound_detail,
    matching_lower_bound,
    maximal_cointerval_family,
    pair_lower_bound,
    parse_cover,
    verify_box_representation,
    verify_cointerval_cover,
)

from test_graphs import d_graph


def brute_cointerval_subsets(host):
    """Oracle: every edge subset decided by the public cointerval test on the
    full spanning subgraph, at host width, no support reduction, no pruning."""
    edges = host.edges()
    m = len(edges)
    return [
        mask
        for mask in range(1 << m)
        if is_cointerval(
            Graph.from_edges(host.n, (edges[p] for p in range(m) if mask >> p & 1))
        )
    ]


def brute_verify_box_representation(g, rep):
    """Oracle: the pairwise box check, every vertex pair compared coordinate
    by coordinate, after the same malformed-box checks and messages as
    ``verify_box_representation``."""
    if len(rep.boxes) != g.n:
        return Verdict(False, f"{len(rep.boxes)} boxes for {g.n} vertices")
    for v, box in enumerate(rep.boxes):
        if len(box) != rep.dimension:
            return Verdict(False, f"box of vertex {v} has wrong dimension")
        for lo, hi in box:
            if lo > hi:
                return Verdict(False, f"vertex {v} has an empty interval")
    if rep.dimension == 0 and complement(g).num_edges() > 0:
        return Verdict(False, "dimension 0 can only represent a complete graph")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            meets = all(
                max(alo, blo) <= min(ahi, bhi)
                for (alo, ahi), (blo, bhi) in zip(rep.boxes[u], rep.boxes[v])
            )
            if meets != g.has_edge(u, v):
                want = "adjacent" if g.has_edge(u, v) else "non-adjacent"
                return Verdict(False, f"boxes of {u} and {v} disagree with {want} pair")
    return Verdict(True)


def brute_maximal_family(host):
    edges = host.edges()
    m = len(edges)
    subsets = brute_cointerval_subsets(host)
    # above[s]: some cointerval subset contains s, by one superset-sum pass.
    above = [False] * (1 << m)
    for s in subsets:
        above[s] = True
    for p in range(m):
        bit = 1 << p
        for s in range(1 << m):
            if not s & bit and above[s | bit]:
                above[s] = True
    maximal = [
        s for s in subsets if not any(above[s | 1 << p] for p in range(m) if not s >> p & 1)
    ]
    return sorted(
        sorted(edges[p] for p in range(m) if s >> p & 1) for s in maximal
    )


def brute_boxicity(g):
    """Oracle: smallest k <= 2 such that k cointerval subsets cover the
    complement; only sound where the vertex count keeps boxicity below 3."""
    assert g.n <= 5
    host = complement(g)
    m = host.num_edges()
    if m == 0:
        return 0
    universe = (1 << m) - 1
    subsets = brute_cointerval_subsets(host)
    if universe in subsets:
        return 1
    for a, b in itertools.combinations(subsets, 2):
        if a | b == universe:
            return 2
    raise AssertionError("boxicity above 2 impossible on up to 5 vertices")


def _large_hosts():
    """Hosts the size of the benchmark's box-hard inputs: the complements of
    C8, Mycielski(P4) and Mycielski(K5), and 30 seeded random hosts with 9-10
    vertices and 20-22 edges."""
    hosts = [
        complement(cycle_graph(8)),
        complement(mycielski(path_graph(4), 2)[0]),
        complement(mycielski(complete_graph(5), 2)[0]),
    ]
    rng = random.Random(12)
    for _ in range(30):
        n = rng.choice([9, 10])
        pairs = list(itertools.combinations(range(n), 2))
        hosts.append(Graph.from_edges(n, rng.sample(pairs, rng.randint(20, 22))))
    return hosts


def _sparse_scan_hosts():
    """Hosts that only the subset scan serves: more than DP_MAX_VERTICES live
    vertices and at most 24 edges, within the default cap. The perfect
    matching on 24 vertices (K_{2x12}'s host), the paths P17, P20 and P25,
    the cycles C17, C20 and C24, and 20 seeded connected hosts with 17-24
    vertices: a random tree plus random extra edges up to 24 in all."""
    hosts = [Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])]
    hosts += [path_graph(k) for k in (17, 20, 25)]
    hosts += [cycle_graph(k) for k in (17, 20, 24)]
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(17, 24)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        others = sorted(set(itertools.combinations(range(n), 2)) - set(tree))
        hosts.append(Graph.from_edges(n, tree + rng.sample(others, rng.randint(0, 25 - n))))
    return hosts


class TestMaximalFamily:
    def test_complete_host_single_part(self):
        host = complete_graph(5)
        family = maximal_cointerval_family(host)
        assert [p.edges() for p in family] == [host.edges()]

    def test_two_disjoint_edges_give_singletons(self):
        host = Graph.from_edges(4, [(0, 1), (2, 3)])
        family = maximal_cointerval_family(host)
        assert [p.edges() for p in family] == [[(0, 1)], [(2, 3)]]

    def test_edgeless_host(self):
        family = maximal_cointerval_family(empty_graph(3))
        assert len(family) == 1 and not family[0].edges()

    def test_mycielski_four_cycle_has_two_part_cover(self):
        myc, _ = mycielski(cycle_graph(4), 2)
        host = complement(myc)
        family = maximal_cointerval_family(host)
        all_edges = set(host.edges())
        assert any(
            set(a.edges()) | set(b.edges()) == all_edges
            for a, b in itertools.combinations(family, 2)
        )

    def test_matches_brute_oracle_on_corpus(self, graphs_by_n):
        # From 5 vertices on, hosts hold 5-cycles, so the 5-cycle prune runs.
        for n in (3, 4, 5, 6):
            for g in graphs_by_n[n]:
                host = complement(g)
                if n == 6 and host.num_edges() > 10:
                    continue
                fast = [p.edges() for p in maximal_cointerval_family(host)]
                assert sorted(fast) == brute_maximal_family(host)

    def test_five_cycle_never_reaches_a_leaf(self, monkeypatch):
        # The scan calls no recognizer, not even its orientation routine, and
        # accepts every leaf, so a leaf that is not cointerval would enter the
        # family. C5 is self-complementary and not chordal; the complement of C6 has no induced pair of
        # independent edges but is not transitively orientable.
        def refuse(n, adj):
            raise AssertionError("the scan called the recognizer")

        # The scan is called directly: the stage decides intervality first.
        for host in (cycle_graph(5), complement(cycle_graph(6))):
            want = brute_maximal_family(host)
            with monkeypatch.context() as m:
                m.setattr(engine, "_is_interval_masks", refuse)
                m.setattr(intervals, "_transitive_orientation", refuse)
                masks, _ = engine._maximal_cointerval_masks(host)
            edges = host.edges()
            family = [[edges[p] for p in range(len(edges)) if mask >> p & 1] for mask in masks]
            assert sorted(family) == want

    def test_blocked_later_edges_cut_an_exclude_branch(self):
        # On the path 0-1-...-5 the scan places the vertices 0, 5, 1, 2, 3, 4,
        # so it decides 01, 12, 23, 45, 34 in that order and first finds
        # {01, 12, 23}. Below chosen {01, 12}, deciding 23 out leaves 45 and
        # 34 later; no found set holds either, so no found set holds every
        # later position, but 01 has all four cross pairs to each of them
        # absent, so both are blocked and the found set covers the rest. The
        # same cut fires below chosen {01} with 12 out, and below chosen {12}
        # with 23 out, where 45 is blocked and {12, 23, 34} holds 34. Without
        # these cuts the scan reads 27.
        host = path_graph(6)
        assert engine._maximal_cointerval_masks(host) == ([7, 14, 28], 21)
        assert [p.edges() for p in maximal_cointerval_family(host)] == [
            [(0, 1), (1, 2), (2, 3)],
            [(1, 2), (2, 3), (3, 4)],
            [(2, 3), (3, 4), (4, 5)],
        ]

    @staticmethod
    def scan(host):
        """The scan's family as edge lists, in the order it returns them,
        and its node count."""
        masks, nodes = engine._maximal_cointerval_masks(host)
        edges = host.edges()
        return [[edges[p] for p in range(len(edges)) if mask >> p & 1] for mask in masks], nodes

    def test_independent_pair_cuts_an_include_branch(self):
        # The scan decides 01, then 23. Below chosen {01}, choosing 23 would
        # leave all four cross pairs 02, 03, 12, 13 absent, so that include
        # child is cut; deciding 23 out reaches the leaf {01}: root, {01} and
        # the leaf, 3 nodes. With 01 out, the node for 23 (4), its include
        # leaf {23} (5) and its exclude child, subsumed by {23} with no later
        # position (6). Without the cut the scan reads 5 and returns the one
        # set {01, 23}, which is not cointerval.
        host = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert self.scan(host) == ([[(0, 1)], [(2, 3)]], 6)

    def test_independent_pair_cuts_an_exclude_branch(self):
        # The scan places 0, 3, 1, 2, so it decides 01, 23, then 12. Choosing
        # all three reaches the leaf {01, 12, 23} in 4 nodes. Below chosen
        # {01, 23}, deciding 12 out would leave every cross pair of 01 and 23
        # absent, so that exclude child is cut. Deciding 23 out below {01},
        # and 01 out at the root, are each subsumed by the leaf with no edge
        # blocked: 2 nodes, 6 in all. Without the cut the cut child is
        # subsumed instead, and the scan reads 7.
        assert self.scan(path_graph(4)) == ([[(0, 1), (1, 2), (2, 3)]], 6)

    def test_class_conflict_cuts_an_include_branch(self):
        # C5 is the smallest host on which this cut fires (fewest edges, then
        # vertices, over every host on up to 7 vertices). The scan decides 01, 12, 23, 04, 34; the maximal sets are the five
        # 3-edge paths, since two cycle edges with no common end need the edge
        # between them. Nodes in visit order ("+e" chooses e, "-e" decides it
        # out, "sub" is an exclude child subsumed by a found set, one node):
        #   root +01 +12 +23 +04 -04, -34 leaf {01,12,23}             7
        #   -23 +04, -34 leaf {01,12,04}, -04 sub                       4
        #   -12 -23 +04, +34 leaf {01,04,34}, -34 sub, -04 sub          6
        #   -01 +12 +23 -04, +34 leaf {12,23,34}, -34 sub, -23 sub      7
        #   -12 +23 +04, +34 leaf {23,04,34}, -04 sub, -23 sub          6
        # 30 in all. Below {01, 12, 23, 04} choosing 34 closes the 5-cycle,
        # whose implication class holds an edge both ways: that include child
        # is cut, and deciding 34 out leaves 23 and 04 an independent pair.
        # Every other child not listed is cut by an independent pair. Without
        # the conflict cut the scan reads 10 and returns the whole cycle.
        assert self.scan(cycle_graph(5)) == (
            [
                [(0, 1), (1, 2), (2, 3)],
                [(0, 1), (0, 4), (1, 2)],
                [(0, 1), (0, 4), (3, 4)],
                [(1, 2), (2, 3), (3, 4)],
                [(0, 4), (2, 3), (3, 4)],
            ],
            30,
        )

    def test_class_conflict_cuts_an_exclude_branch(self):
        # The smallest host on which this cut fires, as C5 is for the include
        # cut: the 5-cycle 0-2-4-1-3 with the chord 04, the complement of P5,
        # whose one maximal set is all six edges. The scan places 1, 3, 2, 0, 4 and
        # decides 13, 03, 02, 14, 24, 04; choosing all six reaches that leaf
        # in 7 nodes. Deciding 04 out last would leave the chosen 5-cycle,
        # where 0 and 4 have the common chosen neighbour 2: relating 20 and
        # 24 makes a class hold an edge both ways, so that exclude child is
        # cut. The five earlier exclude children are each subsumed by the
        # leaf with no edge blocked: 7 + 5 = 12. Without the cut the cut
        # child is subsumed instead, and the scan reads 13.
        host = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)])
        assert self.scan(host) == ([host.edges()], 12)

    def test_found_set_subsumes_an_exclude_branch_without_blocked_edges(self):
        # The scan decides 01, then 12, and finds {01, 12} in 3 nodes.
        # Deciding 12 out below {01} is subsumed with no later position (4).
        # Deciding 01 out at the root is subsumed by {01, 12}, which holds the
        # one later position, 12, with no edge blocked (5). Without
        # subsumption the scan reads 7 and also returns {01}, {12} and {}.
        assert self.scan(path_graph(3)) == ([[(0, 1), (1, 2)]], 5)

    def test_pinned_search_counters(self):
        # Deterministic counters are the regression signal of the search.
        # C8's and M(P4)'s hosts go to the prefix DP, whose nodes are its
        # (prefix, vertex) steps, 8 * 2^7 and 9 * 2^8, plus cover nodes;
        # M(K5)'s host (20 edges on 11 vertices) goes to the scan.
        cases = [
            (cycle_graph(8), 1028, 64),
            (mycielski(path_graph(4), 2)[0], 2310, 46),
            (mycielski(complete_graph(5), 2)[0], 2404, 20),
        ]
        for g, nodes, family_size in cases:
            result = exact_boxicity(g)
            assert (result.nodes_explored, result.family_size) == (nodes, family_size)

    def test_scan_digest_pinned(self, graphs_by_n):
        # The raw scan output, masks in the order found plus the node count,
        # on the complement of every graph with up to 7 vertices: a change to
        # a prune rule or to the edge order shows here first.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                host = complement(g)
                family, nodes = engine._maximal_cointerval_masks(host)
                digest.update(f"{family} {nodes}\n".encode())
        assert digest.hexdigest() == (
            "25e7b7eeba1b0e4df0a8395c944f8f9b594fc888f98ff908007b1cfc022c4a30"
        )

    def test_scan_digest_pinned_on_large_hosts(self):
        # The same raw output on hosts the size of the benchmark's box-hard
        # inputs, whose families reach 64 members.
        digest = hashlib.sha256()
        largest = 0
        for host in _large_hosts():
            family, nodes = engine._maximal_cointerval_masks(host)
            largest = max(largest, len(family))
            digest.update(f"{family} {nodes}\n".encode())
        assert largest == 64
        assert digest.hexdigest() == (
            "d2da4c46e85b784a2181b09f1d30bf3a14d104052a4bd9bcaa44aea18f9fe112"
        )

    def test_scan_digest_pinned_on_sparse_hosts_over_the_dp_limit(self):
        # The same raw output on hosts that go to the scan whatever their
        # density, because the DP refuses more than DP_MAX_VERTICES live
        # vertices: the scan alone answers for these in every run.
        digest = hashlib.sha256()
        for host in _sparse_scan_hosts():
            assert sum(1 for row in host.adj if row) > engine.DP_MAX_VERTICES
            assert host.num_edges() <= engine.DEFAULT_COMPLEMENT_EDGE_CAP
            family, nodes = engine._maximal_cointerval_masks(host)
            digest.update(f"{family} {nodes}\n".encode())
        assert digest.hexdigest() == (
            "2a1bada697131229b48fb3b466d5a1790f552fdc0f7e6f788a8ff53cb8f9bbc4"
        )

    def test_scan_masks_digest_pinned(self, graphs_by_n):
        # The masks alone, in the order found, on the same corpus: a prune
        # that only cuts subtrees finding nothing new leaves this unchanged
        # while the node count in the digest above moves.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                host = complement(g)
                family, _ = engine._maximal_cointerval_masks(host)
                digest.update(f"{family}\n".encode())
        assert digest.hexdigest() == (
            "c22902eff15fec8f75d9680acccdc6269f9b085403033cb70862c1b24ae12880"
        )

    def test_scan_masks_digest_pinned_on_large_hosts(self):
        digest = hashlib.sha256()
        for host in _large_hosts():
            family, _ = engine._maximal_cointerval_masks(host)
            digest.update(f"{family}\n".encode())
        assert digest.hexdigest() == (
            "d5a0244b225705640fb5ed25307d14808983e6643a3bc14d7cd17f1223ac9a6b"
        )

    def test_family_digest_pinned(self, graphs_by_n):
        # The sorted family, the scan's answer as the cover search reads it,
        # on the complement of every graph with up to 7 vertices and on the
        # large hosts. Unlike the raw digests above it does not depend on the
        # order the scan decides edges in, so a new order must keep it.
        digest = hashlib.sha256()
        graphs = [g for n in range(1, 8) for g in graphs_by_n[n]]
        for g in graphs + [complement(host) for host in _large_hosts()]:
            _, family, _ = engine._maximal_cointerval_family_masks(
                g, engine.DEFAULT_COMPLEMENT_EDGE_CAP
            )
            digest.update(f"{family}\n".encode())
        assert digest.hexdigest() == (
            "9e606a2b71dad012af266dc0a44ef71bb21673affdc59bdd1a92a6aba97fd0cd"
        )

    def test_matches_brute_oracle_random_hosts(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.choice([5, 6])
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45
            ]
            if not edges:
                continue
            host = Graph.from_edges(n, edges)
            fast = [p.edges() for p in maximal_cointerval_family(host)]
            assert sorted(fast) == brute_maximal_family(host)

    def test_matches_brute_oracle_seven_vertex_hosts(self):
        # Past the exhaustive corpus above: parts that are not transitively
        # orientable in more shapes than C5 and the complement of C6.
        rng = random.Random(8)
        pairs = list(itertools.combinations(range(7), 2))
        for _ in range(20):
            host = Graph.from_edges(7, rng.sample(pairs, rng.randint(6, 13)))
            fast = [p.edges() for p in maximal_cointerval_family(host)]
            assert sorted(fast) == brute_maximal_family(host)

    def test_support_decision_matches_host_width(self, graphs_by_n):
        # The verifier decides a part on its support; the full-width decision
        # on the part's complement rows must agree on every family member.
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                host, family, _ = engine._maximal_cointerval_family_masks(
                    g, engine.DEFAULT_COMPLEMENT_EDGE_CAP
                )
                edges = host.edges()
                full = (1 << n) - 1
                for mask in family:
                    rows = [0] * n
                    for p in range(len(edges)):
                        if mask >> p & 1:
                            u, v = edges[p]
                            rows[u] |= 1 << v
                            rows[v] |= 1 << u
                    co = tuple(full & ~row & ~(1 << v) for v, row in enumerate(rows))
                    cointerval = intervals._interval_order(rows) is not None
                    assert cointerval == _is_interval_masks(n, co)

    def test_capacity_names_cap(self):
        # The complement of C9 has 27 edges and is not cointerval, so it is
        # refused. K8 has 28 edges but is cointerval: the stage answers it
        # with itself before the cap applies.
        with pytest.raises(CapacityError, match="max-complement-edges"):
            maximal_cointerval_family(complement(cycle_graph(9)))
        assert maximal_cointerval_family(complete_graph(8)) == [complete_graph(8)]

    def test_cointerval_host_over_the_cap_is_its_own_family(self):
        # The same policy as exact_boxicity: a cointerval host is the one
        # maximal subset at any size, and it is the one-part certificate of
        # its complement.
        for host in (
            complete_graph(25),
            complement(path_graph(10)),
            complement(path_graph(64)),
        ):
            assert host.num_edges() > engine.DEFAULT_COMPLEMENT_EDGE_CAP
            family = maximal_cointerval_family(host)
            assert family == [host]
            assert list(exact_boxicity(complement(host)).certificate.parts) == family

    def test_deterministic_and_sorted(self):
        host = complement(mycielski(complete_graph(3), 2)[0])
        fam1 = maximal_cointerval_family(host)
        fam2 = maximal_cointerval_family(host)
        assert fam1 == fam2
        keys = [p.edges() for p in fam1]
        assert keys == sorted(keys)


def with_universal(g, i):
    """g with a universal vertex inserted at label i: the labels from i on
    move up by one."""
    up = [v + (v >= i) for v in range(g.n)]
    pairs = [(up[u], up[v]) for u, v in g.edges()] + [(i, w) for w in up]
    return Graph.from_edges(g.n + 1, pairs)


class TestPrefixDP:
    def test_matches_the_scan_on_corpus_and_large_hosts(self, graphs_by_n):
        # Every graph with up to 7 vertices that is not interval, so the stage
        # builds a family for it, and the complements of the large hosts, all
        # but one of which (random host 15, 21 edges) are not interval.
        corpus = [g for n in range(1, 8) for g in graphs_by_n[n]]
        large = [complement(host) for host in _large_hosts()]
        checked = 0
        for g in corpus + large:
            if _is_interval_masks(g.n, g.adj):
                continue
            host = complement(g)
            dp, _ = engine._prefix_dp_masks(host)
            scan, _ = engine._maximal_cointerval_masks(host)
            assert sorted(dp) == sorted(scan)
            checked += 1
        assert checked == 747 + len(large) - 1

    def test_steps_are_prefix_vertex_pairs(self):
        # Every prefix of the s non-isolated host vertices is reached, and
        # each takes one step per vertex outside it: s * 2^(s-1) in all. The
        # universal vertex of C5 plus an apex adds none.
        apex = join(cycle_graph(5), complete_graph(1))
        for g, steps in ((cycle_graph(5), 80), (apex, 80), (cycle_graph(8), 1024)):
            assert engine._prefix_dp_masks(complement(g))[1] == steps

    def test_universal_vertex_at_any_label_drops_out(self, graphs_by_n):
        # The DP renumbers the host's non-isolated vertices in order, so a
        # universal vertex of g, an isolated one of the host, may sit at any
        # label: the family stays the scan's and the steps s * 2^(s-1).
        checked = 0
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                if _is_interval_masks(g.n, g.adj):
                    continue
                for i in range(n + 1):
                    h = with_universal(g, i)
                    host = complement(h)
                    assert not host.adj[i]
                    s = sum(1 for row in host.adj if row)
                    dp, steps = engine._prefix_dp_masks(host)
                    scan, _ = engine._maximal_cointerval_masks(host)
                    assert sorted(dp) == sorted(scan)
                    assert steps == s << (s - 1)
                    checked += 1
        assert checked == 495

    def test_digest_pinned(self, graphs_by_n):
        # The sorted family and the step count on every graph with up to 7
        # vertices and on the complements of the large hosts: a rewrite of
        # the DP's inner loop must reach the same family in the same steps.
        digest = hashlib.sha256()
        graphs = [g for n in range(1, 8) for g in graphs_by_n[n]]
        for g in graphs + [complement(host) for host in _large_hosts()]:
            family, steps = engine._prefix_dp_masks(complement(g))
            digest.update(f"{sorted(family)} {steps}\n".encode())
        assert digest.hexdigest() == (
            "6e140be4bb622dc9c91abdaa6020a83b7ab99e9174c9d5841f4b6e2a659c96e1"
        )

    def test_vertex_limit(self):
        # The perfect-matching host on 16 vertices, s = DP_MAX_VERTICES: every
        # prefix is stepped, 16 * 2^15 steps, and each maximal cointerval
        # subset is a single edge.
        s = engine.DP_MAX_VERTICES
        host = Graph.from_edges(s, [(2 * i, 2 * i + 1) for i in range(s // 2)])
        family, steps = engine._prefix_dp_masks(host)
        assert sorted(family) == [1 << p for p in range(s // 2)]
        assert steps == 524_288

    def test_superset_candidate_before_its_subset_is_dropped(self, monkeypatch):
        # g is the edge 0-2 and the isolated vertex 1, so the host is the path
        # 0-1-2 (edges 01 and 12, bits 0 and 1). Prefix {0, 1} gets its
        # candidates in layer order: first from {0}, whose vertex 0 still
        # reaches its g-neighbour 2, so placing 1 fills 01; then from {1},
        # which reaches nothing: the candidates arrive as [1, 0], the superset
        # first, and only the empty fill stays.
        seen = []
        real = engine._minimal_masks
        monkeypatch.setattr(
            engine, "_minimal_masks", lambda masks: seen.append(list(masks)) or real(masks)
        )
        g = Graph.from_edges(3, [(0, 2)])
        assert engine._prefix_dp_masks(complement(g)) == ([3], 12)
        assert [1, 0] in seen
        assert real([1, 0]) == [0]
        assert real([7, 3, 3, 5, 4]) == [4, 3]

    def test_dense_hosts_go_to_the_dp_and_sparse_ones_to_the_scan(self, monkeypatch):
        calls = []
        for name in ("_prefix_dp_masks", "_maximal_cointerval_masks"):
            method = getattr(engine, name)
            monkeypatch.setattr(
                engine, name, lambda *args, n=name, f=method: calls.append(n) or f(*args)
            )
        cap = engine.DEFAULT_COMPLEMENT_EDGE_CAP
        # A host with m edges on s non-isolated vertices takes the DP from
        # m = 2s on. C7's host has 14 edges on 7 vertices, m = 2s; with the
        # chord 0-2, g is still not interval (it holds a chordless 6-cycle)
        # and its host has 13 edges on the same 7 vertices, m = 2s - 1.
        c7 = cycle_graph(7)
        chorded = Graph.from_edges(7, c7.edges() + [(0, 2)])
        for g, m in ((c7, 14), (chorded, 13)):
            host = complement(g)
            assert (host.num_edges(), sum(1 for row in host.adj if row)) == (m, 7)
            engine._maximal_cointerval_family_masks(g, cap)
        # The host P12 has 11 edges on 12 vertices, far below 2s.
        engine._maximal_cointerval_family_masks(complement(path_graph(12)), cap)
        assert calls == [
            "_prefix_dp_masks",
            "_maximal_cointerval_masks",
            "_maximal_cointerval_masks",
        ]
        # Over the DP vertex limit a dense host goes to the scan too.
        monkeypatch.setattr(engine, "DP_MAX_VERTICES", 7)
        engine._maximal_cointerval_family_masks(cycle_graph(8), cap)
        assert calls[3:] == ["_maximal_cointerval_masks"]

    def test_hosts_over_the_dp_vertex_limit_go_to_the_scan(self, monkeypatch):
        # K_{2x k}'s host is a perfect matching: k edges on s = 2k vertices,
        # past DP_MAX_VERTICES from k = 9 on and within the default cap. No
        # two matching edges share a cointerval part, so the family is the k
        # single edges and the boxicity is k (Roberts 1969).
        def refuse(host):
            raise AssertionError("the DP took a host over its vertex limit")

        monkeypatch.setattr(engine, "_prefix_dp_masks", refuse)
        for k in range(9, 13):
            g = complete_multipartite([2] * k)
            assert 2 * k > engine.DP_MAX_VERTICES
            result = exact_boxicity(g)
            assert (result.value, result.family_size) == (k, k)
            assert verify_cointerval_cover(g, result.certificate)

    def test_scan_past_the_recursion_limit_is_refused(self):
        # The scan recurses once per host edge: C50's host has 1,175 edges,
        # so a raised cap reaches the recursion limit, and the refusal names
        # it instead of crashing.
        with pytest.raises(CapacityError, match="1175 edges.*recursion limit"):
            exact_boxicity(cycle_graph(50), 5000)

    def test_raised_cap_answers_with_verified_certificates(self):
        # Dense hosts with 35 to 44 edges, over the default cap, where the
        # scan takes seconds: the DP answers each in well under one.
        cases = [
            (cycle_graph(10), 2, 430),
            (cycle_graph(11), 2, 1551),
            (mycielski(cycle_graph(5), 2)[0], 3, 425),
            (mycielski(path_graph(5), 2)[0], 2, 295),
        ]
        for g, value, family_size in cases:
            result = exact_boxicity(g, 60)
            assert (result.value, result.family_size) == (value, family_size)
            assert verify_cointerval_cover(g, result.certificate)


class TestExactBoxicity:
    def test_complete_is_zero(self):
        result = exact_boxicity(complete_graph(7))
        assert result.value == 0
        assert result.certificate.parts == ()
        assert result.box_rep.dimension == 1

    def test_complete_runs_the_main_path(self):
        # An edgeless complement has one maximal subset, the empty one, as
        # ``maximal_cointerval_family`` reports, and the empty cover needs no
        # search.
        result = exact_boxicity(complete_graph(5))
        assert (result.value, result.nodes_explored, result.family_size) == (0, 0, 1)

    def test_four_cycle(self):
        assert exact_boxicity(cycle_graph(4)).value == 2

    def test_mycielski_of_four_cycle(self):
        assert exact_boxicity(mycielski(cycle_graph(4), 2)[0]).value == 2

    def test_matching_plus_clique_shape(self):
        assert exact_boxicity(complement(d_graph(3))).value == 2

    def test_octahedron(self):
        assert exact_boxicity(complete_multipartite([2, 2, 2])).value == 3

    def test_mycielski_of_edgeless_stays_one(self):
        # A star plus isolated vertices is interval, so these stay at 1, the
        # boxicity of the edgeless base.
        for n, r in [(2, 2), (3, 2), (2, 3)]:
            myc, _ = mycielski(empty_graph(n), r)
            assert exact_boxicity(myc).value == 1
            assert exact_boxicity(empty_graph(n)).value == 1

    def test_matches_brute_oracle(self, graphs_by_n):
        for n in range(1, 6):
            for g in graphs_by_n[n]:
                assert exact_boxicity(g).value == brute_boxicity(g)

    def test_certificates_verify_on_corpus(self, graphs_by_n):
        digest = hashlib.sha256()
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                result = exact_boxicity(g)
                assert verify_cointerval_cover(g, result.certificate).ok
                assert len(result.certificate.parts) == result.value
                assert verify_box_representation(g, result.box_rep).ok
                assert result.box_rep.dimension == max(result.value, 1)
                digest.update(format_cover(result.certificate).encode())
        assert digest.hexdigest() == (
            "121bdca16d2f2692438f4eb6e8d95c97928f5a5a84d3a972427149019901a0d2"
        )

    def test_roberts_ceiling(self, graphs_by_n):
        for n in range(2, 6):
            for g in graphs_by_n[n]:
                if g != complete_graph(n):
                    assert 1 <= exact_boxicity(g).value <= n // 2

    def test_monotone_under_induced_subgraphs(self, graphs_by_n):
        rng = random.Random(17)
        for g in graphs_by_n[5][::4]:
            box = exact_boxicity(g).value
            for _ in range(3):
                s = rng.sample(range(5), rng.randint(1, 4))
                assert exact_boxicity(induced_subgraph(g, s)).value <= box

    def test_focalization_invariance_small(self, graphs_by_n):
        for n in range(1, 5):
            for g in graphs_by_n[n]:
                assert (
                    exact_boxicity(focalize(g, 1)).value == exact_boxicity(g).value
                )

    def test_deterministic_certificate(self):
        g = mycielski(complete_graph(3), 2)[0]
        a = exact_boxicity(g)
        b = exact_boxicity(g)
        assert format_cover(a.certificate) == format_cover(b.certificate)

    def test_invariant_under_relabeling(self, graphs_by_n):
        rng = random.Random(41)
        for g in graphs_by_n[5][::5]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(
                g.n, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            assert exact_boxicity(relabeled).value == exact_boxicity(g).value

    def test_capacity_error(self):
        # C8 is not interval, and its complement has 20 edges.
        with pytest.raises(CapacityError, match="max-complement-edges"):
            exact_boxicity(cycle_graph(8), max_complement_edges=19)
        assert exact_boxicity(cycle_graph(8), max_complement_edges=20).value == 2

    def test_interval_graphs_skip_the_scan(self, graphs_by_n, monkeypatch):
        # An interval graph's complement is cointerval, so it is the one
        # maximal subset and the one-part cover. The answer from the decision
        # equals the scan's on every interval graph with up to 7 vertices, and
        # its node count is the cover search's alone.
        interval_graphs = [
            g for n in range(1, 8) for g in graphs_by_n[n] if _is_interval_masks(g.n, g.adj)
        ]
        assert len(interval_graphs) == 505
        with monkeypatch.context() as m:
            m.setattr(engine, "_is_interval_masks", lambda n, adj: False)
            scanned = [exact_boxicity(g) for g in interval_graphs]

        def refuse(*args):
            raise AssertionError("an interval graph reached the scan")

        monkeypatch.setattr(engine, "_maximal_cointerval_masks", refuse)
        for g, want in zip(interval_graphs, scanned):
            result = exact_boxicity(g)
            assert result.value == want.value == (0 if g == complete_graph(g.n) else 1)
            assert format_cover(result.certificate) == format_cover(want.certificate)
            assert result.box_rep == want.box_rep
            assert result.family_size == want.family_size == 1
            universe = (1 << complement(g).num_edges()) - 1
            assert result.nodes_explored == engine._minimum_cover(universe, [universe])[1]

    def test_interval_graph_over_the_cap_is_answered(self):
        # The cap bounds the scan, and an interval graph needs none: the
        # decision answers at any size with the one-part cover, which the
        # cover search takes in two nodes. C9 is not interval, and its
        # complement has 27 edges, over the default cap of 24.
        for g in (path_graph(10), path_graph(64), star_graph(30), empty_graph(64)):
            result = exact_boxicity(g)
            assert result.value == 1 and result.nodes_explored == 2
            assert result.certificate.parts == (result.certificate.host,)
            assert verify_cointerval_cover(g, result.certificate)
        with pytest.raises(CapacityError, match="max-complement-edges"):
            exact_boxicity(cycle_graph(9))

    def test_uncoverable_universe_is_refused(self):
        with pytest.raises(SelfCheckError, match="uncoverable"):
            engine._minimum_cover(0b111, [0b011, 0b001])

    def test_refusal_builds_no_complement(self, monkeypatch):
        # C9's 27 complement edges are counted on its own rows, so the
        # refusal comes before the complement is built.
        def refuse(g):
            raise AssertionError("a refused graph had its complement built")

        monkeypatch.setattr(engine, "complement", refuse)
        with pytest.raises(CapacityError, match="max-complement-edges"):
            exact_boxicity(cycle_graph(9))

    def test_reports_search_stats(self):
        result = exact_boxicity(cycle_graph(4))
        assert result.nodes_explored > 0
        assert result.family_size == 2


class TestOneOrientation:
    """The interval order that decides a cover part cointerval is the one its
    coordinate of the boxes is laid out from: ``exact_boxicity`` orients each
    part once, and each ``box_rep`` access orients each part once more."""

    def test_exact_boxicity(self, orientation_calls):
        # One for the interval decision on C8, which is not interval, and
        # one per certificate part.
        result = exact_boxicity(cycle_graph(8))
        assert len(orientation_calls) == len(result.certificate.parts) + 1 == 3

    def test_each_box_rep_access(self, orientation_calls):
        result = exact_boxicity(cycle_graph(8))
        orientation_calls.clear()
        assert result.box_rep == result.box_rep
        assert len(orientation_calls) == 2 * len(result.certificate.parts) == 4

    def test_cover_to_box_representation(self, orientation_calls):
        g = cycle_graph(8)
        cover = exact_boxicity(g).certificate
        orientation_calls.clear()
        rep = cover_to_box_representation(g, cover)
        assert verify_box_representation(g, rep)
        assert len(orientation_calls) == len(cover.parts) == 2


class TestNoCyclicGarbage:
    """The recursive searches are closures that hold themselves through
    their cells; each drops that reference when its outermost call returns,
    so a call's search state is freed at once, not by the cycle collector."""

    CALLS = {
        # K_{2,2,2,2}'s host is a perfect matching (4 edges on 8 vertices,
        # the subset scan); C8's has 20 edges on 8 vertices (the prefix DP).
        "scan": lambda: exact_boxicity(complete_multipartite([2, 2, 2, 2])),
        "prefix DP": lambda: exact_boxicity(cycle_graph(8)),
        "survey row": lambda: survey_row(cycle_graph(7)),
        "is_interval": lambda: intervals.is_interval(path_graph(6)),
        "chromatic_number": lambda: chromatic_number(cycle_graph(7)),
        "are_isomorphic": lambda: are_isomorphic(cycle_graph(7), cycle_graph(7)),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_call_leaves_no_cycles(self, name):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            self.CALLS[name]()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestBoxesOnDemand:
    """A result keeps its certificate's parts as masks, not its boxes:
    ``box_rep`` builds and verifies them on each access, and a request for
    values builds none."""

    def test_box_rep_is_not_stored(self):
        assert "box_rep" not in {f.name for f in dataclasses.fields(engine.BoxicityResult)}

    def test_value_requests_build_no_boxes(self, monkeypatch):
        def refuse(order):
            raise AssertionError("a value request built a box representation")

        monkeypatch.setattr(engine, "_order_layout", refuse)
        for g in (cycle_graph(4), path_graph(4), complete_graph(3)):
            assert survey_row(g).all_pass()
            assert compute_bounds_report(g, include_exact=True).exact is not None
            assert exact_boxicity(g).value <= thm11_upper(g.n, chromatic_number(g))
        assert pair_lower_bound(complete_multipartite([2] * 4), [0, 1, 2, 3], [4, 5, 6, 7]) == 4
        with pytest.raises(AssertionError, match="value request"):
            exact_boxicity(cycle_graph(5)).box_rep

    def test_box_rep_is_the_certificate_boxes_on_corpus(self, graphs_by_n):
        # The layouts are pinned: building boxes on access moved no interval.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                result = exact_boxicity(g)
                rep = result.box_rep
                assert verify_box_representation(g, rep)
                assert rep == cover_to_box_representation(g, result.certificate)
                digest.update(f"{rep.dimension} {rep.boxes}\n".encode())
        assert digest.hexdigest() == (
            "4c62ee78f91854810fa9c55817d83ddcacd922c5e7a24b347ea872ee01908859"
        )


class TestResultKeepsMasks:
    """A result keeps the caller's g and the certificate's parts as masks
    over the host's edges; the host and the cover are built on each
    ``host`` or ``certificate`` access, and value requests ask for
    neither."""

    @staticmethod
    def graphs_in(obj):
        if isinstance(obj, Graph):
            yield obj
        elif isinstance(obj, tuple):
            for item in obj:
                yield from TestResultKeepsMasks.graphs_in(item)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                yield from TestResultKeepsMasks.graphs_in(getattr(obj, f.name))

    def test_holds_no_graph_but_g(self):
        # The scan (K_{2,2,2,2}), the prefix DP (C8), an interval graph and a
        # complete one, whose certificate has no part. The result keeps the
        # caller's own g and builds the host on each access.
        for g in (
            complete_multipartite([2, 2, 2, 2]),
            cycle_graph(8),
            path_graph(5),
            complete_graph(4),
        ):
            result = exact_boxicity(g)
            assert [id(h) for h in self.graphs_in(result)] == [id(g)]
            assert result.host == complement(g)
            assert all(isinstance(mask, int) for mask in result.part_masks)

    def test_certificate_and_boxes_are_the_masks_on_corpus(self, graphs_by_n):
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                result = exact_boxicity(g)
                edges = result.host.edges()
                lists = [
                    [edges[p] for p in range(len(edges)) if mask >> p & 1]
                    for mask in result.part_masks
                ]
                assert lists == sorted(lists)  # certificate order
                cover = CointervalCover(
                    result.host, tuple(Graph.from_edges(n, pairs) for pairs in lists)
                )
                assert len(lists) == result.value
                assert format_cover(result.certificate) == format_cover(cover)
                assert result.box_rep == cover_to_box_representation(g, cover)

    def test_value_requests_never_read_the_certificate(self, connected_by_n, monkeypatch):
        reads = []
        built = engine.BoxicityResult.certificate
        monkeypatch.setattr(
            engine.BoxicityResult,
            "certificate",
            property(lambda result: reads.append(result) or built.fget(result)),
        )
        for n in range(1, 7):
            for g in connected_by_n[n]:
                survey_row(g)
                compute_bounds_report(g)
                compute_bounds_report(g, 3)
        assert reads == []
        # The counter sees a read.
        format_cover(exact_boxicity(cycle_graph(5)).certificate)
        assert len(reads) == 1

    def test_rows_and_reports_never_read_the_host(self, connected_by_n, monkeypatch):
        # Survey rows and bounds reports take the host the engine built for
        # g from ``_exact_boxicity``, so no result builds it again.
        reads = []
        built = engine.BoxicityResult.host
        monkeypatch.setattr(
            engine.BoxicityResult,
            "host",
            property(lambda result: reads.append(result) or built.fget(result)),
        )
        for g in connected_by_n[6]:
            survey_row(g)
            compute_bounds_report(g)
        assert reads == []
        assert exact_boxicity(cycle_graph(5)).host == complement(cycle_graph(5))
        assert len(reads) == 1


class TestVerifyCover:
    def test_accepts_engine_output(self):
        g = cycle_graph(4)
        result = exact_boxicity(g)
        assert verify_cointerval_cover(g, result.certificate).ok

    def test_rejects_missing_edge(self):
        g = cycle_graph(4)
        host = complement(g)
        cover = CointervalCover(host, (Graph.from_edges(host.n, [(0, 2)]),))
        verdict = verify_cointerval_cover(g, cover)
        assert not verdict.ok
        assert "1-3" in verdict.reason

    def test_rejects_non_cointerval_part(self):
        g = complete_multipartite([2, 2])  # complement is two disjoint edges
        host = complement(g)
        cover = CointervalCover(host, (Graph.from_edges(host.n, host.edges()),))
        verdict = verify_cointerval_cover(g, cover)
        assert not verdict.ok
        assert "not cointerval" in verdict.reason

    def test_rejects_foreign_edge(self):
        g = cycle_graph(4)
        host = complement(g)
        cover = CointervalCover(
            host, (Graph.from_edges(host.n, [(0, 1)]), Graph.from_edges(host.n, host.edges()))
        )
        verdict = verify_cointerval_cover(g, cover)
        assert not verdict.ok
        assert "non-host edge 0-1" in verdict.reason

    def test_host_mismatch_is_an_error(self):
        g = cycle_graph(4)
        cover = CointervalCover(g, ())  # host must be the complement, not g
        with pytest.raises(ValueError, match="complement"):
            verify_cointerval_cover(g, cover)

    def test_host_off_by_one_pair_is_an_error(self, graphs_by_n):
        # Every host that differs from the complement in one pair, or in its
        # vertex count, is refused before any part is read.
        for g in graphs_by_n[4]:
            host = complement(g)
            for u, v in itertools.combinations(range(4), 2):
                rows = list(host.adj)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                with pytest.raises(ValueError, match="complement"):
                    verify_cointerval_cover(g, CointervalCover(Graph(4, tuple(rows)), ()))
            wider = Graph(5, host.adj + (0,))
            with pytest.raises(ValueError, match="complement"):
                verify_cointerval_cover(g, CointervalCover(wider, ()))

    def test_part_replacement_by_maximal_superset(self, graphs_by_n):
        for g in graphs_by_n[4]:
            result = exact_boxicity(g)
            host = complement(g)
            family = maximal_cointerval_family(host)
            for i, part in enumerate(result.certificate.parts):
                superset = next(
                    f for f in family if set(part.edges()) <= set(f.edges())
                )
                parts = list(result.certificate.parts)
                parts[i] = superset
                patched = CointervalCover(host, tuple(parts))
                assert verify_cointerval_cover(g, patched).ok

    def test_mutated_certificate_reasons_digest(self, graphs_by_n):
        # Pins every verdict and reason string on three mutations of each
        # engine certificate: drop an edge, add a non-host edge, merge parts.
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 7):
            for g in graphs_by_n[n]:
                lines = format_cover(exact_boxicity(g).certificate).splitlines()
                k = len(lines) - 2
                mutations = []
                if k >= 1 and lines[2]:
                    drop = list(lines)
                    drop[2] = " ".join(drop[2].split()[1:])
                    mutations.append(("drop", drop))
                if k >= 1 and g.edges():
                    u, v = g.edges()[0]
                    foreign = list(lines)
                    foreign[2] = (foreign[2] + f" {u}-{v}").strip()
                    mutations.append(("foreign", foreign))
                if k >= 2:
                    merge = list(lines)
                    merge[1] = f"parts {k - 1}"
                    merge[2:4] = [merge[2] + " " + merge[3]]
                    mutations.append(("merge", merge))
                for tag, mutated in mutations:
                    cover = parse_cover("\n".join(mutated) + "\n")
                    verdict = verify_cointerval_cover(g, cover)
                    line = f"{graph6_encode(g)}|{tag}|{verdict.ok}|{verdict.reason}\n"
                    digest.update(line.encode())
                    count += 1
        assert count == 471
        assert digest.hexdigest() == (
            "b6e4bc21d97377d7292d0613575165f22d2c5b30a32ef5273e85932a9a46fbe9"
        )


class TestBoxRepresentation:
    def test_pipeline_four_cycle(self):
        g = cycle_graph(4)
        result = exact_boxicity(g)
        rep = cover_to_box_representation(g, result.certificate)
        assert rep.dimension == 2
        assert verify_box_representation(g, rep).ok

    def test_pipeline_mycielski(self):
        g = mycielski(cycle_graph(4), 2)[0]
        result = exact_boxicity(g)
        rep = cover_to_box_representation(g, result.certificate)
        assert rep.dimension == 2
        assert verify_box_representation(g, rep).ok

    def test_identical_boxes_represent_complete(self):
        rep = BoxRep(1, (((0, 5),),) * 4)
        assert verify_box_representation(complete_graph(4), rep).ok

    def test_disjoint_intervals_represent_edgeless(self):
        rep = BoxRep(1, tuple(((2 * i, 2 * i),) for i in range(4)))
        assert verify_box_representation(empty_graph(4), rep).ok

    def test_dimension_zero_needs_complete(self):
        rep = BoxRep(0, ((), (), ()))
        assert verify_box_representation(complete_graph(3), rep).ok
        assert not verify_box_representation(path_graph(3), rep).ok

    def test_rejects_wrong_adjacency(self):
        rep = BoxRep(1, (((0, 1),), ((2, 3),), ((1, 2),)))
        verdict = verify_box_representation(path_graph(3), rep)
        assert not verdict.ok and "0 and 1" in verdict.reason

    def test_matches_pairwise_oracle_on_corpus_and_mutations(self, graphs_by_n):
        # The engine's boxes and every single-endpoint +-1 move of them, on
        # every graph with up to 6 vertices: same verdict, same message.
        count = rejected = 0

        def check(g, rep, moved):
            nonlocal count, rejected
            reps = [rep]
            for v in moved:
                for j in range(rep.dimension):
                    for end in (0, 1):
                        for delta in (-1, 1):
                            box = list(rep.boxes[v])
                            ends = list(box[j])
                            ends[end] += delta
                            box[j] = tuple(ends)
                            boxes = list(rep.boxes)
                            boxes[v] = tuple(box)
                            reps.append(BoxRep(rep.dimension, tuple(boxes)))
            for r in reps:
                verdict = verify_box_representation(g, r)
                assert verdict == brute_verify_box_representation(g, r)
                count += 1
                rejected += not verdict.ok

        for n in range(1, 7):
            for g in graphs_by_n[n]:
                check(g, exact_boxicity(g).box_rep, range(n))
        assert (count, rejected) == (6592, 4376)
        # At full size: the 2-dimensional boxes of M(star:30), 63 vertices,
        # built from the Mycielski construction's cover, and the moves of the
        # centre, two leaves, their copies and the apex.
        base = star_graph(30)
        cover = CliqueCover(complement(base), (tuple(range(1, 31)),))
        g = mycielski(base, 2)[0]
        rep = cover_to_box_representation(g, mycielski_cover(base, cover))
        assert rep.dimension == 2
        count = rejected = 0
        check(g, rep, (0, 1, 30, 31, 32, 61, 62))
        assert (count, rejected) == (57, 39)

    def test_boxes_run_no_clique_search_on_corpus(self, graphs_by_n, monkeypatch):
        # Each part is laid out from an orientation of the part itself.
        def fail(*args):
            raise AssertionError("box building ran the clique search")

        monkeypatch.setattr(intervals, "_consecutive_order", fail)
        monkeypatch.setattr(intervals, "_maximal_cliques_masks", fail)
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                rep = exact_boxicity(g).box_rep
                assert brute_verify_box_representation(g, rep).ok

    def test_rejects_unverified_cover(self):
        g = cycle_graph(4)
        host = complement(g)
        bad = CointervalCover(host, (Graph.from_edges(host.n, [(0, 2)]),))
        with pytest.raises(ValueError, match="does not verify"):
            cover_to_box_representation(g, bad)


class TestMatchingLowerBound:
    def test_cocktail_party(self):
        for n in (2, 3, 4):
            g = complete_multipartite([2] * n)
            assert matching_lower_bound(g) == (n + 1) // 2

    def test_mycielski_core_without_apex(self):
        for n in (3, 4):
            myc, layout = mycielski(complete_graph(n), 2)
            core = induced_subgraph(myc, list(range(layout.apex)))
            assert matching_lower_bound(core) == (n + 1) // 2

    def test_complete_graph_is_zero(self):
        assert matching_lower_bound(complete_graph(5)) == 0

    def test_is_a_lower_bound(self, graphs_by_n):
        for n in range(1, 6):
            for g in graphs_by_n[n]:
                assert matching_lower_bound(g) <= exact_boxicity(g).value

    def test_exact_path_matches_definition(self, graphs_by_n):
        # Oracle from the definition: the largest k with ordered vertex
        # sequences a_1..a_k and b_1..b_k, all distinct, whose complement
        # cross pairs are exactly the pairs a_i b_i; the bound is ceil(k/2).
        def largest_k(g):
            co = complement(g)
            best = 0

            def extend(pairs, used):
                nonlocal best
                best = max(best, len(pairs))
                for a, b in itertools.permutations(range(g.n), 2):
                    if used >> a & 1 or used >> b & 1 or not co.has_edge(a, b):
                        continue
                    if all(
                        not co.has_edge(a, y) and not co.has_edge(x, b)
                        for x, y in pairs
                    ):
                        extend(pairs + [(a, b)], used | 1 << a | 1 << b)

            extend([], 0)
            return best

        for n in range(1, 7):
            for g in graphs_by_n[n]:
                assert matching_bound_detail(g) == ((largest_k(g) + 1) // 2, "exact")

    def test_exact_path_on_many_maximal_cliques(self):
        # The complement K5+K5+K4 is 14 vertices, the largest exact case, and
        # its compatibility graph has 4,800 maximal cliques.
        g = complete_multipartite([5, 5, 4])
        assert matching_bound_detail(g) == (2, "exact")

    def test_exactness_marker(self):
        value, how = matching_bound_detail(cycle_graph(4))
        assert how == "exact" and value == 1
        big = complete_multipartite([2] * 8)  # 16 vertices, above the exact cap
        value, how = matching_bound_detail(big)
        assert how == "heuristic" and value >= 1


class TestPairLowerBound:
    def test_split_cocktail_party(self):
        g = complete_multipartite([2] * 4)
        assert pair_lower_bound(g, [0, 1, 2, 3], [4, 5, 6, 7]) == 4
        assert exact_boxicity(g).value == 4

    def test_trivial_side_contributes_zero(self):
        g = complete_multipartite([2, 2])
        # One matched pair on each side; each side induces a single complement
        # edge, contributing boxicity 1.
        assert pair_lower_bound(g, [0, 1], [2, 3]) == 2
        myc, layout = mycielski(complete_graph(2), 2)
        # The complement of this Mycielski graph is a 5-cycle; the apex sits
        # at distance two from the second-copy pair, whose side contributes 1
        # while the edgeless singleton side contributes 0.
        pair = [layout.copy(2, 0), layout.copy(2, 1)]
        assert pair_lower_bound(myc, [layout.apex], pair) == 1

    def test_join_keeps_boxicity_two(self):
        star_myc, _ = mycielski(star_graph(3), 2)
        g = join(complete_graph(3), star_myc)
        bound = pair_lower_bound(g, [0, 1, 2], list(range(3, g.n)))
        assert bound == 2
        assert exact_boxicity(g).value == 2

    def test_rejects_close_sets(self):
        g = complete_multipartite([2, 2])
        with pytest.raises(ValueError, match="need at least 2"):
            pair_lower_bound(g, [0], [1])

    def test_rejects_overlap_and_empty(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            pair_lower_bound(g, [0], [0, 1])
        with pytest.raises(ValueError):
            pair_lower_bound(g, [], [1])


class TestCertificateFormat:
    def test_round_trip(self):
        g = mycielski(complete_graph(3), 2)[0]
        cover = exact_boxicity(g).certificate
        assert parse_cover(format_cover(cover)) == cover

    def test_format_golden(self):
        g = cycle_graph(4)
        text = format_cover(exact_boxicity(g).certificate)
        assert text == "host CQ\nparts 2\n0-2\n1-3\n"

    def test_parser_normalizes_order(self):
        text = "host CQ\nparts 2\n1-3\n0-2\n"
        cover = parse_cover(text)
        assert format_cover(cover) == "host CQ\nparts 2\n0-2\n1-3\n"

    def test_parts_ordered_by_edge_lists(self):
        # Parts are ordered as their edge lists compare, an edge list that is
        # a prefix of another first, and an empty part before every other;
        # also for parts on more vertices than the host, as a parsed
        # certificate may hold before it is verified.
        rng = random.Random(3)
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            wide = list(itertools.combinations(range(n + 1), 2))
            host = Graph.from_edges(n, pairs)
            parts = [Graph.from_edges(n, [])] + [
                Graph.from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
                for _ in range(12)
            ] + [
                Graph.from_edges(n + 1, rng.sample(wide, rng.randint(0, len(wide))))
                for _ in range(4)
            ]
            # Prefixes of one edge list, shuffled in.
            last = parts[-1]
            edges = last.edges()
            parts += [Graph.from_edges(last.n, edges[:k]) for k in range(len(edges))]
            rng.shuffle(parts)
            cover = CointervalCover(host, tuple(parts))
            assert [p.edges() for p in cover.parts] == sorted(p.edges() for p in parts)

    def test_parser_rejects_malformed(self):
        for bad in [
            "",
            "parts 2\nhost CQ\n",
            "host CQ\nparts x\n",
            "host CQ\nparts 2\n0-2\n",
            "host CQ\nparts 1\n0:2\n",
            "host CQ\nparts 1\n0-2\n1-3\n",
        ]:
            with pytest.raises(ValueError):
                parse_cover(bad)

    def test_empty_part_line(self):
        cover = parse_cover("host CQ\nparts 1\n\n")
        assert cover.parts[0].edges() == []
