import hashlib

import pytest

from boxicity.bounds import CliqueCover, edge_clique_cover, mycielski_kn_boxicity
from boxicity.constructions import (
    complete_mycielski_cover,
    mycielski_cover,
)
from boxicity.engine import format_cover, verify_cointerval_cover
from boxicity.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    mycielski,
    star_graph,
)
from boxicity.graphs import Graph, complement, focal_vertices


def surcharge(l):
    return 0 if (l == 0 or l % 2 == 1) else 1


class TestCompleteMycielskiCover:
    def test_part_counts_follow_parity(self):
        for n in range(2, 7):
            cover = complete_mycielski_cover(n)
            want = (n + 1) // 2 + (1 if n % 2 == 0 else 0)
            assert len(cover.parts) == want == mycielski_kn_boxicity(n)

    def test_covers_verify(self):
        for n in range(2, 7):
            myc, _ = mycielski(complete_graph(n), 2)
            cover = complete_mycielski_cover(n)
            assert verify_cointerval_cover(myc, cover).ok

    def test_two_parts_cover_five_cycle_complement(self):
        # Expanding the construction by hand on the 5-vertex host: part one is
        # induced on the apex, the second copy of the last base vertex and
        # both first copies; part two on both first copies plus all second
        # copies. Together they hit all five complement edges.
        myc, layout = mycielski(complete_graph(2), 2)
        host = complement(myc)
        assert host.num_edges() == 5
        cover = complete_mycielski_cover(2)
        assert len(cover.parts) == 2
        covered = set()
        for part in cover.parts:
            covered |= set(part.edges())
        assert covered == set(host.edges())

    def test_optimal_for_odd_sizes(self):
        # For odd n the construction is known to be optimal; confirmed by the
        # engine at n = 3.
        myc, _ = mycielski(complete_graph(3), 2)
        from boxicity.engine import exact_boxicity

        assert len(complete_mycielski_cover(3).parts) == exact_boxicity(myc).value

    def test_certificates_digest(self):
        # Pins the certificate text of the cover for n = 2..8.
        text = "".join(format_cover(complete_mycielski_cover(n)) for n in range(2, 9))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == (
            "999cb22efad1d3ca8776b56945d8ada1a28f3e8dbc7ca467486c800d5226faab"
        )

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            complete_mycielski_cover(1)

    def test_covers_convert_to_boxes(self):
        # Construction covers need not be minimum, but they still convert to
        # valid (higher-dimensional) box representations.
        from boxicity.engine import cover_to_box_representation, verify_box_representation

        for n in range(2, 6):
            myc, _ = mycielski(complete_graph(n), 2)
            cover = complete_mycielski_cover(n)
            rep = cover_to_box_representation(myc, cover)
            assert rep.dimension == len(cover.parts)
            assert verify_box_representation(myc, rep).ok


class TestMycielskiCover:
    def optimal_cover(self, g):
        _, cover = edge_clique_cover(complement(g))
        return cover

    def test_four_cycle_two_parts(self):
        g = cycle_graph(4)
        built = mycielski_cover(g, self.optimal_cover(g))
        assert len(built.parts) == 2
        myc, _ = mycielski(g, 2)
        assert verify_cointerval_cover(myc, built).ok

    def test_star_theta_plus_one(self):
        g = star_graph(3)
        built = mycielski_cover(g, self.optimal_cover(g))
        assert len(built.parts) == 2

    def test_complete_reduces_to_complete_construction(self):
        g = complete_graph(4)
        built = mycielski_cover(g, self.optimal_cover(g))
        assert len(built.parts) == 3
        assert built == complete_mycielski_cover(4)

    def test_edgeless_base(self):
        g = empty_graph(3)
        built = mycielski_cover(g, self.optimal_cover(g))
        myc, _ = mycielski(g, 2)
        assert verify_cointerval_cover(myc, built).ok
        assert len(built.parts) == 1

    def test_part_counts_and_verification_sweep(self, connected_by_n):
        for n in range(1, 6):
            for g in connected_by_n[n]:
                theta, cover = edge_clique_cover(complement(g))
                built = mycielski_cover(g, cover)
                l = len(focal_vertices(g))
                assert len(built.parts) <= theta + (l + 1) // 2 + surcharge(l)
                myc, _ = mycielski(g, 2)
                assert verify_cointerval_cover(myc, built).ok

    def test_certificates_digest_on_corpus(self, graphs_by_n):
        # Pins the certificate text of the cover built from the minimum clique
        # cover of the complement, for every graph with up to 7 vertices.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                _, cover = edge_clique_cover(complement(g))
                digest.update(format_cover(mycielski_cover(g, cover)).encode())
        assert digest.hexdigest() == (
            "bd92d0f4fcd512d8d76a5308f0b9ed1f1679ee3ad591857c28ea5786657c2d64"
        )

    def test_rejects_bad_clique_cover(self):
        g = cycle_graph(4)
        comp = complement(g)
        with pytest.raises(ValueError, match="does not verify"):
            mycielski_cover(g, CliqueCover(comp, ((0, 1),)))

    def test_wrong_host_is_an_error(self):
        # The host must be the complement of g exactly: off by one pair, the
        # graph itself, or on another vertex count.
        g = cycle_graph(5)
        comp = complement(g)
        u, v = comp.edges()[0]
        off_by_one = Graph.from_edges(5, [e for e in comp.edges() if e != (u, v)])
        for host in (off_by_one, g, complement(cycle_graph(6))):
            _, cover = edge_clique_cover(host)
            with pytest.raises(ValueError) as err:
                mycielski_cover(g, cover)
            assert str(err.value) == (
                "clique cover does not verify: cover host differs from the given graph"
            )

    def test_certificate_format_round_trip(self):
        from boxicity.engine import parse_cover

        built = complete_mycielski_cover(3)
        assert parse_cover(format_cover(built)) == built


class TestConstructionPlan:
    def test_rejects_incomplete_cover(self):
        g = cycle_graph(4)
        comp = complement(g)
        partial = CliqueCover(comp, (tuple(sorted(comp.edges()[0])),))
        with pytest.raises(ValueError):
            mycielski_cover(g, partial)
