import dataclasses
import hashlib
import subprocess
import sys
from collections import Counter

import pytest

from boxicity import bounds, cli, constructions, engine, intervals
from boxicity.errors import SelfCheckError
from boxicity.generators import (
    complete_graph,
    cycle_graph,
    focalize,
    mycielski,
    path_graph,
)
from boxicity.graphs import Graph, complement, graph6_decode, graph6_encode


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_graph6_output(self, capsys):
        code, out, _ = run_cli(["gen", "mycielski:cycle:4:2"], capsys)
        assert code == 0
        decoded = graph6_decode(out.strip())
        assert decoded.n == 9 and decoded.num_edges() == 16

    def test_round_trip_is_byte_identical(self, capsys):
        for spec in ["complete:5", "path:7", "star:4", "mycielski:complete:3:2"]:
            code, out, _ = run_cli(["gen", spec], capsys)
            assert code == 0
            text = out.strip()
            assert graph6_encode(graph6_decode(text)) == text

    def test_wrapping_flags(self, capsys):
        code, nested, _ = run_cli(["gen", "mycielski:focalize:cycle:4:1:2"], capsys)
        assert code == 0
        want = graph6_encode(mycielski(focalize(cycle_graph(4), 1), 2)[0])
        assert nested == want + "\n"

    def test_dot(self, capsys):
        code, out, _ = run_cli(["gen", "path:3", "--dot"], capsys)
        assert code == 0
        assert out.startswith("graph G {") and "1 -- 2;" in out

    def test_bad_spec_is_parse_error(self, capsys):
        code, _, err = run_cli(["gen", "dodecahedron:20"], capsys)
        assert code == 2 and "error" in err

    def test_huge_vertex_count_is_capacity_error(self, capsys):
        # Refused before any row is allocated: these specs once ran out of
        # memory and exited 5.
        huge = "99999999999"
        for spec in (
            f"complete:{huge}",
            f"empty:{huge}",
            f"path:{huge}",
            f"cycle:{huge}",
            f"star:{huge}",
            f"multipartite:{huge},1",
            f"mycielski:complete:3:{huge}",
            f"focalize:complete:3:{huge}",
        ):
            code, out, err = run_cli(["gen", spec], capsys)
            assert (code, out) == (3, "")
            assert err.startswith("capacity error: ") and "MAX_VERTICES=64" in err

    def test_huge_copy_count_is_capacity_error(self, tmp_path, capsys):
        listing = tmp_path / "c4.g6"
        listing.write_text("Cl\n")
        for args in (
            ["bounds", "Cl", "--r", "99999999999"],
            ["survey", str(listing), "--mycielski-r", "99999999999"],
        ):
            code, _, err = run_cli(args, capsys)
            assert code == 3 and "MAX_VERTICES=64" in err


class TestBox:
    def test_mycielski_four_cycle_value(self, tmp_path, capsys):
        code, out, _ = run_cli(["gen", "mycielski:cycle:4:2"], capsys)
        assert code == 0
        cert = tmp_path / "m2c4.cert"
        code, out, _ = run_cli(["box", out.strip(), "--out", str(cert)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "box 2"

    def test_value_and_certificate_file(self, tmp_path, capsys):
        cert = tmp_path / "c4.cert"
        four_cycle = graph6_encode(cycle_graph(4))
        code, out, _ = run_cli(["box", four_cycle, "--out", str(cert)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "box 2"
        assert f"certificate {cert}" in out
        assert cert.read_text() == "host CQ\nparts 2\n0-2\n1-3\n"

    def test_stdout_certificate(self, capsys):
        code, out, _ = run_cli(
            ["box", graph6_encode(cycle_graph(4)), "--stdout"], capsys
        )
        assert code == 0
        assert "host CQ" in out

    def test_capacity_exit(self, capsys):
        # C9 is not interval, and its complement has 27 edges.
        c9 = graph6_encode(cycle_graph(9))
        code, _, err = run_cli(["box", c9, "--max-complement-edges", "5"], capsys)
        assert code == 3 and "max-complement-edges" in err

    def test_interval_graph_over_the_cap_answers(self, tmp_path, capsys):
        # The complement of the 10-vertex path has 36 edges, over the default
        # cap, but the interval decision answers without the scan.
        g6 = graph6_encode(path_graph(10))
        code, out, _ = run_cli(["box", g6, "--stdout"], capsys)
        assert code == 0 and out.splitlines()[0] == "box 1"
        cert = tmp_path / "path10.cert"
        cert.write_text(out.split("\n", 1)[1])
        code, out, _ = run_cli(["verify-cover", g6, str(cert)], capsys)
        assert code == 0 and out.strip() == "accept"

    def test_bad_graph6_is_parse_error(self, capsys):
        code, _, err = run_cli(["box", "!!"], capsys)
        assert code == 2

    def test_unexpected_exception_exits_five(self, capsys, monkeypatch):
        def fail(g, cap):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "exact_boxicity", fail)
        code, out, err = run_cli(["box", "C]", "--stdout"], capsys)
        assert code == 5
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


class TestBoundsCommand:
    def test_multipartite_example(self, capsys):
        code, out, _ = run_cli(["bounds", "C}"], capsys)  # complete tripartite 1,1,2
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "graph6,lower,upper,exact"
        fields = row.split(",")
        lowers = dict(
            (tag, int(v)) for v, tag in (p.split(":") for p in fields[1].split(";"))
        )
        uppers = dict(
            (tag, int(v)) for v, tag in (p.split(":") for p in fields[2].split(";"))
        )
        assert lowers["cor3.6"] == 2
        assert uppers["thm4.2"] == 3
        assert fields[3] == ""

    def test_over_chromatic_cap_leaves_out_thm11(self, capsys):
        g6 = graph6_encode(complete_graph(17))
        code, out, _ = run_cli(["bounds", g6], capsys)
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row == f"{g6},9:cor3.6;9:lemma3.3,9:thm4.2;17:roberts-floor-n/2,"
        g6 = graph6_encode(complete_graph(16))
        code, out, _ = run_cli(["bounds", g6], capsys)
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row == (
            f"{g6},8:cor3.6;8:lemma3.3,9:thm4.2;16:roberts-floor-n/2;16:thm1.1,"
        )

    def test_over_engine_cap_leaves_out_cor36(self, capsys):
        header = "graph6,lower,upper,exact\n"
        code, out, _ = run_cli(["bounds", "HhCGGE@"], capsys)  # C9
        assert code == 0
        assert out == header + "HhCGGE@,1:lemma3.3,7:thm4.2;9:roberts-floor-n/2;8:thm1.1,\n"
        # P9's complement is over the cap too, but P9 is interval, so the
        # engine answers it and the row keeps Cor 3.6.
        code, out, _ = run_cli(["bounds", "HhCGGC@"], capsys)  # P9
        assert code == 0
        assert out == header + (
            "HhCGGC@,1:cor3.6;1:lemma3.3,6:thm4.2;9:roberts-floor-n/2;7:thm1.1,\n"
        )
        # Under the cap the row keeps Cor 3.6, byte for byte as before.
        code, out, _ = run_cli(["bounds", "Dhc"], capsys)  # C5
        assert code == 0
        assert out == header + "Dhc,2:cor3.6;2:lemma3.3,5:thm4.2;5:roberts-floor-n/2;5:thm1.1,\n"
        # --exact still runs the engine on M(P9) and names its cap.
        code, out, err = run_cli(["bounds", "HhCGGC@", "--exact"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("capacity error: host has 138 edges, over the cap 24")

    def test_over_clique_cover_cap_drops_only_thm42(self, capsys):
        header = "graph6,lower,upper,exact\n"
        # P11's complement has 45 edges, over the edge-clique-cover cap of
        # 40, so Thm 4.2 is left out and the row keeps every other bound.
        code, out, _ = run_cli(["bounds", "JhCGGC@?G?_"], capsys)  # P11
        assert code == 0
        assert out == header + "JhCGGC@?G?_,1:cor3.6;1:lemma3.3,11:roberts-floor-n/2;8:thm1.1,\n"
        # C12 is also refused by the engine, so Cor 3.6 goes too.
        code, out, _ = run_cli(["bounds", "KhCGGC@?G?o@"], capsys)  # C12
        assert code == 0
        assert out == header + "KhCGGC@?G?o@,1:lemma3.3,12:roberts-floor-n/2;9:thm1.1,\n"
        # P20 and the 30-leaf star are over the chromatic cap as well.
        for spec, row in (
            ("path:20", "1:cor3.6;1:lemma3.3,20:roberts-floor-n/2,"),
            ("star:30", "2:cor3.6;1:lemma3.3,31:roberts-floor-n/2,"),
        ):
            _, g6, _ = run_cli(["gen", spec], capsys)
            code, out, _ = run_cli(["bounds", g6.strip()], capsys)
            assert code == 0
            assert out == header + f"{g6.strip()},{row}\n"

    def test_exact_flag(self, capsys):
        code, out, _ = run_cli(["bounds", "A_", "--exact"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",2")


class TestInterval:
    def test_interval_graph(self, capsys):
        code, out, _ = run_cli(["interval", "BW"], capsys)  # a path on 3 vertices
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "interval"
        assert len(lines) == 4

    def test_non_interval_graph(self, capsys):
        code, out, _ = run_cli(["interval", "C]"], capsys)
        assert code == 0
        assert out.strip() == "not-interval"

    def test_many_cliques_answered_not_interval(self, capsys):
        # Complement of a perfect matching on 26 vertices: 8192 maximal
        # cliques, more than MAX_CLIQUES, yet recognition needs no cap.
        g = complement(Graph.from_edges(26, [(v, v + 1) for v in range(0, 26, 2)]))
        code, out, _ = run_cli(["interval", graph6_encode(g)], capsys)
        assert code == 0
        assert out == "not-interval\n"

    def test_witness_contradicting_decision_exits_four(self, capsys, monkeypatch):
        # An orientation that orients no edge is a chain of one empty
        # predecessor set: it accepts C5 and lays every vertex out at one point.
        monkeypatch.setattr(intervals, "_transitive_orientation", lambda n, rows: [0] * n)
        code, out, err = run_cli(["interval", graph6_encode(cycle_graph(5))], capsys)
        assert code == 4
        assert out == "" and "self-check" in err

    def test_witness_failing_verification_exits_four(self, capsys, monkeypatch):
        layout = intervals._order_layout
        monkeypatch.setattr(
            intervals, "_order_layout",
            lambda order: intervals.IntervalRep(layout(order).intervals[:-1] + ((9, 9),)),
        )
        code, out, err = run_cli(["interval", graph6_encode(path_graph(5))], capsys)
        assert code == 4
        assert out == "" and "failed verification" in err


class TestCoverCommands:
    def test_construct_and_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(["construct-cover", "--lemma41", "3"], capsys)
        assert code == 0
        cert = tmp_path / "l41.cert"
        cert.write_text(out)
        g6 = graph6_encode(mycielski(complete_graph(3), 2)[0])
        code, out, _ = run_cli(["verify-cover", g6, str(cert)], capsys)
        assert code == 0 and out.strip() == "accept"

    def test_thm42_variant(self, tmp_path, capsys):
        code, out, _ = run_cli(["construct-cover", "--thm42", "C]"], capsys)
        assert code == 0
        cert = tmp_path / "t42.cert"
        cert.write_text(out)
        myc6 = graph6_encode(mycielski(graph6_decode("C]"), 2)[0])
        code, out, _ = run_cli(["verify-cover", myc6, str(cert)], capsys)
        assert code == 0 and out.strip() == "accept"

    def test_tampered_certificate_rejected(self, tmp_path, capsys):
        code, out, _ = run_cli(["construct-cover", "--lemma41", "3"], capsys)
        lines = out.splitlines()
        lines[2] = " ".join(lines[2].split()[:-1])  # drop one edge
        cert = tmp_path / "bad.cert"
        cert.write_text("\n".join(lines) + "\n")
        g6 = graph6_encode(mycielski(complete_graph(3), 2)[0])
        code, out, _ = run_cli(["verify-cover", g6, str(cert)], capsys)
        assert code == 1 and out.startswith("reject")

    def test_certificate_for_another_graph_rejected(self, tmp_path, capsys):
        # A valid certificate checked against a graph whose complement is not
        # its host is a rejected certificate (exit 1), not a usage error.
        g6 = graph6_encode(mycielski(cycle_graph(4), 2)[0])
        code, out, _ = run_cli(["box", g6, "--stdout"], capsys)
        cert = tmp_path / "myc.cert"
        cert.write_text("".join(line + "\n" for line in out.splitlines()[1:]))
        code, out, err = run_cli(["verify-cover", graph6_encode(cycle_graph(5)), str(cert)], capsys)
        assert code == 1 and err == ""
        assert out == "reject cover host is not the complement of the given graph\n"

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run_cli(["verify-cover", "C]", "/nonexistent.cert"], capsys)
        assert code == 2


class TestSurvey:
    def test_passes_on_small_corpus(self, tmp_path, graphs_by_n, capsys):
        listing = tmp_path / "corpus.g6"
        listing.write_text(
            "".join(graph6_encode(g) + "\n" for n in range(1, 5) for g in graphs_by_n[n])
        )
        code, out, _ = run_cli(["survey", str(listing)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.SURVEY_HEADER
        assert len(lines) == 1 + 18
        assert all(line.endswith("pass,pass,pass,pass") for line in lines[1:])

    def test_golden_row_four_cycle(self, tmp_path, capsys):
        listing = tmp_path / "c4.g6"
        listing.write_text(graph6_encode(cycle_graph(4)) + "\n")
        code, out, _ = run_cli(["survey", str(listing)], capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == (
            "Cl,4,4,2,2,2,0,2,2,pass,pass,pass,pass"
        )

    def test_lowered_cap_checks_against_thm42(self, tmp_path, capsys):
        # M(K4) has 14 complement edges, over the cap of 10: the engine
        # refuses it, and the row checks Cor 3.6 against Thm 4.2 instead.
        listing = tmp_path / "k4.g6"
        listing.write_text("C~\n")
        code, out, _ = run_cli(
            ["survey", str(listing), "--max-complement-edges", "10"], capsys
        )
        assert code == 0
        assert out.splitlines()[1] == "C~,4,6,0,4,0,4,2,3,pass,pass,pass,pass"

    def test_exact_mycielski_check_wherever_the_engine_answers(
        self, connected_by_n, monkeypatch
    ):
        # Every row asks the engine for box(G) with its host, then for
        # box(M(G)); the second is answered at the default cap on 11 of the
        # 995 connected graphs with 2 to 7 vertices.
        answered = []

        def counted(ask):
            def wrapped(g, cap):
                result = ask(g, cap)
                answered.append(g)
                return result

            return wrapped

        for name in ("_exact_boxicity", "exact_boxicity"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        graphs = [g for n in range(2, 8) for g in connected_by_n[n]]
        exact_rows = 0
        for g in graphs:
            answered.clear()
            assert cli.survey_row(g).all_pass(), graph6_encode(g)
            assert answered in ([g], [g, mycielski(g, 2)[0]])
            exact_rows += len(answered) - 1
        assert (len(graphs), exact_rows) == (995, 11)

    def test_three_copy_mycielski_checks(self, tmp_path, graphs_by_n, capsys):
        listing = tmp_path / "corpus3.g6"
        listing.write_text(
            "".join(graph6_encode(g) + "\n" for n in range(1, 4) for g in graphs_by_n[n])
        )
        code, out, _ = run_cli(["survey", str(listing), "--mycielski-r", "3"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 7

    def test_exit_zero_on_corpus_up_to_six(self, tmp_path, graphs_by_n, capsys):
        listing = tmp_path / "corpus6.g6"
        listing.write_text(
            "".join(graph6_encode(g) + "\n" for n in range(1, 7) for g in graphs_by_n[n])
        )
        code, out, _ = run_cli(["survey", str(listing)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 208
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "14e1e8b61d343825589fd0980e2ea08b5d03227129fd6acb9645791057f4038c"
        )

    def test_each_invariant_computed_once_per_row(self, connected_by_n, monkeypatch):
        """Invariants and Mycielski builds are counted across modules: the
        row builds the Mycielski graph once and hands it to the cover
        construction, and builds g's complement once, in the engine, whose
        result's host the clique cover reads. (M(G)'s complement is
        built by both the engine and the cover construction.)"""
        calls = Counter()

        def counting(key, fn):
            def wrapped(g, *args, **kwargs):
                calls[key, g] += 1
                return fn(g, *args, **kwargs)

            return wrapped

        names = (
            "exact_boxicity",
            "_exact_boxicity",
            "chromatic_number",
            "edge_clique_cover",
            "mycielski",
        )
        for module in (cli, bounds, constructions, engine):
            for name in names + ("complement",):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for n in range(1, 6):
            for g in connected_by_n[n]:
                calls.clear()
                assert cli.survey_row(g).all_pass()
                repeated = [
                    key for key, count in calls.items() if count > 1 and key[0] in names
                ]
                assert not repeated, f"{graph6_encode(g)}: {repeated}"
                assert calls["complement", g] == 1, graph6_encode(g)

    def test_roberts_self_check(self, tmp_path, capsys, monkeypatch):
        """A boxicity above n/2 (Roberts 1969) can only come from a broken
        engine: the row raises, and the command exits 4."""
        real = cli._exact_boxicity

        def broken(g, *args):
            result, host = real(g, *args)
            return dataclasses.replace(result, value=g.n // 2 + 1), host

        monkeypatch.setattr(cli, "_exact_boxicity", broken)
        message = "boxicity 3 exceeds n/2 for n=5; the engine is broken"
        with pytest.raises(SelfCheckError, match=f"^{message}$"):
            cli.survey_row(cycle_graph(5))
        listing = tmp_path / "c5.g6"
        listing.write_text(graph6_encode(cycle_graph(5)) + "\n")
        code, out, err = run_cli(["survey", str(listing)], capsys)
        assert (code, out) == (4, cli.SURVEY_HEADER + "\n")
        assert err == f"self-check failure (bug): {message}\n"

    def test_oversized_mycielski_graph_refused_before_output(self, tmp_path, capsys):
        # Nine copies of K2 give 19 vertices, of C8 73: the second graph is
        # refused before the header or the first row is written.
        listing = tmp_path / "two.g6"
        listing.write_text(f"A_\n{graph6_encode(cycle_graph(8))}\n")
        code, out, err = run_cli(["survey", str(listing), "--mycielski-r", "9"], capsys)
        assert (code, out) == (3, "")
        assert err == "capacity error: vertex count 73 exceeds MAX_VERTICES=64\n"

    def test_failing_check_aborts_with_row(self, tmp_path, capsys, monkeypatch):
        row = cli.SurveyRow("A_", 2, 1, 0, 2, 0, 2, 1, 2, True, True, False, True)
        monkeypatch.setattr(cli, "survey_row", lambda g, r, cap: row)
        listing = tmp_path / "one.g6"
        listing.write_text("A_\n")
        code, out, err = run_cli(["survey", str(listing)], capsys)
        assert code == 4
        assert out.strip().splitlines()[-1].endswith("pass,pass,fail,pass")
        assert "theorem check failed" in err



class TestFlagChecks:
    """Bad flag values are refused while parsing: exit 2 before any command
    output, with an error line that names the flag and its bound."""

    def refused(self, args, capsys, flag, bound):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument {flag}: must be at least {bound}, got {args[args.index(flag) + 1]}"
        )

    def test_negative_cap(self, tmp_path, capsys):
        listing = tmp_path / "c4.g6"
        listing.write_text("Cl\n")
        for args in (
            ["box", "C?", "--max-complement-edges", "-1"],
            ["bounds", "C?", "--max-complement-edges", "-3"],
            ["survey", str(listing), "--max-complement-edges", "-1"],
        ):
            self.refused(args, capsys, "--max-complement-edges", 0)

    def test_copy_count_below_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        listing = tmp_path / "c4.g6"
        listing.write_text("Cl\n")
        for args in (
            ["bounds", "C?", "--r", "1"],
            ["bounds", "C?", "--r", "-2"],
            ["survey", str(empty), "--mycielski-r", "1"],
            ["survey", str(listing), "--mycielski-r", "0"],
        ):
            flag = "--r" if "--r" in args else "--mycielski-r"
            self.refused(args, capsys, flag, 2)

    def test_boundary_values_accepted(self, capsys):
        parser = cli.build_parser()
        for cap in (0, 5000):
            args = parser.parse_args(["box", "C?", "--max-complement-edges", str(cap)])
            assert args.max_complement_edges == cap
        assert parser.parse_args(["bounds", "C?", "--r", "2"]).r == 2
        assert parser.parse_args(["survey", "x", "--mycielski-r", "2"]).mycielski_r == 2
        # A zero cap parses, then refuses any graph that is not interval and
        # whose complement has an edge, such as C4.
        c4 = graph6_encode(cycle_graph(4))
        code, _, err = run_cli(["box", c4, "--max-complement-edges", "0"], capsys)
        assert code == 3 and "over the cap 0" in err

    def test_non_integer_keeps_argparse_message(self, capsys):
        code, _, err = run_cli(["box", "C?", "--max-complement-edges", "x"], capsys)
        assert code == 2
        assert err.splitlines()[-1].endswith("invalid int value: 'x'")

def test_certificate_stable_across_hash_seeds(tmp_path, src_env):
    """Byte-identical certificates from separate interpreter processes with
    different hash randomization seeds."""
    g6 = graph6_encode(mycielski(cycle_graph(4), 2)[0])
    outputs = []
    for seed in ("0", "12345"):
        run = subprocess.run(
            [sys.executable, "-m", "boxicity", "box", g6, "--stdout"],
            capture_output=True,
            text=True,
            check=True,
            env=dict(src_env, PYTHONHASHSEED=seed),
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_console_entry_point_subprocess(tmp_path, src_env):
    """End to end through a real process: box emits a certificate file that
    verify-cover accepts."""
    g6 = graph6_encode(mycielski(complete_graph(3), 2)[0])
    cert = tmp_path / "cover.cert"
    out = subprocess.run(
        [sys.executable, "-m", "boxicity", "box", g6, "--out", str(cert)],
        capture_output=True,
        text=True,
        check=True,
        env=src_env,
    )
    assert out.stdout.splitlines()[0] == "box 2"
    verify = subprocess.run(
        [sys.executable, "-m", "boxicity", "verify-cover", g6, str(cert)],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert verify.returncode == 0 and verify.stdout.strip() == "accept"
