"""Batch command line front end.

Subcommands: gen, box, bounds, interval, construct-cover, verify-cover,
survey. Everything is deterministic; there are no seed flags.

Exit codes: 0 success (and certificate accepted), 1 certificate rejected,
2 usage, parse or file error (a bad argument, a ``ValueError`` or an
``OSError``), 3 capacity cap exceeded (the message names the cap),
4 theorem or self-check failure (signals a bug, never expected),
5 any other exception (an internal error, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from operator import attrgetter

from .bounds import (
    _focal_count,
    chromatic_number,
    compute_bounds_report,
    cor36_lower,
    edge_clique_cover,
    thm11_upper,
    thm42_upper,
)
from .constructions import _mycielski_cover, complete_mycielski_cover, mycielski_cover
from .engine import (
    DEFAULT_COMPLEMENT_EDGE_CAP,
    _exact_boxicity,
    exact_boxicity,
    format_cover,
    parse_cover,
    verify_cointerval_cover,
)
from .errors import CapacityError, NotIntervalError, SelfCheckError
from .generators import MycielskiLayout, gen_family, mycielski
from .graphs import (
    _check_vertex_count, complement, graph6_decode, graph6_encode, to_dot
)
from .intervals import interval_representation

SURVEY_HEADER = (
    "graph6,n,m,box,chi,theta_comp,focal,lb_cor36,ub_thm42,"
    "chk_cor36,chk_thm42,chk_thm11,chk_chi_plus1"
)


def _cmd_gen(args: argparse.Namespace) -> int:
    g = gen_family(args.spec)
    sys.stdout.write(to_dot(g) if args.dot else graph6_encode(g) + "\n")
    return 0


def _cmd_box(args: argparse.Namespace) -> int:
    g = graph6_decode(args.graph6)
    result = exact_boxicity(g, args.max_complement_edges)
    print(f"box {result.value}")
    text = format_cover(result.certificate)
    if args.stdout:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"certificate {args.out}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = graph6_decode(args.graph6)
    report = compute_bounds_report(
        g,
        r=args.r,
        include_exact=args.exact,
        max_complement_edges=args.max_complement_edges,
    )
    print("graph6,lower,upper,exact")
    lower = ";".join(f"{v}:{tag}" for v, tag in report.lower)
    upper = ";".join(f"{v}:{tag}" for v, tag in report.upper)
    exact = "" if report.exact is None else str(report.exact)
    print(f"{report.graph6},{lower},{upper},{exact}")
    return 0


def _cmd_interval(args: argparse.Namespace) -> int:
    g = graph6_decode(args.graph6)
    try:
        rep = interval_representation(g)
    except NotIntervalError:
        print("not-interval")
        return 0
    print("interval")
    sys.stdout.write(rep.to_text())
    return 0


def _cmd_construct_cover(args: argparse.Namespace) -> int:
    if args.lemma41 is not None:
        cover = complete_mycielski_cover(args.lemma41)
    else:
        g = graph6_decode(args.thm42)
        _, clique_cover = edge_clique_cover(complement(g))
        cover = mycielski_cover(g, clique_cover)
    sys.stdout.write(format_cover(cover))
    return 0


def _cmd_verify_cover(args: argparse.Namespace) -> int:
    g = graph6_decode(args.graph6)
    with open(args.certificate) as fh:
        cover = parse_cover(fh.read())
    try:
        verdict = verify_cointerval_cover(g, cover)
    except ValueError as exc:  # a certificate for another graph
        print(f"reject {exc}")
        return 1
    if verdict:
        print("accept")
        return 0
    print(f"reject {verdict.reason}")
    return 1


#: A row's fields in CSV column order, read directly: the header names them.
_ROW_FIELDS = attrgetter(*SURVEY_HEADER.split(","))


@dataclass(slots=True)
class SurveyRow:
    """One survey CSV row. Slotted: a row holds its fields in the object,
    with no per-instance dict."""

    graph6: str
    n: int
    m: int
    box: int
    chi: int
    theta_comp: int
    focal: int
    lb_cor36: int
    ub_thm42: int
    chk_cor36: bool
    chk_thm42: bool
    chk_thm11: bool
    chk_chi_plus1: bool

    def to_csv(self) -> str:
        return ",".join(
            ("pass" if v else "fail") if isinstance(v, bool) else str(v)
            for v in _ROW_FIELDS(self)
        )

    def all_pass(self) -> bool:
        return self.chk_cor36 and self.chk_thm42 and self.chk_thm11 and self.chk_chi_plus1


def survey_row(g, r: int = 2, cap: int = DEFAULT_COMPLEMENT_EDGE_CAP) -> SurveyRow:
    """One survey row: exact invariants of g plus empirical verification of
    the Mycielski bounds, the boxicity-chromatic inequality (Thm 1.1) and the
    chromatic step. Each invariant of g is computed once and shared by the
    checks: g's complement is built once, as the host the engine builds for
    g, which the clique cover reads, and the Mycielski graph is built once
    and handed to the cover construction.

    The Mycielski lower bound is checked directly against an exact engine run
    whenever the engine answers under ``cap``, and against the Thm 4.2 upper
    bound (Roberts' n/2 for r > 2) when it refuses: crossed bounds would
    falsify one of the theorems. Against an exact run, ``lb <= myc_box`` also
    shows that the boxicity grows when g has a focal vertex, since lb is then
    at least box + 1.
    """
    result, host = _exact_boxicity(g, cap)
    box = result.value
    chi = chromatic_number(g)
    if box > g.n // 2:  # Roberts 1969: boxicity is at most n/2
        raise SelfCheckError(
            f"boxicity {box} exceeds n/2 for n={g.n}; the engine is broken"
        )
    theta, clique_cover = edge_clique_cover(host)
    focal = _focal_count(g)
    lb = cor36_lower(box, focal)
    ub = thm42_upper(theta, focal)
    myc, _ = mycielski(g, r)
    m2 = myc if r == 2 else mycielski(g, 2)[0]

    try:
        myc_box = exact_boxicity(myc, cap).value
    except CapacityError:
        ok_cor36 = lb <= (ub if r == 2 else myc.n // 2)
    else:
        ok_cor36 = lb <= myc_box

    try:
        ok_thm42 = len(_mycielski_cover(g, clique_cover, m2).parts) <= ub
    except SelfCheckError:
        ok_thm42 = False

    ok_chi = chromatic_number(m2) == chi + 1

    return SurveyRow(
        graph6_encode(g),
        g.n,
        g.num_edges(),
        box,
        chi,
        theta,
        focal,
        lb,
        ub,
        ok_cor36,
        ok_thm42,
        box <= thm11_upper(g.n, chi),
        ok_chi,
    )


def _cmd_survey(args: argparse.Namespace) -> int:
    with open(args.graphs) as fh:
        graphs = [(line, graph6_decode(line)) for line in map(str.strip, fh) if line]
    # Every Mycielski graph fits, or nothing is written.
    for _, g in graphs:
        _check_vertex_count(MycielskiLayout(g.n, args.mycielski_r).total)
    print(SURVEY_HEADER)
    for line, g in graphs:
        row = survey_row(g, r=args.mycielski_r, cap=args.max_complement_edges)
        print(row.to_csv())
        if not row.all_pass():
            print(f"theorem check failed for {line}", file=sys.stderr)
            return 4
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, so a bad value
    is refused before any command runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


#: ``--max-complement-edges``: a cap on a count, so never negative.
_CAP = _int_at_least(0)

#: ``--r`` and ``--mycielski-r``: the Mycielski construction needs two copies.
_COPIES = _int_at_least(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxicity",
        description="Exact boxicity, interval recognition and Mycielski bounds "
        "for small graphs, with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family graph")
    p.add_argument(
        "spec",
        help="complete:N | empty:N | path:N | cycle:N | star:N | "
        "multipartite:N1,N2,... | mycielski:<spec>:R | focalize:<spec>:T",
    )
    p.add_argument("--dot", action="store_true", help="emit DOT instead of graph6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("box", help="exact boxicity with certificate")
    p.add_argument("graph6")
    p.add_argument(
        "--max-complement-edges", type=_CAP, default=DEFAULT_COMPLEMENT_EDGE_CAP
    )
    p.add_argument("--out", default="cointerval-cover.cert", help="certificate path")
    p.add_argument(
        "--stdout", action="store_true", help="print the certificate instead"
    )
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser(
        "bounds", help="bounds on the boxicity of the Mycielski graph of the input"
    )
    p.add_argument("graph6")
    p.add_argument("--r", type=_COPIES, default=2, help="Mycielski copy count")
    p.add_argument(
        "--exact", action="store_true", help="also run the exact engine on it"
    )
    p.add_argument(
        "--max-complement-edges", type=_CAP, default=DEFAULT_COMPLEMENT_EDGE_CAP
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("interval", help="interval recognition plus representation")
    p.add_argument("graph6")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("construct-cover", help="emit an explicit cover certificate")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lemma41", type=int, metavar="N",
        help="cover for the Mycielski graph of the complete graph on N vertices",
    )
    group.add_argument(
        "--thm42", metavar="GRAPH6",
        help="clique-cover-based Mycielski cover for the given graph",
    )
    p.set_defaults(func=_cmd_construct_cover)

    p = sub.add_parser("verify-cover", help="check a cover certificate")
    p.add_argument("graph6")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify_cover)

    p = sub.add_parser("survey", help="per-graph CSV with theorem checks")
    p.add_argument("graphs", help="file with one graph6 string per line")
    p.add_argument("--mycielski-r", type=_COPIES, default=2)
    p.add_argument(
        "--max-complement-edges", type=_CAP, default=DEFAULT_COMPLEMENT_EDGE_CAP
    )
    p.set_defaults(func=_cmd_survey)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except SelfCheckError as exc:
        print(f"self-check failure (bug): {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
