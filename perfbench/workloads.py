"""The four workloads: their inputs, the calls they time and their checks.

Each workload builds its operations from the seed (``make``), names the
package functions it calls (``entry``: a dotted path whose first part is the
layer), runs one operation inside the timed region (``run``) and checks one
answer outside it (``check``). Expected answers come from closed forms, from how an input was
generated, or from oracles evaluated before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import inputs as gi

#: Where runs leave spans and scratch files; ignored by git.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Largest maximal-clique counts of the pooled interval inputs. The
#: recognizer's clique-order search grows about threefold per clique. On the
#: reject path it exhausts the search, so its cost does not depend on vertex
#: labels; 14 cliques take about 0.5-2 s on a 2-core x86 VM, 15 take 5-10 s
#: and 16 or more can run past a minute, so 14 is the most one operation can
#: hold within a run. On the accept path it stops at the first witness, whose
#: position depends on the labels: at 13-14 cliques one graph takes 0.07 s
#: under one relabeling and 3 s under another, which would make the figures
#: depend on the seed more than on the code. Graphs on that path keep to 12
#: cliques and to the labels their pool drew.
#: The unbounded growth stays visible through the spiders in ``reach``.
MAX_ACCEPT_CLIQUES = 12
MAX_REJECT_CLIQUES = 14


@dataclass
class Op:
    label: str
    g: tuple  # (n, edges) as in inputs.py
    arg: object  # what the package receives
    expect: dict = field(default_factory=dict)


def to_package(pkg, g):
    return pkg.Graph.from_edges(g[0], g[1])


class Workload:
    """Defaults shared by the workloads."""

    deadline_s = 60.0

    def warm(self, pkg):
        """A tiny operation run once in set-up, untimed and unchecked."""
        g = gi.cycle(5)
        return Op("warm-up", g, to_package(pkg, g))

    @staticmethod
    def outcome(result):
        return "ok"


def _relabel(rng, *graphs):
    """The graphs, all on the same vertices, under one random relabeling."""
    perm = list(range(graphs[0][0]))
    rng.shuffle(perm)
    return [gi.relabel(g, perm) for g in graphs]


class BoxHard(Workload):
    name = "box-hard"
    entry = {"exact_boxicity": "engine.exact_boxicity", "format_cover": "engine.format_cover"}
    per_stratum = 10

    @staticmethod
    def pool():
        rng = gi.seeded(gi.POOL_SEED, "box-hard")
        return [
            gi.random_complement_graph(rng, n, m)
            for n in (9, 10)
            for m in (20, 21, 22)
            for _ in range(BoxHard.per_stratum)
        ]

    @staticmethod
    def fixed():
        """Named graphs with their boxicity in closed form: Mycielski(K_n) is
        ceil(n/2), plus 1 when n is even; cycles of length 4 or more are 2;
        Mycielski(C4) and Mycielski(P4) are 2."""
        return [
            ("Mycielski(K4)", gi.mycielski(gi.complete(4)), 2 + 1),
            ("Mycielski(K5)", gi.mycielski(gi.complete(5)), 3),
            ("Mycielski(C4)", gi.mycielski(gi.cycle(4)), 2),
            ("Mycielski(P4)", gi.mycielski(gi.path(4)), 2),
            ("C7", gi.cycle(7), 2),
            ("C8", gi.cycle(8), 2),
        ]

    def make(self, seed, pkg):
        rng = gi.seeded(seed, self.name)
        ops = [Op(label, g, None, {"box": box}) for label, g, box in self.fixed()]
        for i, g in enumerate(self.pool()):
            ops.append(Op(f"random-{i}", *_relabel(rng, g), None, {}))
        rng.shuffle(ops)
        for op in ops:
            op.arg = to_package(pkg, op.g)
            op.expect["interval"] = pkg.chordal_at_free_oracle(op.arg)
        return ops

    def run(self, api, op):
        return api["exact_boxicity"](op.arg)

    def check(self, api, op, result):
        value = result.value
        if "box" in op.expect and value != op.expect["box"]:
            return f"boxicity {value}, closed form says {op.expect['box']}"
        if (value <= 1) != op.expect["interval"]:
            return f"boxicity {value} disagrees with the interval oracle"
        rep = result.box_rep
        if rep.dimension != max(value, 1):
            return f"box representation has dimension {rep.dimension} for value {value}"
        problem = gi.boxes_match(op.g, rep.boxes, rep.dimension)
        if problem:
            return f"box representation: {problem}"
        return check_cover_text(op.g, api["format_cover"](result.certificate), value)


def check_cover_text(g, text, value):
    """Problem text, or None when a certificate in the documented text format
    names the complement of g, has ``value`` parts, and its parts are sets of
    complement edges whose union is every complement edge. Cointervality of
    the parts is shown by the box representation instead."""
    lines = text.splitlines()
    if lines[0] != f"host {gi.graph6(gi.graph(g[0], gi.complement_edges(g)))}":
        return "certificate host is not the complement"
    if lines[1] != f"parts {value}" or len(lines) != 2 + value:
        return "certificate part count differs from the value"
    comp = set(gi.complement_edges(g))
    seen = set()
    for line in lines[2:]:
        part = {tuple(int(x) for x in token.split("-")) for token in line.split()}
        if not part <= comp:
            return "certificate part holds a non-complement edge"
        seen |= part
    if seen != comp:
        return "certificate leaves a complement edge uncovered"
    return None


class Survey(Workload):
    name = "survey"
    entry = {"survey_row": "cli.survey_row", "to_csv": "cli.SurveyRow.to_csv"}
    order = 7

    def make(self, seed, pkg):
        rng = gi.seeded(seed, self.name)
        ops = [
            Op(f"corpus-{i}", gi.graph(g.n, g.edges()), g, {"index": i})
            for i, g in enumerate(pkg.corpus_graphs)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, api, op):
        row = api["survey_row"](op.arg)
        return row, api["to_csv"](row)

    def check(self, api, op, result):
        row, line = result
        if not row.all_pass():
            return f"survey row fails a theorem check: {line}"
        if not line.startswith(gi.graph6(op.g) + ","):
            return "survey row does not start with the graph's graph6"
        return None

    @staticmethod
    def csv_digest(pkg, ops, results):
        """Digest of the survey CSV in corpus order, header included."""
        lines = [None] * len(ops)
        for op, (_, line) in zip(ops, results):
            lines[op.expect["index"]] = line
        return gi.digest([pkg.SURVEY_HEADER, *lines])


class Interval(Workload):
    name = "interval"
    entry = {
        "is_interval": "intervals.is_interval",
        "interval_representation": "intervals.interval_representation",
    }
    pool_size = 30

    @staticmethod
    def pool():
        """Pairs (random interval graph, the same graph minus a random edge
        whose removal leaves an induced 4-cycle, so it is not interval)."""
        rng = gi.seeded(gi.POOL_SEED, "interval")
        out = []
        while len(out) < Interval.pool_size:
            g, _ = gi.random_interval_graph(rng, rng.randint(16, 26))
            candidates = gi.square_making_edges(g)
            if not candidates or gi.maximal_clique_count(g) > MAX_ACCEPT_CLIQUES:
                continue
            gone = rng.choice(candidates)
            cut = gi.graph(g[0], [e for e in g[1] if e != gone])
            if gi.maximal_clique_count(cut) <= MAX_REJECT_CLIQUES:
                out.append((g, cut))
        return out

    def make(self, seed, pkg):
        """The seed relabels the graphs on the reject path, whose cost does not
        depend on labels. The accepted graphs keep the labels their pool drew:
        relabeling them moved p50 and the tail by up to a third between seeds."""
        rng = gi.seeded(seed, self.name)
        # Every leg has length >= 2, so the three leaf ends form an
        # asteroidal triple: none of these spiders is interval.
        ops = [
            Op(f"spider-{n}", *_relabel(rng, gi.balanced_spider(n)), None, {"truth": False})
            for n in range(7, 15)
        ]
        for i, (g, cut) in enumerate(self.pool()):
            ops.append(Op(f"random-{i}", g, None, {"truth": True}))
            ops.append(Op(f"random-{i}-cut", *_relabel(rng, cut), None, {"truth": False}))
        rng.shuffle(ops)
        for op in ops:
            op.arg = to_package(pkg, op.g)
            op.expect["oracle"] = pkg.chordal_at_free_oracle(op.arg)
        return ops

    def run(self, api, op):
        verdict = api["is_interval"](op.arg)
        rep = api["interval_representation"](op.arg) if verdict.interval else None
        return verdict, rep

    def check(self, api, op, result):
        verdict, rep = result
        if verdict.interval != op.expect["oracle"]:
            return f"verdict {verdict.interval} disagrees with the oracle"
        if verdict.interval != op.expect["truth"]:
            return f"verdict {verdict.interval} disagrees with how the graph was built"
        if rep is not None:
            problem = gi.intervals_match(op.g, rep.intervals)
            if problem:
                return f"interval representation: {problem}"
        return None


class Reach(Workload):
    """Command lines that fail at the seed commit, plus two controls."""

    name = "reach"
    entry = {"run": "cli.run"}
    deadline_s = 5.0

    def warm(self, pkg):
        g = gi.cycle(4)
        return Op("warm-up", g, ["box", gi.graph6(g), "--stdout"])

    @staticmethod
    def cases():
        joined = gi.join(gi.join(gi.cycle(6), gi.cycle(5)), gi.mycielski(gi.path(4)))
        return [
            ("box path:10", gi.path(10), "box", [], {"box": 1}),
            ("box join(C6,C5,Mycielski(P4))", joined, "box", [], {"box": 6}),
            ("box empty:46 cap 5000", gi.empty(46), "box", ["--max-complement-edges", "5000"], {"box": 1}),
            ("interval spider:19", gi.balanced_spider(19), "interval", [], {"interval": False}),
            ("interval spider:61", gi.balanced_spider(61), "interval", [], {"interval": False}),
            ("box cycle:6", gi.cycle(6), "box", [], {"box": 2}),
            ("interval path:20", gi.path(20), "interval", [], {"interval": True}),
        ]

    def make(self, seed, pkg):
        rng = gi.seeded(seed, self.name)
        ops = []
        for label, g, cmd, extra, expect in self.cases():
            argv = [cmd, gi.graph6(g), *extra] + (["--stdout"] if cmd == "box" else [])
            ops.append(Op(label, g, argv, dict(expect)))
        rng.shuffle(ops)
        return ops

    def run(self, api, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api["run"](op.arg)
        return code, out.getvalue()

    @staticmethod
    def outcome(result):
        """Exit 0 is an answer and 3 a documented refusal; any other code on
        these commands is used outside its documented meaning."""
        return {0: "ok", 3: "refused"}.get(result[0], "crashed")

    def check(self, api, op, result):
        _, text = result
        lines = text.splitlines()
        if "box" in op.expect:
            if not lines or lines[0] != f"box {op.expect['box']}":
                return f"answered {lines[:1]}, want box {op.expect['box']}"
            os.makedirs(OUT_DIR, exist_ok=True)
            cert = os.path.join(OUT_DIR, "reach.cert")
            with open(cert, "w") as fh:
                fh.write("\n".join(lines[1:]) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = api["run"](["verify-cover", op.arg[1], cert])
            os.remove(cert)
            if code != 0 or out.getvalue().strip() != "accept":
                return "certificate does not pass verify-cover"
            return check_cover_text(op.g, "\n".join(lines[1:]), op.expect["box"])
        want = "interval" if op.expect["interval"] else "not-interval"
        if not lines or lines[0] != want:
            return f"answered {lines[:1]}, want {want}"
        if op.expect["interval"]:
            ivs = [tuple(int(x) for x in line.split()[1:]) for line in lines[1:]]
            return gi.intervals_match(op.g, ivs)
        return None


WORKLOADS = {w.name: w for w in (BoxHard(), Survey(), Interval(), Reach())}
