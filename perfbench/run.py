"""Benchmark of the boxicity package: one workload per run, closed loop.

    python3 perfbench/run.py --workload box-hard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one thread calls the package and waits for each answer. A run
sets up (imports, inputs from the seed, corpus, warm-up), then repeats the
workload's whole batch while another one fits in ``--seconds``, and checks
every answer outside the timed region. Timings are scaled to a reference
host speed (see hostspeed.py). With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced batches and
prints per-layer metrics from spans around the calls between the package's
modules (see tracing.py). Human-readable lines come first; the last line of
stdout is one JSON object. See README.md for the metric definitions.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import hostspeed  # noqa: E402
import inputs as gi  # noqa: E402
import tracing  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Survey  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Workloads the benchmark is judged on; ``reach`` runs only when asked for
#: (its operations fail at the seed commit by design).
JUDGED = ("box-hard", "survey", "interval")

#: Set-ups per run: this process plus fresh interpreters, median reported.
SETUPS = 5

#: Operations that must lie beyond the tail percentile.
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed by a traced run, with units.
PER_LAYER = {
    **{
        f"{layer}.{kind}": unit
        for layer in tracing.LAYERS
        for kind, unit in (("calls", "count"), ("calls_per_op", "count/op"), ("self_ms", "ms"))
    },
    "engine.boxicity_calls": "count",
    "engine.boxicity_calls_per_op": "count/op",
    "engine.nodes": "count",
    "engine.nodes_per_op": "count/op",
    "engine.family_size": "count",
    "engine.family_size_per_op": "count/op",
    "engine.leaf_tests": "count",
    "engine.leaf_tests_per_op": "count/op",
    "engine.leaf_hit_ratio": "ratio",
    "engine.scan_ms": "ms",
    "engine.cover_ms": "ms",
    "engine.check_ms": "ms",
    "engine.boxrep_ms": "ms",
    "engine.refused": "count",
    "engine.refused_per_op": "count/op",
    "intervals.accept_ratio": "ratio",
    "bounds.chromatic_calls": "count",
    "bounds.chromatic_calls_per_op": "count/op",
    "bounds.clique_cover_calls": "count",
    "bounds.clique_cover_calls_per_op": "count/op",
    "cli.crashes": "count",
    "cli.crashes_per_op": "count/op",
    "corpus.build_s": "s",
    "trace.overhead_s": "s",
}

#: Metrics that cannot be measured when a traced site is missing.
NEEDS_SITE = {
    tracing.LEAF_SITE: ("engine.leaf_tests", "engine.leaf_tests_per_op", "engine.leaf_hit_ratio"),
    **{f"{m}.{f}": (metric,) for (m, f), metric in tracing.STAGES.items()},
    **{f"{m}.{f}": (metric, f"{metric}_per_op") for (m, f), metric in tracing.COUNTED.items()},
}

FAILURE_CLASSES = ("refused", "crashed", "timeout", "wrong")


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that outlived its deadline; a
    BaseException so that no handler in the package can swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def load_package():
    """Import boxicity from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "boxicity", "__init__.py")):
        _fail(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    import boxicity

    if os.path.dirname(os.path.abspath(boxicity.__file__)) != os.path.join(SRC, "boxicity"):
        _fail(f"imported boxicity from {boxicity.__file__}, not {SRC}")
    return tracing.package_modules()


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def resolve(modules, path):
    obj = modules[path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def setup(wl, seed):
    """Everything before the first timed operation. Returns the package's
    modules, a namespace for the workload, its operations, the entry
    functions, the set-up time in reference seconds (probed just after) and
    the corpus build time."""
    modules = load_package()
    pkg = types.SimpleNamespace(
        Graph=modules["graphs"].Graph,
        chordal_at_free_oracle=modules["intervals"].chordal_at_free_oracle,
        SURVEY_HEADER=modules["cli"].SURVEY_HEADER,
        corpus_graphs=None,
    )
    corpus_s = 0.0
    if isinstance(wl, Survey):
        from boxicity import corpus

        t = time.perf_counter()
        pkg.corpus_graphs = corpus.connected_graphs(wl.order)
        corpus_s = time.perf_counter() - t
    ops = wl.make(seed, pkg)
    api = {key: resolve(modules, path) for key, path in wl.entry.items()}
    wl.run(api, wl.warm(pkg))
    raw = time.perf_counter() - START
    probes = hostspeed.Probes()
    for _ in range(5):
        probes.take()
    return modules, pkg, ops, api, raw / probes.slowdown(probes.at[0], probes.at[-1]), corpus_s


@dataclass
class Batch:
    """One pass over a workload's operations. Times are in reference seconds
    (see hostspeed.py); a failed operation's latency is +inf, while its time
    still counts in ``wall``."""

    wall: float
    latencies: list
    kinds: list
    results: list
    raw_wall: float
    traced: bool = False


def run_batch(wl, ops, api):
    """Time every operation once, probing the host's speed between them."""
    capacity = sys.modules["boxicity.errors"].CapacityError
    probes = hostspeed.Probes()
    kinds, results, spans = [], [], []
    for op in ops:
        if probes.due():
            probes.take()
        result = None
        signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
        t0 = time.perf_counter()
        try:
            result = wl.run(api, op)
            kind = wl.outcome(result)
        except Deadline:
            kind = "timeout"
        except capacity:
            kind = "refused"
        except Exception as exc:  # a crash is a measured outcome, not an abort
            kind = "crashed"
            result = f"{type(exc).__name__}: {str(exc)[:120]}"
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        spans.append((t0, t1))
        kinds.append(kind)
        results.append(result)
    probes.take()
    scaled = [(t1 - t0) / probes.slowdown(t0, t1) for t0, t1 in spans]
    latencies = [t if k == "ok" else math.inf for t, k in zip(scaled, kinds)]
    return Batch(sum(scaled), latencies, kinds, results, sum(t1 - t0 for t0, t1 in spans))


def check_batch(wl, ops, api, batch):
    """Check every answer; a wrong one becomes a failure. Returns problem
    lines."""
    problems = []
    for i, (op, kind, result) in enumerate(zip(ops, batch.kinds, batch.results)):
        if kind == "crashed":
            problems.append(f"{op.label}: crashed: {result}")
        if kind != "ok":
            continue
        problem = wl.check(api, op, result)
        if problem:
            batch.kinds[i] = "wrong"
            batch.latencies[i] = math.inf
            problems.append(f"{op.label}: wrong: {problem}")
    return problems


def tail_rank(n):
    """1-based rank of the highest percentile with at least TAIL_BEYOND
    operations beyond it, or None when there are too few operations."""
    return n - TAIL_BEYOND if n > TAIL_BEYOND else None


def latency_stats(latencies):
    """(p50_ms, tail_ms); failed operations count as +inf."""
    ordered = sorted(latencies)
    rank = tail_rank(len(ordered))
    tail = ordered[rank - 1] * 1e3 if rank else math.nan
    return statistics.median(ordered) * 1e3, tail


def measure(wl, ops, api, seconds, tracer=None, boundaries=None):
    """Repeat the batch while another one fits in ``seconds``. Untraced runs
    time every batch; traced runs go traced, untraced, traced, then
    alternate, with at least two traced batches so that their counters can
    be compared. Returns the batches, the per-layer aggregate of each traced
    batch and the spans of the last one."""
    capacity = sys.modules["boxicity.errors"].CapacityError
    batches, traced, spans = [], [], []
    plan = [True, False, True] if tracer else [False]
    t0 = time.perf_counter()
    while plan or time.perf_counter() - t0 + batches[-1].raw_wall <= seconds:
        on = plan.pop(0) if plan else (tracer is not None and not batches[-1].traced)
        if on:
            tracer.spans.clear()
            entry = {
                key: tracer.wrap(fn, wl.entry[key].split(".")[0], f"bench>{wl.entry[key]}")
                for key, fn in api.items()
            }
            tracer.install(boundaries)
            try:
                batch = run_batch(wl, ops, entry)
            finally:
                tracer.uninstall()
            spans = list(tracer.spans)
            traced.append(tracing.aggregate(spans, capacity))
        else:
            batch = run_batch(wl, ops, api)
        batch.traced = on
        batches.append(batch)
    return batches, traced, spans


def median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(wl, batches, setup_s):
    """Batch time is the median over batches; an operation's latency is its
    median over batches, and p50 and tail are taken over operations."""
    per_op = [statistics.median(lat) for lat in zip(*(b.latencies for b in batches))]
    p50, tail = latency_stats(per_op)
    out = {
        "wall_s": median([b.wall for b in batches]),
        "p50_ms": p50,
        "tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if wl.name not in JUDGED:
        # Too few operations for a tail, and most of them fail at the seed.
        del out["p50_ms"], out["tail_ms"]
    return out


def _is_count(key):
    return not key.endswith(("_ms", "_ratio"))


def per_layer(wl, batches, traced, corpus_s, missing):
    """Counts from the first traced batch, times as medians over the traced
    batches, and each count per operation."""
    out = {k: (v if _is_count(k) else median([t[k] for t in traced])) for k, v in traced[0].items()}
    on = [b for b in batches if b.traced]
    crashed = sum(b.kinds.count("crashed") for b in on) / len(on)
    out["cli.crashes"] = crashed if any(p.startswith("cli.") for p in wl.entry.values()) else 0
    ops = len(batches[0].kinds)
    for key in [k for k in out if _is_count(k)]:
        out[f"{key}_per_op"] = out[key] / ops
    out["corpus.build_s"] = corpus_s
    out["trace.overhead_s"] = median([b.wall for b in on]) - median(
        [b.wall for b in batches if not b.traced]
    )
    for site in missing:
        for key in NEEDS_SITE.get(site, ()):
            out[key] = -1
    metrics = {k: out[k] for k in PER_LAYER}
    if wl.name == "reach":
        codes = [r[0] for b in on for r in b.results if isinstance(r, tuple)]
        for code in sorted(set(codes)):
            metrics[f"cli.exit_{code}"] = codes.count(code) / len(on)
    return metrics


def unit_of(name):
    return END_TO_END.get(name) or PER_LAYER.get(name) or ("ratio" if name == "failed_share" else "count")


def report(name, value, note=""):
    print(f"{name} = {value:.6g} {unit_of(name)}{note}")


def _child_setup(args):
    """Set-up time of a fresh interpreter on the same workload and seed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _finite(value):
    """JSON has no infinity: a latency made infinite by failures reads null."""
    return value if math.isfinite(value) else None


def run_workload(args):
    wl = WORKLOADS[args.workload]
    modules, pkg, ops, api, setup_s, corpus_s = setup(wl, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [_child_setup(args) for _ in range(SETUPS - 1)]
    # The benchmark's own inputs and expected answers would otherwise be
    # rescanned by every full garbage collection inside the timed calls.
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _alarm)
    tracer = boundaries = None
    missing = []
    if args.trace:
        tracer = tracing.Tracer()
        boundaries = tracing.discover(modules)
        missing = tracing.missing(boundaries)
    batches, traced, spans = measure(wl, ops, api, args.seconds, tracer, boundaries)

    problems, inconsistent = [], []
    digests = set()
    for batch in batches:
        problems += check_batch(wl, ops, api, batch)
        if isinstance(wl, Survey):
            digests.add(Survey.csv_digest(pkg, ops, batch.results))
    if len(digests) > 1:
        inconsistent.append("survey CSV differs between batches")
    counters = [{k: v for k, v in t.items() if _is_count(k)} for t in traced]
    if any(c != counters[0] for c in counters):
        inconsistent.append("deterministic counters differ between traced batches")

    n = len(ops)
    kinds = [k for b in batches for k in b.kinds]
    failed = sum(k != "ok" for k in kinds)
    counts = {c: kinds.count(c) for c in FAILURE_CLASSES}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)}  ops/batch {n}")
    print(f"input digest {gi.digest(_input_line(op) for op in ops)}")
    raw = median([b.raw_wall for b in batches])
    print(f"unscaled batch time {raw:.4f} s, host slowdown {raw / median([b.wall for b in batches]):.3f}")
    if digests:
        print(f"survey CSV digest {' '.join(sorted(digests))} (corpus order, header included)")
    for line in sorted(set(problems)) + inconsistent:
        print(f"problem: {line}")
    print(f"failures: {failed} of {len(kinds)} (failed_share {failed / len(kinds):.6g})  "
          + "  ".join(f"{c} {v}" for c, v in counts.items()))

    if args.trace:
        metrics = per_layer(wl, batches, traced, corpus_s, missing)
        for site in missing:
            print(f"missing boundary: {site} (its metrics read -1)")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.tsv")
        tracing.write_spans(spans, path)
        print(f"spans of the last traced batch: {os.path.relpath(path)}")
    else:
        metrics = end_to_end(wl, batches, median(setups))
        if wl.name not in JUDGED:
            metrics["failed_share"] = failed / len(kinds)
            metrics.update({c: v / len(batches) for c, v in counts.items()})
    rank = tail_rank(n)
    for name, value in metrics.items():
        note = ""
        if name == "tail_ms" and rank:
            note = f"  (p{100 * rank / n:.1f}: rank {rank} of {n} operations, {TAIL_BEYOND} beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"
        report(name, value, note)
    result = {
        "correct": counts["wrong"] == 0 and not inconsistent,
        "attempted": len(kinds),
        "failed": failed,
        "metrics": {k: {"value": _finite(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _input_line(op):
    """One line per input for the input digest: the graph, and the command
    line where the package receives one."""
    extra = " ".join(op.arg) if isinstance(op.arg, list) else ""
    return f"{op.label} {gi.graph6(op.g)} {extra}"


def run_all(args):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
