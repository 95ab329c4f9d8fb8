"""Spans around the calls between the package's modules, installed from outside.

Boundaries are discovered, not listed: every function a ``boxicity`` module
holds in its namespace but defines in a sibling module is a call from one
layer into another, and gets wrapped there. A few functions are also wrapped
in their own module, so that calls between them count too: the engine's
stage functions split its time into scan, cover, check and box building, and
the invariant solvers count every computation of an invariant.

Spans are kept in memory as ``[site, layer, start, end, parent, outcome]``
and aggregated (or written out) when the run ends. A span's self time is its
duration minus the durations of its direct children; calls on one thread
nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: Package modules that are layers, in dependency order.
LAYERS = ("graphs", "generators", "intervals", "engine", "bounds", "constructions", "cli")

#: The engine's stage functions, timed where the engine calls them:
#: (module, name) -> metric.
STAGES = {
    ("engine", "_maximal_cointerval_family_masks"): "engine.scan_ms",
    ("engine", "_minimum_cover"): "engine.cover_ms",
    ("engine", "_self_check"): "engine.check_ms",
    ("engine", "_cover_to_box_rep"): "engine.boxrep_ms",
}

#: Functions counted wherever they are called from: (module, name) -> metric.
COUNTED = {
    ("engine", "exact_boxicity"): "engine.boxicity_calls",
    ("bounds", "chromatic_number"): "bounds.chromatic_calls",
    ("bounds", "edge_clique_cover"): "bounds.clique_cover_calls",
}

#: Functions also wrapped inside their own module.
PROBES = (*STAGES, *COUNTED)

#: The engine's leaf cointerval test: the engine's imported recognizer.
LEAF_SITE = "engine>intervals._is_interval_masks"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, site: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [site, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc)
                raise
            else:
                rec[5] = _outcome(out)
                return out
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def install(self, boundaries) -> None:
        """Wrap every discovered boundary and probe in place."""
        for module, name, fn, layer, site in boundaries:
            setattr(module, name, self.wrap(fn, layer, site))
            self._installed.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._installed):
            setattr(module, name, fn)
        self._installed.clear()


def _outcome(out):
    """Small summary kept per span: a verdict, or (nodes, family) of a
    boxicity result; None for everything else."""
    if out is True or out is False:
        return out
    verdict = getattr(out, "interval", None)
    if verdict is True or verdict is False:
        return verdict
    nodes = getattr(out, "nodes_explored", None)
    if nodes is not None:
        return (nodes, getattr(out, "family_size", None))
    return None


def package_modules():
    return {name: importlib.import_module(f"boxicity.{name}") for name in LAYERS}


def discover(modules):
    """Boundaries and probes as ``(module, name, fn, layer, site)`` tuples.

    Must run on untouched namespaces. A boundary's site is
    ``caller>callee.name``; a probe's site is ``module.name``.
    """
    found = []
    for caller, module in modules.items():
        for name, obj in sorted(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("boxicity.") and home in LAYERS and home != caller:
                found.append((module, name, obj, home, f"{caller}>{home}.{name}"))
    for home, name in PROBES:
        obj = getattr(modules[home], name, None)
        if inspect.isfunction(obj):
            found.append((modules[home], name, obj, home, f"{home}.{name}"))
    return found


def missing(boundaries) -> list[str]:
    """Expected sites that discovery did not find (after a rename, say)."""
    sites = {b[4] for b in boundaries}
    expected = {f"{home}.{name}" for home, name in PROBES} | {LEAF_SITE}
    return sorted(expected - sites)


def aggregate(spans, capacity_error) -> dict[str, float]:
    """Per-layer counts and times (ms) over the spans of one traced batch."""
    child = [0.0] * len(spans)
    for site, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0.0
    for key in (*STAGES.values(), *COUNTED.values()):
        out[key] = 0
    for key in ("engine.refused", "engine.nodes", "engine.family_size", "engine.leaf_tests"):
        out[key] = 0
    for i, (site, layer, start, end, parent, outcome) in enumerate(spans):
        if layer not in LAYERS:
            continue
        add(f"{layer}.self_ms", (end - start - child[i]) * 1e3)
        if parent < 0 or spans[parent][1] != layer:
            add(f"{layer}.calls", 1)
            if layer == "engine" and outcome is not None and _raised(outcome, capacity_error):
                add("engine.refused", 1)
        if layer == "intervals" and isinstance(outcome, bool):
            add("intervals.verdicts", 1)
            add("intervals.accepts", int(outcome))
        if site == LEAF_SITE:
            add("engine.leaf_tests", 1)
            add("engine.leaf_hits", int(outcome is True))
        key = tuple(site.rpartition(">")[2].split(".", 1))
        if key in COUNTED:
            add(COUNTED[key], 1)
        if key in STAGES and ">" not in site:
            add(STAGES[key], (end - start) * 1e3)
        if isinstance(outcome, tuple):
            add("engine.nodes", outcome[0])
            add("engine.family_size", outcome[1] or 0)
    out["engine.leaf_hit_ratio"] = _ratio(out.pop("engine.leaf_hits", 0), out["engine.leaf_tests"])
    out["intervals.accept_ratio"] = _ratio(
        out.pop("intervals.accepts", 0), out.pop("intervals.verdicts", 0)
    )
    return out


def _raised(outcome, exc_type) -> bool:
    return isinstance(outcome, type) and issubclass(outcome, exc_type)


def _ratio(num, den):
    return num / den if den else 0.0


def write_spans(spans, path) -> None:
    """Tab-separated spans: index, site, layer, start, end, parent (times in
    seconds from the first span)."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tsite\tlayer\tstart_s\tend_s\tparent\n")
        for i, (site, layer, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i}\t{site}\t{layer}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\n")
