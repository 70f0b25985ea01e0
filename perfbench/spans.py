"""Spans and counters around the calls into each supdev layer.

Tracing lives in the benchmark, not in the program: ``Tracer.installed``
swaps every public function that ``supdev.harness`` (and the benchmark's
own case runner) imported from a layer module for a wrapper that records a
span, then restores the originals.  Spans are kept in memory as
``[name, start, end, parent, case_id]`` and written out when the run ends.
A layer's self time is its spans' duration minus the part covered by child
spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from supdev.mc import CHUNK_REPS, normal_draws

LAYERS = ("mc", "bounds", "spectrum", "quadrature", "decoupling", "cyclic", "kronecker", "harness")


def _grid_size(grid) -> int:
    return grid.n if grid.mode == "uniform" else grid.count


def _count_mc(tracer, args, result):
    """Draws are reps x width; the projection is 2 reps width outputs flops."""
    if "cov" in args:
        width = outputs = args["cov"].n
    else:
        spec = args.get("spec", args.get("spec_a"))
        width, outputs = 2 * spec.n_terms, _grid_size(args["grid"])
    reps = args["reps"]
    tracer.counts["mc.draws"] += reps * width
    tracer.counts["mc.flop"] += 2.0 * reps * width * outputs
    tracer.draw_calls.append((args["seed"], reps, width))


def _count_search(tracer, args, result):
    tracer.counts["kronecker.points"] += result.lattice_size
    tracer.counts["kronecker.hits"] += int(result.hits.size)


def _count_xi(tracer, args, result):
    tracer.counts["kronecker.xi_vectors"] += (2 * result.radius + 1) ** args["problem"].n_freq


_COUNTERS = {
    "mc_vector_sup_prob": _count_mc,
    "mc_sup_prob": _count_mc,
    "mc_expected_sup_diff": _count_mc,
    "lattice_search": _count_search,
    "xi": _count_xi,
}


class Tracer:
    """In-memory span and counter store for one traced run (one thread)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.draw_calls = []  # (seed, reps, width) of every MC-layer call, in call order
        self.case_id = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.case_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, span_name: str, fn):
        counter = _COUNTERS.get(fn.__name__)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap, in each module, every function imported from a supdev layer."""
        layer_of = {f"supdev.{layer}": layer for layer in LAYERS}
        saved = []
        for module in modules:
            for name, obj in list(vars(module).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if inspect.isfunction(obj) and layer and obj.__module__ != module.__name__:
                    saved.append((module, name, obj))
                    setattr(module, name, self._wrap(f"{layer}.{name}", obj))
        try:
            yield
        finally:
            for module, name, obj in saved:
                setattr(module, name, obj)

    def self_times(self) -> dict:
        """Span name -> summed self time: duration minus the child spans'."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return own

    def calls(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case_id"], "spans": self.spans}, fh)


def replay_draws(calls) -> float:
    """Seconds to regenerate the given (seed, reps, width) draws through the
    public ``normal_draws``, one fixed-size chunk at a time on this thread."""
    start = time.perf_counter()
    for seed, reps, width in calls:
        for s in range(0, reps, CHUNK_REPS):
            normal_draws(seed, s, min(CHUNK_REPS, reps - s), width)
    return time.perf_counter() - start


def _vacuous(row) -> bool:
    """An MC comparison row on a probability scale that cannot fail: its bound
    is at least 1, or the estimate is exactly 0 or 1."""
    return (row.passed is not None and row.mc_lo is not None and 0.0 <= row.mc <= 1.0
            and ((row.bound is not None and row.bound >= 1.0) or row.mc in (0.0, 1.0)))


def layer_metrics(tracer: Tracer, records, passes: int, draw_s: float, overhead: float) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes`` passes."""
    own = tracer.self_times()

    def layer_s(*names):
        return sum(own[n] for n in names) / passes

    def prefix_s(prefix):
        return layer_s(*(n for n in list(own) if n.startswith(prefix)))

    def per_pass(key):
        return tracer.counts[key] / passes

    search_s = layer_s("kronecker.lattice_search")
    draws, points = per_pass("mc.draws"), per_pass("kronecker.points")
    hits = per_pass("kronecker.hits")
    rows = [row for rec in records if hasattr(rec, "checks") for row in rec.checks]
    return {
        "mc.calls": (tracer.calls("mc.") / passes, "count"),
        "mc.estimate_s": (prefix_s("mc."), "s"),
        "mc.draw_s": (draw_s, "s"),
        "mc.draws": (draws, "count"),
        "mc.ns_per_draw": (1e9 * draw_s / draws if draws else 0.0, "ns"),
        "mc.project_gflop": (per_pass("mc.flop") / 1e9, "GFLOP"),
        "kronecker.search_s": (search_s, "s"),
        "kronecker.points": (points, "count"),
        "kronecker.hits": (hits, "count"),
        "kronecker.hit_ratio": (hits / points if points else 0.0, "ratio"),
        "kronecker.ns_per_point": (1e9 * search_s / points if points else 0.0, "ns"),
        "kronecker.xi_s": (layer_s("kronecker.xi"), "s"),
        "kronecker.xi_vectors": (per_pass("kronecker.xi_vectors"), "count"),
        "kronecker.count_s": (layer_s("kronecker.solution_count"), "s"),
        "kronecker.scan_s": (layer_s("kronecker.limsup_exponential_sum", "kronecker.divergence_partial_sums"), "s"),
        "kronecker.correlation_s": (layer_s("kronecker.lattice_correlation"), "s"),
        "decoupling.s": (prefix_s("decoupling."), "s"),
        "decoupling.calls": (tracer.calls("decoupling.") / passes, "count"),
        "cyclic.s": (prefix_s("cyclic."), "s"),
        "bounds.s": (prefix_s("bounds."), "s"),
        "bounds.calls": (tracer.calls("bounds.") / passes, "count"),
        "spectrum.s": (prefix_s("spectrum."), "s"),
        "quadrature.s": (prefix_s("quadrature."), "s"),
        "quadrature.calls": (tracer.calls("quadrature.") / passes, "count"),
        "harness.self_s": (layer_s("harness.run_experiment"), "s"),
        "harness.emit_s": (layer_s("harness.emit"), "s"),
        "harness.rows": (len(rows), "count"),
        "harness.rows_failed": (sum(row.passed is False for row in rows), "count"),
        "harness.rows_vacuous": (sum(_vacuous(row) for row in rows), "count"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
