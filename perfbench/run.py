#!/usr/bin/env python3
"""Sweep benchmark for supdev.

Runs one workload's seeded cases through the public API in whole passes for
about ``--seconds`` seconds, checks the outputs, and prints a report whose
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones (set-up
time, cases per second, median and 90th-percentile case time, peak RSS);
with ``--trace 1`` they are the per-layer ones from a traced run of the same
cases, plus the tracing overhead.  The metric names and units are listed in
the ``BENCHMARK.json`` next to this directory.

Usage:
    python3 perfbench/run.py --workload vector-sweep --seed 1 --seconds 25 --trace 0

Spans (traced runs) and the full report go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import program

SETUP_PROBES = 5


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _git_sha() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in program.THREAD_VARS},
        "nproc": nproc,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
    }


def _setup_seconds(args) -> list:
    """Wall time of fresh set-up processes, spawn to exit."""
    cmd = [sys.executable, str(program.BENCH_DIR / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=program.ROOT, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def _run_pass(cases_list, run_case, tracer=None):
    """One pass over the cases: (wall seconds, per-case seconds, results)."""
    times, results = [], []
    start = time.perf_counter()
    for case in cases_list:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = run_case(case)
            else:
                tracer.case_id = case.case_id
                with tracer.span("case"):
                    result = run_case(case)
        except Exception as exc:  # a case that raises is a failed case; the sweep goes on
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, times, results


def _timed_passes(cases_list, run_case, budget: float, tracer=None, modules=()):
    """Rounds of whole passes until the next round would end past ``budget``
    by more than half a round; at least one.  A round is one untraced pass,
    followed, when a tracer is given, by one traced pass and the emission of
    its records, so traced and untraced passes share machine conditions."""
    from supdev import harness

    walls, traced_walls, times, results = [], [], [], []
    while True:
        wall, t, res = _run_pass(cases_list, run_case)
        walls.append(wall)
        times.append(t)
        results.append(res)
        if tracer is not None:
            with tracer.installed(modules):
                wall, _, res = _run_pass(cases_list, run_case, tracer)
            traced_walls.append(wall)
            records = [r for r in res if hasattr(r, "checks")]
            tracer.case_id = None
            with tracer.span("harness.emit"):
                harness.records_to_csv(records)
                harness.records_to_json(records)
        if sum(walls) + sum(traced_walls) + (walls[-1] + (traced_walls or [0.0])[-1]) / 2 >= budget:
            return walls, traced_walls, times, results


def _check_outputs(workload, cases_list, results) -> dict:
    """Case id -> reason, for every case whose output fails a check."""
    import checks

    bad = {}
    for case, result in zip(cases_list, results):
        if isinstance(result, Exception):
            bad[case.case_id] = f"raised {result!r}"
            continue
        reason = checks.CHECKS[workload](case, result)
        if reason:
            bad[case.case_id] = reason
    by_id = dict(zip((c.case_id for c in cases_list), results))
    for case in checks.determinism_sample(cases_list):
        if case.case_id not in bad:
            reason = checks.check_determinism(case, by_id[case.case_id])
            if reason:
                bad[case.case_id] = reason
    return bad


def _expected_names(trace: int) -> dict:
    with open(program.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "metrics": {m["name"]: m["unit"] for m in spec[key]},
    }


def main() -> int:
    args = _parse_args()
    program.load()
    expected = _expected_names(args.trace)
    import cases
    from supdev import harness

    if args.workload not in expected["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {expected['workloads']}")
    env = _environment(args)
    setup = [] if args.trace else _setup_seconds(args)

    cases_list = cases.generate(args.workload, args.seed)
    seen_groups = set()
    for case in cases_list:  # warm lazy imports and caches of every kind, untimed
        if case.group not in seen_groups:
            seen_groups.add(case.group)
            cases.run_case(case)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    walls, traced_walls, times, results = _timed_passes(
        cases_list, cases.run_case, args.seconds * (0.6 if args.trace else 1.0), tracer, [harness, cases])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(walls)
    metrics, samples = {}, {}
    out_dir = program.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        draw_s = spans.replay_draws(tracer.draw_calls[: len(tracer.draw_calls) // passes])
        overhead = sum(traced_walls) / sum(walls) - 1.0
        for name, (value, unit) in spans.layer_metrics(tracer, results[0], passes, draw_s, overhead).items():
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = passes
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        # each case's fastest pass: the machine's speed drifts by tens of
        # percent for seconds at a time, and passes spread over the run let
        # every case meet a quiet spell at least once
        best = [min(per_pass) for per_pass in zip(*times)]
        count = len(best)
        for name, value, unit, n in (
            ("setup_s", statistics.median(setup), "s", len(setup)),
            ("cases_per_s", count / sum(best), "1/s", count),
            ("case_ms_p50", 1e3 * statistics.median(best), "ms", count),
            ("case_ms_p90", 1e3 * statistics.quantiles(best, n=10)[-1], "ms", count),
            ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ):
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = n

    bad = _check_outputs(args.workload, cases_list, results[0])
    attempted = passes * len(cases_list)
    failed = sum(isinstance(r, Exception) or c.case_id in bad
                 for res in results for c, r in zip(cases_list, res))
    work = cases.case_mix(cases_list)
    names_ok = {k: m["unit"] for k, m in metrics.items()} == expected["metrics"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={passes}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("work per pass: " + json.dumps(work, sort_keys=True))
    print(f"output checks: {len(bad)} of {len(cases_list)} cases failed "
          f"(quadrature/lattice/projection checks and a determinism rerun sample)")
    for case_id, reason in sorted(bad.items()):
        print(f"  FAILED {case_id}: {reason}")
    print(f"{'metric':26s} {'value':>14s} {'unit':8s} samples")
    for name, m in metrics.items():
        print(f"{name:26s} {m['value']:14.6g} {m['unit']:8s} {samples[name]}")
    if not args.trace:
        print(f"{'failed_frac':26s} {failed / attempted:14.6g} {'ratio':8s} {attempted} attempted")
    if not names_ok:
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected['metrics'])}",
              file=sys.stderr)
        return 1

    report = {"environment": env, "work_per_pass": work, "passes": passes, "failed_cases": bad,
              "samples": samples, "metrics": metrics, "failed_frac": failed / attempted}
    with open(out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
