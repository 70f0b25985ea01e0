#!/usr/bin/env python3
"""Self-check of the benchmark itself, not of supdev.

For several seeds and every workload it checks that

* case generation is deterministic in the seed and differs between seeds;
* every generated case is valid input: it runs (Monte Carlo reps capped at
  256, lattice cases at full size) without raising, in particular no
  ``DomainError`` or ``BudgetError``;
* the 150-node Gauss-Hermite references agree with 300 nodes to 1e-6;

and then runs ``run.py`` briefly in both modes for each workload: it must
exit 0 with a correct result, which includes its own check that the printed
metric names and units equal those in ``BENCHMARK.json``.
Exits 0 when everything holds.

Usage: python3 perfbench/selfcheck.py [--seeds 1 2 3]
"""

import argparse
import dataclasses
import json
import subprocess
import sys

import program

CAPPED_REPS = 256


def _check_generation(cases, checks, workload: str, seed: int) -> list:
    problems = []
    first = cases.generate(workload, seed)
    if first != cases.generate(workload, seed):
        problems.append(f"{workload} seed {seed}: generation is not deterministic")
    if first == cases.generate(workload, seed + 1):
        problems.append(f"{workload} seed {seed}: seed {seed + 1} generates the same cases")
    fine = checks.gh_nodes(300)
    for case in first:
        small = case
        if case.config is not None and case.config.reps > 1:
            small = dataclasses.replace(case, config=dataclasses.replace(case.config, reps=min(case.reps, CAPPED_REPS)))
        elif case.direct is not None:
            small = dataclasses.replace(case, direct={**case.direct, "reps": min(case.reps, CAPPED_REPS)})
        try:
            cases.run_case(small)
        except Exception as exc:  # any exception means the generator made an invalid case
            problems.append(f"{workload} seed {seed} {case.case_id}: raised {exc!r}")
        p = case.params
        if case.kind == "equicorrelated":
            pair = (checks.equicorrelated_exact(p["n"], p["lam"], p["theta"]),
                    checks.equicorrelated_exact(p["n"], p["lam"], p["theta"], fine))
        elif case.kind == "block":
            args = (p["blocks"], p["block_size"], p["u"], p["lam"], p["theta"])
            pair = (checks.block_exact(*args), checks.block_exact(*args, nodes=fine))
        else:
            continue
        if abs(pair[0] - pair[1]) > 1e-6:  # well below the smallest MC half-width, 1.9e-5
            problems.append(f"{workload} seed {seed} {case.case_id}: quadrature unconverged {pair}")
    return problems


def _check_run(workload: str, trace: int) -> list:
    """run.py itself exits 1 when its metric names or units differ from BENCHMARK.json."""
    cmd = [sys.executable, str(program.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return [f"run.py {workload} trace={trace} exited {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        return [f"run.py {workload} trace={trace} result keys {sorted(result)}, correct={result.get('correct')}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    program.load()
    import cases
    import checks

    with open(program.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = []
    if [w["name"] for w in expected["workloads"]] != list(cases.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {cases.WORKLOADS}")
    for workload in cases.WORKLOADS:
        for seed in args.seeds:
            problems += _check_generation(cases, checks, workload, seed)
        print(f"generation checked: {workload}, seeds {args.seeds}", flush=True)
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            problems += _check_run(workload, trace)
        print(f"metric names checked: {workload}", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
