#!/usr/bin/env python3
"""Minor page faults per pass of a benchmark workload, by experiment kind.

Runs the cases that ``perfbench/cases.py`` generates for a workload and
seed in whole passes, in the benchmark's pass order, and reads the minor
fault count of this process (``resource.getrusage(RUSAGE_SELF).ru_minflt``)
around each case.  After one warm-up pass it prints one line with, for each
kind, the median over the passes of that kind's faults per pass, and the
median of the pass totals:

    <workload> seed=<s> passes=<p> <kind>=<faults> ... total=<faults>

A minor fault is the kernel mapping a page that the process touches for the
first time, as when the allocator has handed freed memory back and a later
array takes it again.  Only this process's own counter is read; nothing of
the machine is set.  Native thread pools are pinned to one thread, as in
the benchmark.

Usage:
    python3 scripts/minor_faults.py --workload lattice-scan --seed 1 --passes 5
"""

import argparse
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import program  # noqa: E402  (pins thread pools before numpy is imported)

program.load()

import cases  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults_per_pass(generated: list) -> dict:
    """Kind -> minor faults taken inside that kind's cases during one pass."""
    faults = dict.fromkeys((case.kind for case in generated), 0)
    for case in generated:
        before = minor_faults()
        cases.run_case(case)
        faults[case.kind] += minor_faults() - before
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    generated = cases.generate(args.workload, args.seed)
    faults_per_pass(generated)  # warm-up: imports, caches and the heap's first growth
    passes = [faults_per_pass(generated) for _ in range(args.passes)]
    fields = [f"{kind}={statistics.median(p[kind] for p in passes):g}" for kind in passes[0]]
    total = statistics.median(sum(p.values()) for p in passes)
    print(f"{args.workload} seed={args.seed} passes={args.passes} {' '.join(fields)} total={total:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
