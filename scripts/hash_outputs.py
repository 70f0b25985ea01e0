#!/usr/bin/env python3
"""Digest every output of a benchmark workload, to check bit-identity.

Runs each case that ``perfbench/cases.py`` generates for the workload and
seed, at each requested worker count, and prints one line per (workload,
seed, workers):

    <workload> seed=<s> workers=<w> cases=<n> sha256=<hex>

The digest covers, in pass order, each case id followed by its record's CSV
rows with the timing columns (``wall_time_s``, ``timestamp``) dropped, or,
for a direct estimate, the ``repr`` of its estimate, half-width, reps and
seed.  Two checkouts whose lines match produced the same bytes on every
case.  Native thread pools are pinned to one thread, as in the benchmark.

Usage:
    python3 scripts/hash_outputs.py --workload path-sweep --seeds 1 2 3 --workers 1 2
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import program  # noqa: E402  (pins thread pools before numpy is imported)

program.load()

import cases  # noqa: E402
from supdev.harness import csv_without_timing  # noqa: E402


def case_text(result) -> str:
    """A case's output bytes, timing columns aside."""
    if hasattr(result, "checks"):
        return csv_without_timing([result]).rstrip("\n")
    return repr((result.estimate, result.half_width, result.reps, result.seed))


def digest(workload: str, seed: int, workers: int) -> tuple:
    """(case count, sha256 hex) of one pass at the given worker count."""
    h = hashlib.sha256()
    generated = cases.generate(workload, seed)
    for case in generated:
        h.update(f"{case.case_id}\n{case_text(cases.run_case(case, workers=workers))}\n".encode())
    return len(generated), h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workers", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    for seed in args.seeds:
        for workers in args.workers:
            count, hexdigest = digest(args.workload, seed, workers)
            print(f"{args.workload} seed={seed} workers={workers} cases={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
