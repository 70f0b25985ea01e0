#!/usr/bin/env python3
"""Run every experiment kind's default verification and persist the records.

Writes results/<kind>.csv, results/<kind>.json and results/<kind>_plot.csv,
prints one verdict line per check and a closing summary line
("overall: PASS|FAIL - P passed, F failed: kind/row, ..."), exits 0 only if
every assertion row passed, and exits 2 with one "config error" line when
the seed, the worker count or a kind is invalid.  Seed and worker count
come from the command line; reruns with the same seed reproduce the same
rows byte-for-byte (timing columns aside).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supdev.errors import ConfigError
from supdev.harness import EXPERIMENT_KINDS, default_config, emit, run_experiment, run_summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="results")
    parser.add_argument("--kinds", nargs="*", default=list(EXPERIMENT_KINDS))
    args = parser.parse_args()

    try:
        configs = [default_config(kind, seed=args.seed, workers=args.workers) for kind in args.kinds]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    records = []
    for kind, cfg in zip(args.kinds, configs):
        record = run_experiment(cfg)
        stem = str(Path(args.out) / kind.replace("-", "_"))
        emit([record], "csv", stem + ".csv")
        emit([record], "json", stem + ".json")
        emit([record], "plotdata", stem + "_plot.csv")
        records.append(record)
        for row in record.checks:
            verdict = "----" if row.passed is None else ("PASS" if row.passed else "FAIL")
            detail = []
            if row.mc is not None:
                detail.append(f"mc={row.mc:.6g}")
            if row.bound is not None:
                detail.append(f"bound={row.bound:.6g}")
            print(f"{kind:22s} {row.name:32s} {verdict}  {' '.join(detail)}")
    print(run_summary(records))
    return 0 if all(record.all_passed() for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
