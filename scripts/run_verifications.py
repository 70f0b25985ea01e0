#!/usr/bin/env python3
"""Run every experiment kind's default verification and persist the records.

Writes results/<kind>.csv, results/<kind>.json and results/<kind>_plot.csv,
prints one verdict line per check and a closing summary line
("overall: PASS|FAIL - P passed, F failed: kind/row, ..."), and exits 0 only
if every assertion row passed.  A package error, such as an invalid seed,
worker count or kind or an unwritable --out, ends the run in one stderr
line and the exit code ``supdev verify`` gives it.  --seed is the seed
override (SUPDEV_SEED is not read); reruns with the same seed reproduce the
same rows byte-for-byte (timing columns aside).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supdev.errors import SupdevError
from supdev.harness import EXPERIMENT_KINDS, default_config, emit, run_experiment, run_summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="results")
    parser.add_argument("--kinds", nargs="*", default=list(EXPERIMENT_KINDS))
    args = parser.parse_args()

    try:
        # every kind is checked before the first run writes or prints anything
        configs = [default_config(kind, workers=args.workers) for kind in args.kinds]
        records = []
        for kind, cfg in zip(args.kinds, configs):
            record = run_experiment(cfg, seed=args.seed)
            stem = str(Path(args.out) / kind.replace("-", "_"))
            for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("plotdata", "_plot.csv")):
                emit([record], fmt, stem + suffix)
            records.append(record)
            for row in record.checks:
                verdict = "----" if row.passed is None else ("PASS" if row.passed else "FAIL")
                values = (("mc", row.mc), ("bound", row.bound))
                detail = " ".join(f"{name}={v:.6g}" for name, v in values if v is not None)
                print(f"{kind:22s} {row.name:32s} {verdict}  {detail}")
    except SupdevError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(run_summary(records))
    return 0 if all(record.all_passed() for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
