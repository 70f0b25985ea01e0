#!/usr/bin/env python3
"""Fit the free constants of the transfer and lattice-count experiments.

For the rational-frequency transfer this sweeps a ladder of windows U and
reports, per configuration and overall, the largest constant C for which
the coupled comparison still passes (the admissible set is an interval
(0, C_max]).  For the lattice search it reports the largest C keeping both
count lower bounds below the observed count.  Constants are printed only;
defaults in the package never change.  --seed is the seed override
(SUPDEV_SEED is not read); a package error, such as an invalid seed, ends
the run in one stderr line and the exit code ``supdev calibrate`` gives it.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supdev.errors import SupdevError
from supdev.harness import calibrate, default_config


def transfer_summary(c_max: float) -> str:
    """The overall transfer line, worded from the fitted C_max.

    C_max = inf means no window's comparison constrained C: the coupled
    estimate never exceeded the companion plus its cushion, so the fit
    measured nothing about the constant.
    """
    if math.isinf(c_max):
        return ("transfer overall: C_max = inf - no window constrained C (the coupled estimate never "
                "exceeded companion + cushion), so this run measured nothing about C")
    if c_max >= 1.0:
        return f"transfer overall: every C in (0, {c_max:.4g}] passes; C = 1 is inside"
    return f"transfer overall: every C in (0, {c_max:.4g}] passes; C = 1 is outside and fails"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1500)
    args = parser.parse_args()

    try:
        overall = math.inf
        for U, x in ((4.0, 200), (16.0, 100), (64.0, 50)):
            cfg = default_config("cyclic-transfer")
            out = calibrate(replace(cfg, params=dict(cfg.params, U=U, x=x), reps=args.reps), seed=args.seed)
            overall = min(overall, out["c_max"])
            print(f"transfer U={U:<5} x={x:<4} largest admissible C = {out['c_max']:.4g}")
        print(transfer_summary(overall))
        out = calibrate(default_config("kronecker-search"), seed=args.seed)
        print(f"lattice-count: largest C keeping lower bounds below count = {out['c_max']:.4g} "
              f"(count = {out['count']})")
    except SupdevError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    print("note: reported only, never persisted as defaults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
