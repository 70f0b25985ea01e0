"""Command-line entry point.

A verify run ends with the line ``overall: PASS|FAIL - P passed, F failed:
kind/row, ...``.  Exit codes: 0 when every assertion row passes, 1 when any
assertion fails, 2 for usage or config errors, out-of-domain inputs and
inputs whose work would exceed a hard budget.
The seed resolves as CLI flag > SUPDEV_SEED environment variable > config
file > 0 and is echoed in every output row.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ConfigError, DomainError, SupdevError
from .harness import (
    EXPERIMENT_KINDS,
    KINDS,
    SEED_ENV_VAR,
    calibrate,
    default_config,
    emit,
    load_config,
    run_experiment,
    run_summary,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors end in one stderr line and exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("-c", "--config", help="INI config file (defaults per kind otherwise)")
    sub.add_argument("--seed", type=int, default=None, help=f"seed override (beats {SEED_ENV_VAR} and config)")
    sub.add_argument("--reps", type=int, default=None, help="replication override")
    sub.add_argument("--workers", type=int, default=None, help="worker threads (results do not depend on this)")


def _add_outputs(sub):
    sub.add_argument("--csv", help="write rows as CSV to this path")
    sub.add_argument("--json", help="write the record as JSON to this path")
    sub.add_argument("--plotdata", help="write (x, mc, mc_lo, mc_hi, bound) rows to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supdev",
        description="Deviation bounds for Gaussian suprema: evaluate bounds, run seeded "
        "Monte Carlo estimates, and verify every implemented inequality.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify",
        help="run one experiment kind's standard comparison",
        description="Checks for each kind:\n"
        + "\n".join(f"  {name:>19}: {kind.help}" for name, kind in KINDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_verify.add_argument("kind", choices=EXPERIMENT_KINDS)
    _add_common(p_verify)
    _add_outputs(p_verify)

    p_cal = subs.add_parser("calibrate", help="fit free constants and report them (never persisted)")
    p_cal.add_argument("kind", choices=tuple(name for name in EXPERIMENT_KINDS if KINDS[name].calibrate))
    _add_common(p_cal)

    return parser


def _resolve_config(args, kind):
    if args.config:
        cfg = load_config(args.config)
        if cfg.kind != kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match requested {kind!r}")
    else:
        cfg = default_config(kind)
    updates = {}
    if args.reps is not None:
        updates["reps"] = args.reps
    if args.workers is not None:
        updates["workers"] = args.workers
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    return cfg


def _print_record(record) -> None:
    print(f"experiment={record.experiment} seed={record.seed} reps={record.reps} hash={record.config_hash}")
    for row in record.checks:
        bits = [f"  {row.name}:"]
        if row.mc is not None:
            bits.append(f"mc={row.mc:.6g}")
            if row.mc_lo is not None:
                bits.append(f"ci=[{row.mc_lo:.6g}, {row.mc_hi:.6g}]")
        if row.bound is not None:
            bits.append(f"bound={row.bound:.6g}")
        if row.margin is not None:
            bits.append(f"margin={row.margin:.6g}")
        if row.passed is not None:
            bits.append("PASS" if row.passed else "FAIL")
        print(" ".join(bits))


def _write_outputs(record, cfg, args):
    targets = dict(cfg.output)
    for fmt in ("csv", "json", "plotdata"):
        flag = getattr(args, fmt, None)
        if flag:
            targets[fmt] = flag
    for fmt, path in targets.items():
        emit([record], fmt, path)
        print(f"wrote {fmt} -> {path}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args, args.kind)
        if args.command == "calibrate":
            result = calibrate(cfg, seed=args.seed)
            for key, val in result.items():
                print(f"{key}={val}")
            print("note: calibrated constants are reported only, never stored as defaults")
            return 0
        record = run_experiment(cfg, seed=args.seed)
        _print_record(record)
        _write_outputs(record, cfg, args)
        print(run_summary([record]))
        return 0 if record.all_passed() else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except SupdevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
