"""Command-line entry point.

A verify run ends with the line ``overall: PASS|FAIL - P passed, F failed:
kind/row, ...``.  Exit codes: 0 when every assertion row passes, 1 when any
assertion fails, 2 for usage errors.  A package error ends the run in one
stderr line ``<label>: <message>`` and its class's exit code:

    ConfigError         config error    2   bad config, unreadable or unwritable path
    DomainError         domain error    2   input outside a stated domain
    BudgetError         budget error    2   work over a hard budget
    QuadratureError     error           1
    FactorizationError  error           1

The seed resolves as CLI flag > SUPDEV_SEED environment variable > config
file > 0 and is echoed in every output row.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, SupdevError
from .harness import (
    EXPERIMENT_KINDS,
    KINDS,
    calibrate,
    check_seed,
    default_config,
    emit,
    load_config,
    run_experiment,
    run_summary,
)

SEED_ENV_VAR = "SUPDEV_SEED"


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


def _seed_override(args):
    """--seed, else SUPDEV_SEED, else None (the library then takes the config's seed, else 0)."""
    env = os.environ.get(SEED_ENV_VAR)
    return check_seed(env, SEED_ENV_VAR) if args.seed is None and env is not None else args.seed


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
    flags = {fmt: getattr(args, fmt) for fmt in ("csv", "json", "plotdata") if getattr(args, fmt)}
    for fmt, path in {**cfg.output, **flags}.items():
        emit([record], fmt, path)
        print(f"wrote {fmt} -> {path}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args, args.kind)
        if args.command == "calibrate":
            result = calibrate(cfg, seed=_seed_override(args))
            for key, val in result.items():
                print(f"{key}={val}")
            print("note: calibrated constants are reported only, never stored as defaults")
            return 0
        record = run_experiment(cfg, seed=_seed_override(args))
        _print_record(record)
        _write_outputs(record, cfg, args)
        print(run_summary([record]))
        return 0 if record.all_passed() else 1
    except SupdevError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
