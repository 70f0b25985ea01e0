"""Command-line entry point.

``supdev verify [kind ...]`` runs the kinds named, or every kind when none
is, after building and checking every config and output path.  Each output
file is written once, after the last run, with every record; the run ends
with the line ``overall: PASS|FAIL - P passed, F failed: kind/row, ...``.
``supdev calibrate [kind ...]`` fits the free constant of the kinds named,
or of every kind that has one, and prints the fits after the last one; it
writes nothing.  Either subcommand takes each kind once, and ``-c`` with
exactly one kind.  Exit codes: 0 when every assertion row passes, 1 when
any assertion fails, 2 for usage errors, 3 for a computation that could
not finish.  A package error ends the run in one stderr line
``<label>: <message>``, nothing on stdout, and its class's exit code:

    ConfigError         config error     2   bad config, unreadable or unwritable path
    DomainError         domain error     2   input outside a stated domain
    BudgetError         budget error     2   work over a hard budget
    QuadratureError     numerical error  3   quadrature out of nodes before converging
    FactorizationError  numerical error  3   covariance not factorizable after jitter

The seed resolves here, into each config, as CLI flag > SUPDEV_SEED
environment variable > config file > 0, and is echoed in every output row.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

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
CALIBRATED_KINDS = tuple(name for name in EXPERIMENT_KINDS if KINDS[name].calibrate)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors end in one stderr line and exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(sub, default):
    # kind names are checked by default_config, not by choices: with nargs="*"
    # some Pythons test the empty list against the choices
    sub.add_argument("kinds", nargs="*", metavar="kind", help=f"kinds, in order (default: {default})")
    sub.add_argument("-c", "--config", help="INI config file (defaults per kind otherwise)")
    sub.add_argument("--seed", type=int, default=None, help=f"seed override (beats {SEED_ENV_VAR} and config)")
    sub.add_argument("--reps", type=int, default=None, help="replication override (scan kinds draw none: reps stays 1)")
    sub.add_argument("--workers", type=int, default=None, help="worker threads (results do not depend on this)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supdev",
        description="Deviation bounds for Gaussian suprema: evaluate bounds, run seeded "
        "Monte Carlo estimates, and verify every implemented inequality.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify",
        help="run experiment kinds' standard comparisons (every kind when none is named)",
        description="Checks for each kind:\n"
        + "\n".join(f"  {name:>19}: {kind.help}" for name, kind in KINDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(p_verify, "every kind")
    p_verify.add_argument("--csv", help="write every record's rows as CSV to this path")
    p_verify.add_argument("--json", help="write every record as JSON to this path")
    p_verify.add_argument("--plotdata", help="write (x, mc, mc_lo, mc_hi, bound) rows to this path")

    p_cal = subs.add_parser("calibrate", help="fit free constants and report them (never persisted)")
    _add_common(p_cal, " ".join(CALIBRATED_KINDS))

    return parser


def _configs(args, every) -> list:
    """The configs of the kinds named, or of ``every`` kind when none is,
    each with the overrides and the seed applied: --seed, else SUPDEV_SEED,
    else the config's seed (0 when it sets none); --reps skips the scan kinds,
    which keep 1.  -c needs exactly one kind, and a kind named twice is refused."""
    if args.config and len(args.kinds) != 1:
        raise ConfigError(f"-c takes exactly one kind, got {len(args.kinds)}")
    if args.reps is not None and args.reps < 1:  # checked here too, as a scan kind drops it
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    twice = [kind for i, kind in enumerate(args.kinds) if kind in args.kinds[:i]]
    if twice:
        raise ConfigError(f"kind {twice[0]!r} is named twice")
    seed = args.seed
    if seed is None and SEED_ENV_VAR in os.environ:
        seed = check_seed(os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
    overrides = {"seed": seed, "workers": args.workers}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    configs = []
    for kind in args.kinds or every:
        cfg = load_config(args.config) if args.config else default_config(kind)
        if cfg.kind != kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match requested {kind!r}")
        reps = {"reps": args.reps} if args.reps is not None and KINDS[kind].reps > 1 else {}
        configs.append(replace(cfg, **overrides, **reps))
    return configs


def _outputs(args, configs) -> dict:
    """Format -> path of every file the run writes: the configs' [output]
    sections, then the flags.  An empty path, or one path named by two
    formats or by a format and -c, is a config error."""
    outputs = {fmt: path for cfg in configs for fmt, path in cfg.output.items()}
    outputs.update({fmt: getattr(args, fmt) for fmt in ("csv", "json", "plotdata") if getattr(args, fmt) is not None})
    owner = {os.path.abspath(args.config): "-c config"} if args.config else {}
    for fmt, path in outputs.items():
        if not path:
            raise ConfigError(f"{fmt} output path is empty")
        other = owner.setdefault(os.path.abspath(path), fmt)
        if other != fmt:
            raise ConfigError(f"{other} and {fmt} outputs both name {path!r}")
    return outputs


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


def _verify(args) -> int:
    configs = _configs(args, EXPERIMENT_KINDS)
    outputs = _outputs(args, configs)
    records = [run_experiment(cfg) for cfg in configs]
    for fmt, path in outputs.items():
        emit(records, fmt, path)
    for record in records:
        _print_record(record)
    for fmt, path in outputs.items():
        print(f"wrote {fmt} -> {path}")
    print(run_summary(records))
    return 0 if all(record.all_passed() for record in records) else 1


def _calibrate(args) -> int:
    fits = [calibrate(cfg) for cfg in _configs(args, CALIBRATED_KINDS)]
    for fit in fits:
        for key, val in fit.items():
            print(f"{key}={val}")
    print("note: calibrated constants are reported only, never stored as defaults")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _verify(args) if args.command == "verify" else _calibrate(args)
    except SupdevError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
