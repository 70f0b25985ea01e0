"""Experiment orchestration: configs, per-kind check runners, persistence.

A config is a flat INI file with three sections: ``[experiment]`` (kind,
seed, reps, workers), ``[params]`` (kind-specific, schema-checked, unknown
keys rejected) and ``[output]`` (csv/json/plotdata paths).  Each experiment
kind runs one family of comparisons (Monte Carlo estimate vs closed-form
bound, or a deterministic identity) and produces a ResultRecord whose rows
serialize to a fixed CSV header, JSON (lossless round-trip) and a plotdata
table.  Reruns with the same config and seed are byte-identical up to the
timestamp and wall-time columns, for any worker count.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import numbers
import operator
import os
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .bounds import (
    bound_block,
    bound_equicorrelated,
    bound_moderate_trig,
    szego_bounds,
)
from .cyclic import TestSequence, perp_process, transfer_bound
from .decoupling import (
    decoupling_coeff_vector,
    verify_decoupling_mc,
    verify_gebelein_nelson,
)
from .errors import ConfigError, DomainError, SupdevError
from .kronecker import (
    LatticeProblem,
    lattice_correlation,
    lattice_search,
    limsup_exponential_sum,
    divergence_partial_sums,
    solution_count,
    xi,
)
from .mc import CovarianceSpec, GridSpec, mc_sup_prob, mc_sup_probs, mc_vector_sup_prob
from .quadrature import autocovariance
from .spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec, SpectralDensity, power_sum

__all__ = [
    "CheckRow",
    "ExperimentConfig",
    "ResultRecord",
    "CSV_HEADER",
    "EXPERIMENT_KINDS",
    "KINDS",
    "calibrate",
    "check_seed",
    "csv_without_timing",
    "default_config",
    "emit",
    "load_config",
    "load_records_json",
    "parse_config",
    "records_to_csv",
    "records_to_json",
    "records_to_plotdata",
    "run_experiment",
    "run_summary",
]


def _as_int(value) -> int:
    """An integer, or text that ``int`` reads.  Floats are refused, even
    integral ones, as the text "6.0" is; so are bools."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(value)


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise TypeError(f"{type(value).__name__} is not a number")
    return float(value)


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{type(value).__name__} is not text")
    return value


def _as_list(item: Callable) -> Callable:
    """A tuple of ``item`` values, from text split at commas and spaces or
    from any other iterable."""
    return lambda value: tuple(map(item, value.replace(",", " ").split() if isinstance(value, str) else value))


# schema type name -> (coercion, description); text and Python values alike
_TYPES = {
    "int": (_as_int, "an integer"),
    "float": (_as_float, "a number"),
    "str": (_as_str, "a string"),
    "list_float": (_as_list(_as_float), "a list of numbers"),
    "list_int": (_as_list(_as_int), "a list of integers"),
}


def _typed(value, tname: str, what: str):
    """``value`` as schema type ``tname``, or a ConfigError naming ``what``."""
    coerce, description = _TYPES[tname]
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be {description}, got {value!r}") from exc


class Kind(NamedTuple):
    """One experiment kind: its runner, its optional constant fit, its
    default replication count, its one-line description and its parameter
    schema ``{name: (type name, required, default)}``.  The default slot
    holds the ``default_config`` value of every parameter; any config
    that omits an optional one gets the same value."""

    run: Callable
    params: dict
    reps: int
    help: str
    calibrate: Optional[Callable] = None


CSV_HEADER = (
    "experiment,check,config_hash,seed,reps,x,mc,mc_lo,mc_hi,bound,margin,"
    "passed,wall_time_s,timestamp,version"
)


def check_seed(value, source: str) -> int:
    """``value`` as a seed (an integer in [0, 2**64), a Philox key), or a ConfigError naming ``source``."""
    seed = _typed(value, "int", source)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} {seed} outside [0, 2**64)")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated on construction, so every config (parsed from INI, from
    ``default_config``, through ``dataclasses.replace`` or built directly)
    passes one check: kind, reps, workers, seed, the ``[params]`` schema and
    the ``[output]`` paths.  Values are typed by the schema whatever their
    source: the kind is text, params and output are mappings, seed, reps,
    workers and int params are ints, float params floats, list params
    tuples and output paths text, so a config hashes and runs the same as
    its INI text.  Omitted reps take the kind's replication count."""

    kind: str
    params: dict
    seed: Optional[int] = None
    reps: Optional[int] = None
    workers: int = 1
    output: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = _kind(_typed(self.kind, "str", "kind"))
        for name in ("params", "output"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        bad_out = set(self.output) - {"csv", "json", "plotdata"}
        if bad_out:
            raise ConfigError(f"unknown [output] keys: {sorted(bad_out, key=repr)}")
        output = {fmt: _typed(path, "str", f"[output] {fmt} path") for fmt, path in self.output.items()}
        object.__setattr__(self, "output", output)
        if self.reps is None:
            object.__setattr__(self, "reps", entry.reps)
        for name in ("reps", "workers"):
            object.__setattr__(self, name, _typed(getattr(self, name), "int", name))
        if self.reps < 1 or self.workers < 1:
            raise ConfigError(f"reps and workers must be >= 1, got reps={self.reps}, workers={self.workers}")
        if self.seed is not None:
            object.__setattr__(self, "seed", check_seed(self.seed, "seed"))
        object.__setattr__(self, "params", _validate_params(self.kind, self.params))

    def canonical(self) -> str:
        lines = [f"kind={self.kind}", f"reps={self.reps}"]
        for key in sorted(self.params):
            lines.append(f"{key}={self.params[key]}")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _kind(name: str) -> Kind:
    try:
        return KINDS[name]
    except KeyError:
        raise ConfigError(f"unknown experiment kind {name!r}; known: {EXPERIMENT_KINDS}") from None


def _validate_params(kind: str, raw: Mapping) -> dict:
    schema = KINDS[kind].params
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown [params] keys for kind {kind!r}: {sorted(unknown, key=repr)}")
    params = {}
    for name, (tname, required, default) in schema.items():
        if required and name not in raw:
            raise ConfigError(f"kind {kind!r} requires param {name!r}")
        what = f"param {name!r} of kind {kind!r}"
        params[name] = _typed(raw.get(name, default), tname, what)
        if tname in ("float", "list_float") and not np.all(np.isfinite(params[name])):
            raise ConfigError(f"{what} must be finite, got {raw[name]!r}")
    return params


def parse_config(text: str) -> ExperimentConfig:
    """Parse and schema-validate the INI config format."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case: C and c_o are distinct knobs
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc
    known_sections = {"experiment", "params", "output"}
    unknown = set(cp.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "experiment" not in cp:
        raise ConfigError("config needs an [experiment] section")
    exp = dict(cp["experiment"])
    allowed = {"kind", "seed", "reps", "workers"}
    bad = set(exp) - allowed
    if bad:
        raise ConfigError(f"unknown [experiment] keys: {sorted(bad)}")
    if "kind" not in exp:
        raise ConfigError("[experiment] needs a 'kind'")
    kind = exp.pop("kind").strip()
    params = dict(cp["params"]) if "params" in cp else {}
    output = dict(cp["output"]) if "output" in cp else {}
    # seed, reps, workers and the [output] keys stay as read: construction checks them
    return ExperimentConfig(kind=kind, params=params, output=output, **exp)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def effective_seed(config: ExperimentConfig, seed: Optional[int] = None) -> int:
    """The override ``seed`` if given, else the config's seed, else 0."""
    return (config.seed or 0) if seed is None else check_seed(seed, "seed override")


@dataclass
class CheckRow:
    """One comparison row: an estimate, the bound it is checked against, and
    the verdict.  ``passed`` is None for purely informational rows."""

    name: str
    passed: Optional[bool] = None
    mc: Optional[float] = None
    mc_lo: Optional[float] = None
    mc_hi: Optional[float] = None
    bound: Optional[float] = None
    margin: Optional[float] = None
    x: Optional[float] = None


@dataclass
class ResultRecord:
    experiment: str
    config_hash: str
    seed: int
    reps: int
    checks: list
    wall_time_s: float
    timestamp: str
    version: str = __version__

    def all_passed(self) -> bool:
        return all(row.passed for row in self.checks if row.passed is not None)


def _row(name, margin=None, est=None, mc=None, bound=None, x=None, passed=None) -> CheckRow:
    """A row passes iff its margin is >= 0, unless ``passed`` gives its
    verdict; with neither it is informational.  ``est`` (an McEstimate)
    fills ``mc`` and its interval."""
    lo = hi = None
    if est is not None:
        mc, lo, hi = est.estimate, est.estimate - est.half_width, est.estimate + est.half_width
    if passed is None and margin is not None:
        passed = margin >= 0.0
    return CheckRow(name, None if passed is None else bool(passed), mc, lo, hi, bound, margin, x)


def _cushion(*estimates) -> float:
    """The Monte Carlo allowance of a comparison: three half-widths of each
    estimate it reads."""
    return 3.0 * sum(est.half_width for est in estimates)


def _row_from_estimate(name, est, bound, x=None):
    """Assertion row for mc <= bound + cushion."""
    return _row(name, bound + _cushion(est) - est.estimate, est=est, bound=bound, x=x)


# ---------------------------------------------------------------------------
# experiment runners


def _run_equicorrelated(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    rep = bound_equicorrelated(p["n"], p["lam"], p["theta"])
    cov = CovarianceSpec.equicorrelated(p["n"], p["lam"])
    est = mc_vector_sup_prob(cov, p["theta"], cfg.reps, seed, workers=cfg.workers)
    return [_row_from_estimate("sup_prob_le_product_bound", est, rep.value, x=p["theta"])]


def _run_block(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    rep = bound_block(p["lam"], p["u"], p["block_size"], p["blocks"], p["theta"])
    cov = CovarianceSpec.block(p["blocks"], p["block_size"], p["u"], p["lam"])
    est = mc_vector_sup_prob(cov, p["theta"], cfg.reps, seed, workers=cfg.workers)
    return [_row_from_estimate("sup_prob_le_block_bound", est, rep.value, x=p["theta"])]


def _szego_density(root_coeffs, floor_val) -> SpectralDensity:
    """Positive trig-polynomial density |sum c_j e^{ijt}|^2 + floor,
    normalized to unit mean (the sandwich standardizes the sequence).  A
    mass sum c_j^2 + floor that is not finite and positive raises."""
    c = np.asarray(root_coeffs, dtype=float)
    with np.errstate(over="ignore"):
        mass = float(np.sum(c * c)) + floor_val
    if not 0.0 < mass < math.inf:
        raise DomainError(f"density mass sum c_j^2 + floor = {mass} is not finite and positive")

    def f(t):
        e = np.exp(1j * np.asarray(t, dtype=float))
        val = np.zeros_like(e)
        for j, cj in enumerate(c):
            val = val + cj * e**j
        return (np.abs(val) ** 2 + floor_val) / mass

    return SpectralDensity(f, name="squared-modulus trig density")


def _run_szego(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    density = _szego_density(p["root_coeffs"], p["floor"])
    n, z = p["n"], p["z"]
    CovarianceSpec.check_dimension(n)  # before the per-lag autocovariance loop
    sz = szego_bounds(density, n, z)
    gammas = [autocovariance(density, h) for h in range(n)]
    cov = CovarianceSpec.stationary(gammas)
    est = mc_vector_sup_prob(cov, z, cfg.reps, seed, workers=cfg.workers, absolute=True)
    return [
        _row("sandwich_lower_le_mc", est.estimate - (sz.lower - _cushion(est)), est=est, bound=sz.lower, x=z),
        _row_from_estimate("mc_le_sandwich_upper", est, sz.upper, x=z),
        _row("spectral_geometric_mean", bound=sz.g_value),
    ]


def _run_moderate_trig(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    spec = PolynomialSpec(
        coeffs=CoefficientSeq(kind=p["coeff_kind"]),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=p["y"],
        x=p["x"],
        convention="2pi",
    )
    rep = bound_moderate_trig(spec, p["eta"], p["eps"], C=p["C"])
    grid = GridSpec.cyclic_rule(spec, p["eps"])
    est = mc_sup_prob(spec, grid, rep.threshold, cfg.reps, seed, workers=cfg.workers)
    return [
        _row_from_estimate("sup_prob_le_moderate_bound", est, rep.value, x=rep.threshold),
        _row("bound_vacuous", bound=float(rep.vacuous)),
    ]


_FREQ_GOLDEN = 0.6180339887498949


def _transfer_pieces(p: dict, reps: int, seed: int, workers: int):
    coeffs = CoefficientSeq(kind=p["coeff_kind"])
    step = p["freq_step"]
    freqs = FrequencySeq(kind="real", rule=lambda k: step * k)
    spec = PolynomialSpec(coeffs=coeffs, freqs=freqs, y=p["y"], x=p["x"], convention="raw")
    ts = TestSequence(kind=p["ts_kind"])
    perp = perp_process(spec, ts)
    a2 = power_sum(spec, 2)
    theta = 2.0 * p["H"] * math.sqrt(a2)
    h = p["H"] * math.sqrt(a2)
    tb = transfer_bound(spec, ts, p["U"], theta, h, C=p["C"])
    grid = GridSpec.dense(1.0, p["U"], p["grid_per_unit"])
    # X and its companion X-perp are built from the same (g_k, g'_k): one draw table
    est_x, est_perp = mc_sup_probs([spec, perp], grid, [theta - h, theta], reps, seed, workers=workers)
    return tb, est_x, est_perp, theta, h


def _run_cyclic_transfer(cfg: ExperimentConfig, seed: int) -> list:
    tb, est_x, est_perp, theta, h = _transfer_pieces(cfg.params, cfg.reps, seed, cfg.workers)
    rhs = est_perp.estimate + tb.error_term
    return [
        _row("transfer_inequality", rhs + _cushion(est_x, est_perp) - est_x.estimate, est=est_x, bound=rhs, x=theta),
        _row("companion_sup_prob", est=est_perp),
        _row("transfer_error_term", bound=tb.error_term),
        _row("delta", bound=tb.delta_report.delta),
        _row("kappa_1U", bound=float(tb.kappa)),
    ]


def _run_decoupling(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    n_ou, tol = p["ou_n"], 1e-3
    CovarianceSpec.check_dimension(n_ou)  # before any Monte Carlo work
    # the middle row of the n_ou x n_ou OU covariance misses the two-sided sum
    # by (r^(a+1) + r^(b+1)) / (1 - r), r = e^(-1/2), a + b = n_ou - 1
    r, a = math.exp(-0.5), (n_ou - 1) // 2
    if n_ou < 1 or (r ** (a + 1) + r ** (n_ou - a)) / (1.0 - r) > tol:
        raise DomainError(f"ou_n={n_ou} leaves the OU row sum more than {tol} below its limit")
    rows = []
    cov = CovarianceSpec.equicorrelated(p["n"], p["lam"])
    p_x = decoupling_coeff_vector(cov).p_value
    boxes = [(0.0, math.inf)] * p["n"]
    chk = verify_decoupling_mc(cov, p["beta"] * p_x, p["beta"], boxes, cfg.reps, seed, workers=cfg.workers)
    rows.append(_row_from_estimate("product_indicator_le_pnorm_bound", chk.lhs, chk.rhs))
    gn = verify_gebelein_nelson(p["rho"], "quadratic", cfg.reps, seed, workers=cfg.workers)
    for name, rhs in (("correlation_l2_bound", gn.gebelein_rhs), ("hypercontractive_bound", gn.nelson_rhs)):
        rows.append(_row(name, rhs + _cushion(gn.lhs) - abs(gn.lhs.estimate), est=gn.lhs, bound=rhs))
    gammas = np.exp(-0.5 * np.arange(n_ou))
    p_ou = decoupling_coeff_vector(CovarianceSpec.stationary(gammas)).p_value
    exact = (math.sqrt(math.e) + 1.0) / (math.sqrt(math.e) - 1.0)
    rows.append(_row("ou_decoupling_constant", tol - abs(p_ou - exact), mc=p_ou, bound=exact))
    return rows


def _lattice_problem(p: dict) -> LatticeProblem:
    return LatticeProblem(
        lambdas=tuple(p["lambdas"]),
        betas=tuple(p["betas"]),
        omega=p["omega"],
        h=p["h"],
        interval=(p["t_lo"], p["t_hi"]),
        c_o=p["c_o"],
    )


def _run_kronecker_search(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    problem = _lattice_problem(p)
    search = lattice_search(problem)
    target = 1.0 / p["omega"]
    xi_rep = xi(problem)
    counts = solution_count(problem, search, xi_rep, C=p["C"])
    return [
        _row("approximation_found", target - search.achieved, mc=search.achieved, bound=target, x=search.t_best),
        _row("hit_count", bound=float(counts.count)),
        _row("count_lower_ii", bound=counts.lower_ii),
        _row("count_lower_iii", bound=counts.lower_iii),
        _row("k_scale", bound=float(counts.k)),
        _row("xi", bound=xi_rep.xi),
    ]


def _run_limsup(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    running, final = limsup_exponential_sum(
        p["alphas"], p["lambdas"], p["start"], p["step"], p["max_terms"], convention=p["convention"]
    )
    total = float(np.sum(np.asarray(p["alphas"])))
    # rounding alone parts the modulus of N terms from the total by up to (2.5 N + 5) u
    # sum(alpha), u = 2^-53: the verdict allows 4 (N + 4) ulps, which the pinned margin leaves out
    slack = 4.0 * (len(p["alphas"]) + 4) * float(np.spacing(total))
    monotone = np.all(np.diff(running) >= 0.0)
    target = p["target_frac"] * total
    return [
        _row("running_max_monotone", passed=monotone),
        _row("final_le_total", total - final, mc=final, bound=total, passed=final <= total + slack),
        _row("final_ge_target", final - target, mc=final, bound=target, x=float(p["max_terms"])),
    ]


def _explicit_spec(coeffs, lambdas) -> PolynomialSpec:
    """The raw-convention sum of a_k cos(lambda_k u), k = 1..len(coeffs), with
    non-vanishing coefficients; the two lists must be of one length."""
    if len(coeffs) != len(lambdas):
        raise DomainError(f"{len(coeffs)} coefficients for {len(lambdas)} frequencies")
    return PolynomialSpec(
        coeffs=CoefficientSeq.from_values(coeffs, nonvanishing=True),
        freqs=FrequencySeq.reals(lambdas),
        y=1,
        x=len(coeffs),
        convention="raw",
    )


def _run_divergence(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    ladder = sorted(set(p["ladder"]))
    if ladder and ladder[0] < 1:
        raise DomainError(f"ladder rung J={ladder[0]} must be at least 1")
    spec = _explicit_spec(p["coeffs"], p["lambdas"])
    js = sorted(set(ladder) | {2 * j for j in ladder})
    sums = dict(zip(js, divergence_partial_sums(spec, p["a"], js)))
    rows = []
    for j in ladder:
        floor = (1.0 + p["growth"]) * sums[j]
        rows.append(_row(f"no_saturation_J_{j}", sums[2 * j] - floor, mc=sums[2 * j], bound=floor, x=float(j)))
    return rows


def _run_lattice_correlation(cfg: ExperimentConfig, seed: int) -> list:
    p = cfg.params
    if p["max_points"] < 1:
        raise DomainError(f"max_points={p['max_points']} must be at least 1")
    if p["a"] <= 0.0:
        raise DomainError(f"step a={p['a']} must be positive")
    lambdas = tuple(p["lambdas"])
    spec = _explicit_spec(p["coeffs"], lambdas)
    omega = p["omega"]
    beta = p["beta"]
    # sine-form filter at 1/omega needs integer-distance precision pi*omega
    # on the scaled frequencies a*lambda/pi with target beta/pi
    scaled = LatticeProblem(
        lambdas=tuple(p["a"] * lv / math.pi for lv in lambdas),
        betas=tuple(beta / math.pi for _ in lambdas),
        omega=int(math.ceil(math.pi * omega)),
        h=1.0,
        interval=(1.0, p["scan_hi"]),
        c_o=0.125,
    )
    search = lattice_search(scaled)
    # the correlation cap can only mix below 1 when the sampled phase
    # parities differ, so keep one point per parity signature
    ts, seen = [], set()
    for t_raw in search.hits:
        t = float(p["a"] * t_raw)
        parity = tuple(int(round((lv * t - beta) / math.pi)) % 2 for lv in lambdas)
        if parity in seen:
            continue
        seen.add(parity)
        ts.append(t)
        if len(ts) >= p["max_points"]:
            break
    if not ts:
        return [_row("lattice_points_found", passed=False)]
    res = lattice_correlation(spec, p["a"], omega, beta, p["c"], ts)
    finite = math.isfinite(res.max_offdiag_corr)
    return [
        _row("lattice_points_found", bound=float(len(res.accepted_ts)), passed=True),
        # with fewer than two accepted points the correlation is -inf, so the
        # cap passes with no margin
        _row(
            "correlation_cap",
            (res.eta - res.max_offdiag_corr) if finite else None,
            mc=res.max_offdiag_corr if finite else None,
            bound=res.eta,
            passed=res.max_offdiag_corr <= res.eta,
        ),
        _row("variance_floor", res.var_ratio_min - res.eta, mc=res.var_ratio_min, bound=res.eta),
    ]


def _calibrate_transfer(cfg: ExperimentConfig, seed: int) -> dict:
    """The largest C for which the transfer comparison still passes (the
    error term decays in C, so admissible C form an interval (0, C_max])."""
    tb, est_x, est_perp, theta, h = _transfer_pieces(cfg.params, cfg.reps, seed, cfg.workers)
    deficit = est_x.estimate - est_perp.estimate - _cushion(est_x, est_perp)
    d = tb.delta_report.delta
    if d == 0.0 or deficit <= 0.0:
        c_max = math.inf
    else:
        q = h * h / (d * d * tb.log_kappa_guarded)
        c_max = math.log(2.0 / deficit) / q if deficit < 2.0 else 0.0
    return {"kind": cfg.kind, "c_max": c_max, "passes_at_C_1": bool(c_max >= 1.0)}


def _calibrate_kronecker(cfg: ExperimentConfig, seed: int) -> dict:
    """The largest C for which both count lower bounds stay below the
    observed count."""
    problem = _lattice_problem(cfg.params)
    base = solution_count(problem, lattice_search(problem), xi(problem))
    count = base.count
    if count == 0:
        return {"kind": cfg.kind, "c_max": 0.0}
    # lower_ii scales like C^N, lower_iii like C^{N/2}
    n = problem.n_freq
    c_ii = (count / base.lower_ii) ** (1.0 / n) if base.lower_ii > 0 else math.inf
    c_iii = (count / base.lower_iii) ** (2.0 / n) if math.isfinite(base.lower_iii) and base.lower_iii > 0 else math.inf
    return {"kind": cfg.kind, "c_max": min(c_ii, c_iii), "count": count}


KINDS = {
    "equicorrelated": Kind(
        _run_equicorrelated,
        {
            "n": ("int", True, 8),
            "lam": ("float", True, 0.3),
            "theta": ("float", True, 2.0),
        },
        reps=100000,
        help="grid max of an equicorrelated Gaussian vector vs the product bound",
    ),
    "block": Kind(
        _run_block,
        {
            "blocks": ("int", True, 3),  # N
            "block_size": ("int", True, 4),  # k
            "u": ("float", True, 0.5),
            "lam": ("float", True, 0.1),
            "theta": ("float", True, 2.0),
        },
        reps=100000,
        help="block-partitioned covariance max vs the factorized Gaussian bound",
    ),
    "szego": Kind(
        _run_szego,
        {
            "root_coeffs": ("list_float", True, (1.0, 0.6, -0.3)),
            "floor": ("float", False, 0.05),
            "n": ("int", True, 5),
            "z": ("float", True, 1.5),
        },
        reps=60000,
        help="stationary-sequence max vs the spectral geometric-mean sandwich",
    ),
    "moderate-trig": Kind(
        _run_moderate_trig,
        {
            "coeff_kind": ("str", False, "inv_sqrt"),
            "y": ("int", False, 1),
            "x": ("int", True, 100),
            "eta": ("float", True, 0.3),
            "eps": ("float", False, 1.0),
            "C": ("float", False, 0.05),
        },
        reps=10000,
        help="periodic-sum grid supremum vs the moderate-deviation bound",
    ),
    "cyclic-transfer": Kind(
        _run_cyclic_transfer,
        {
            "coeff_kind": ("str", False, "inv_sqrt"),
            "x": ("int", True, 64),
            "y": ("int", False, 1),
            "freq_step": ("float", False, _FREQ_GOLDEN),
            "ts_kind": ("str", False, "pow2"),
            "U": ("float", True, 8.0),
            "H": ("float", True, 1.0),
            "C": ("float", False, 1.0),
            "grid_per_unit": ("int", False, 128),
        },
        reps=2000,
        help="almost periodic sup vs its rational-frequency companion plus error term",
        calibrate=_calibrate_transfer,
    ),
    "decoupling": Kind(
        _run_decoupling,
        {
            "n": ("int", False, 3),
            "lam": ("float", False, 0.2),
            "rho": ("float", False, 0.5),
            "beta": ("float", False, 2.0),
            "ou_n": ("int", False, 200),
        },
        reps=60000,
        help="product-of-indicators factorization, correlation inequalities, OU row-sum constant",
    ),
    "kronecker-search": Kind(
        _run_kronecker_search,
        {
            "lambdas": ("list_float", True, (2**0.5, 3**0.5)),
            "betas": ("list_float", True, (0.25, 0.75)),
            "omega": ("int", True, 10),
            "h": ("float", False, 1.0),
            "t_lo": ("float", True, 1.0),
            "t_hi": ("float", True, 1.0e6),
            "c_o": ("float", False, 0.125),
            "C": ("float", False, 1.0),
        },
        reps=1,
        help="simultaneous approximation on a step lattice: hit search and counts",
        calibrate=_calibrate_kronecker,
    ),
    "limsup": Kind(
        _run_limsup,
        {
            "alphas": ("list_float", True, (1.0, 1.0, 1.0)),
            "lambdas": ("list_float", True, (2**0.5, 3**0.5, 5**0.5)),
            "max_terms": ("int", True, 100000),
            "start": ("int", False, 1),
            "step": ("int", False, 1),
            "convention": ("str", False, "2pi"),
            "target_frac": ("float", False, 0.95),
        },
        reps=1,
        help="running maximum of an exponential sum along an arithmetic progression",
    ),
    "divergence": Kind(
        _run_divergence,
        {
            "coeffs": ("list_float", True, (1.0, 0.8, 0.6, 0.4)),
            "lambdas": ("list_float", True, (2**0.5, 3**0.5, 5**0.5, 7**0.5)),
            "a": ("float", False, 1.0),
            "ladder": ("list_int", False, (1000, 10000)),
            "growth": ("float", False, 0.1),
        },
        reps=1,
        help="growth of the normalized absolute-covariance partial sums",
    ),
    "lattice-correlation": Kind(
        _run_lattice_correlation,
        {
            "lambdas": ("list_float", True, (2**0.5, 3**0.5)),
            "coeffs": ("list_float", True, (1.0, 0.8)),
            "a": ("float", False, 1.0),
            "omega": ("int", True, 160),
            "beta": ("float", True, 0.2),
            "c": ("float", False, 0.6),
            "scan_hi": ("float", False, 1.0e6),
            "max_points": ("int", False, 4),
        },
        reps=1,
        help="correlation cap and variance floor of the cosine part on lattice points",
    ),
}

EXPERIMENT_KINDS = tuple(sorted(KINDS))


def _tagged(work: Callable, config: ExperimentConfig, seed: int):
    """``work(config, seed)``; a package error it raises gets ``[kind=... hash=...]``."""
    try:
        return work(config, seed)
    except SupdevError as exc:
        raise type(exc)(f"[kind={config.kind} hash={config.config_hash()}] {exc}") from exc


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None) -> ResultRecord:
    """Dispatch the config to its kind's runner and wrap the result rows."""
    eff_seed = effective_seed(config, seed)
    start = time.perf_counter()
    rows = _tagged(KINDS[config.kind].run, config, eff_seed)
    wall = time.perf_counter() - start
    return ResultRecord(
        experiment=config.kind,
        config_hash=config.config_hash(),
        seed=eff_seed,
        reps=config.reps,
        checks=rows,
        wall_time_s=wall,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# persistence


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        for row in rec.checks:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        rec.experiment,
                        row.name,
                        rec.config_hash,
                        rec.seed,
                        rec.reps,
                        row.x,
                        row.mc,
                        row.mc_lo,
                        row.mc_hi,
                        row.bound,
                        row.margin,
                        row.passed,
                        rec.wall_time_s,
                        rec.timestamp,
                        rec.version,
                    )
                )
            )
    return "\n".join(lines) + "\n"


def csv_without_timing(records) -> str:
    """``records_to_csv`` without its ``wall_time_s`` and ``timestamp``
    columns: the bytes that a rerun with the same config and seed
    reproduces, for any worker count."""
    keep = [i for i, name in enumerate(CSV_HEADER.split(",")) if name not in ("wall_time_s", "timestamp")]
    rows = (line.split(",") for line in records_to_csv(records).splitlines())
    return "".join(",".join(cells[i] for i in keep) + "\n" for cells in rows)


def records_to_json(records) -> str:
    payload = {"records": [asdict(rec) for rec in records]}
    return json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n"


def load_records_json(text: str):
    payload = json.loads(text)
    out = []
    for raw in payload["records"]:
        checks = [CheckRow(**c) for c in raw.pop("checks")]
        out.append(ResultRecord(checks=checks, **raw))
    return out


def records_to_plotdata(records) -> str:
    lines = ["x,mc,mc_lo,mc_hi,bound"]
    idx = 0
    for rec in records:
        for row in rec.checks:
            x = row.x if row.x is not None else float(idx)
            lines.append(",".join(_fmt(v) for v in (x, row.mc, row.mc_lo, row.mc_hi, row.bound)))
            idx += 1
    return "\n".join(lines) + "\n"


def run_summary(records) -> str:
    """The closing line of a run, ``overall: PASS|FAIL - P passed, F failed:
    kind/row, ...``; rows without a verdict count in neither total."""
    passed, failed = 0, []
    for record in records:
        for row in record.checks:
            if row.passed:
                passed += 1
            elif row.passed is not None:
                failed.append(f"{record.experiment}/{row.name}")
    names = ": " + ", ".join(failed) if failed else ""
    return f"overall: {'FAIL' if failed else 'PASS'} - {passed} passed, {len(failed)} failed{names}"


def emit(records, fmt: str, path: str) -> str:
    """Write records in the requested format; returns the path written."""
    render = {"csv": records_to_csv, "json": records_to_json, "plotdata": records_to_plotdata}.get(fmt)
    if render is None:
        raise ConfigError(f"unknown emit format {fmt!r}; use csv, json or plotdata")
    text = render(records)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {fmt} to {path!r}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# defaults and calibration


def default_config(kind: str, seed: Optional[int] = None, workers: int = 1) -> ExperimentConfig:
    entry = _kind(kind)
    return ExperimentConfig(
        kind=kind,
        params={name: default for name, (_, _, default) in entry.params.items()},
        seed=seed,
        workers=workers,
    )


def calibrate(config: ExperimentConfig, seed: Optional[int] = None) -> dict:
    """Fit the free constant of the configured experiment and report it;
    the kinds with a ``calibrate`` entry in ``KINDS`` have one.  Nothing is
    persisted, so a config with an ``[output]`` section is refused."""
    eff_seed = effective_seed(config, seed)
    fit = KINDS[config.kind].calibrate
    if fit is None:
        raise ConfigError(f"no free constant to calibrate for kind {config.kind!r}")
    if config.output:
        raise ConfigError(f"calibrate writes no files; drop the [output] keys {sorted(config.output)}")
    return _tagged(fit, config, eff_seed)
