"""Output checks, run outside the timed loop.

Each check takes a case and the result the timed loop produced for it and
returns None when the output is right, or a one-line reason when it is not.
The references here are computed independently of the program's estimators:

* equicorrelated and block probabilities by Gauss-Hermite quadrature of the
  one-factor (Dunnett & Sobel 1955) and nested two-level factor forms;
* lattice distances by a scalar ``math.remainder`` recomputation, and hit
  counts by a separate numpy scan on a fixed sample of cases;
* path estimates on a fixed sample by projecting the public ``normal_draws``
  through design matrices built here, then reducing.

FAIL verdict rows are the program's answer and are not output failures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from supdev.cyclic import TestSequence, perp_process
from supdev.harness import records_to_csv
from supdev.mc import CHUNK_REPS, GridSpec, normal_draws
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec

from cases import MC_KINDS, Case, run_case, transfer_grid, transfer_spec

HALF_WIDTHS = 4.0  # a miss beyond this many 95% half-widths fails the case
SAMPLE_EVERY = 8  # recount / recompute every 8th case of a kind (by case id)


def gh_nodes(count: int) -> tuple:
    """Gauss-Hermite nodes and weights for E f(Z), Z standard normal."""
    x, w = np.polynomial.hermite_e.hermegauss(count)
    return x, w / math.sqrt(2.0 * math.pi)


GH = gh_nodes(150)  # within 3e-7 of 300 nodes on the generated cases


def equicorrelated_exact(n: int, lam: float, theta: float, nodes=GH) -> float:
    """P{max_i X_i <= theta} = E Phi((theta - sqrt(lam) Z) / sqrt(1 - lam))^n, lam >= 0."""
    x, w = nodes
    return float(w @ ndtr((theta - math.sqrt(lam) * x) / math.sqrt(1.0 - lam)) ** n)


def block_exact(blocks: int, k: int, u: float, lam: float, theta: float, nodes=GH) -> float:
    """P{max X <= theta} for X = sqrt(lam) Z0 + sqrt(u - lam) Z_j + sqrt(1 - u) eps,
    0 <= lam <= u < 1: E_Z0 [ E_Zj Phi((theta - ...) / sqrt(1 - u))^k ]^blocks."""
    x, w = nodes
    arg = (theta - math.sqrt(lam) * x[:, None] - math.sqrt(u - lam) * x[None, :]) / math.sqrt(1.0 - u)
    inner = (ndtr(arg) ** k) @ w
    return float(w @ inner**blocks)


def _estimate_row(record):
    return next(row for row in record.checks if row.mc_lo is not None)


def check_vector(case: Case, record):
    p = case.params
    if case.kind == "equicorrelated" and p["lam"] >= 0.0:
        exact = equicorrelated_exact(p["n"], p["lam"], p["theta"])
    elif case.kind == "block" and p["lam"] >= 0.0:
        exact = block_exact(p["blocks"], p["block_size"], p["u"], p["lam"], p["theta"])
    else:
        return None
    row = _estimate_row(record)
    half = 0.5 * (row.mc_hi - row.mc_lo)
    if abs(row.mc - exact) > HALF_WIDTHS * half:
        return f"mc {row.mc!r} misses the quadrature value {exact!r} by more than {HALF_WIDTHS} half-widths ({half!r})"
    return None


def _dist(v):
    return np.abs(np.remainder(v + 0.5, 1.0) - 0.5)


def check_lattice(case: Case, record):
    if case.kind != "kronecker-search":
        return None
    p = case.params
    rows = {row.name: row for row in record.checks}
    found = rows["approximation_found"]
    t_best = found.x
    dist = max(abs(math.remainder(t_best * lam - beta, 1.0)) for lam, beta in zip(p["lambdas"], p["betas"]))
    if abs(dist - found.mc) > 1e-12:
        return f"achieved {found.mc!r} but max distance at t_best={t_best!r} is {dist!r}"
    if not p["t_lo"] - 1e-9 <= t_best <= p["t_hi"] + 1e-9:
        return f"t_best={t_best!r} outside the scan interval"
    if int(case.case_id.rsplit(".", 1)[1]) % SAMPLE_EVERY:
        return None
    lam = np.asarray(p["lambdas"])
    beta = np.asarray(p["betas"])
    target = 1.0 / p["omega"]
    m_lo = max(0, math.ceil(p["t_lo"] / p["h"] - 1e-12))
    m_hi = math.floor(p["t_hi"] / p["h"] + 1e-12)
    hits = ambiguous = 0
    for start in range(m_lo, m_hi + 1, 1 << 18):
        t = p["h"] * np.arange(start, min(start + (1 << 18), m_hi + 1), dtype=float)
        d = np.max(_dist(t[:, None] * lam - beta), axis=1)
        hits += int(np.count_nonzero(d <= target))
        ambiguous += int(np.count_nonzero(np.abs(d - target) <= 1e-12))
    count = int(rows["hit_count"].bound)
    if abs(count - hits) > ambiguous:
        return f"hit_count {count} but an independent scan finds {hits} (+-{ambiguous} at the threshold)"
    return None


def _path_reference(spec_a, spec_b, grid, reps: int, seed: int) -> np.ndarray:
    """Per-replication grid maxima of X_a - X_b (X_b omitted when spec_b is None)."""
    nodes = grid.nodes()
    m = spec_a.n_terms

    def design(spec):
        phase = np.outer(spec.angular_freqs(), nodes)
        a = spec.coeff_values()[:, None]
        return np.vstack([a * np.cos(phase), a * np.sin(phase)])  # rows: cos block, sin block

    mat = design(spec_a) if spec_b is None else design(spec_a) - design(spec_b)
    out = []
    for s in range(0, reps, CHUNK_REPS):
        e = min(s + CHUNK_REPS, reps)
        g = normal_draws(seed, s, e - s, 2 * m).reshape(e - s, m, 2)
        paths = np.concatenate([g[:, :, 0], g[:, :, 1]], axis=1) @ mat
        out.append(paths.max(axis=1) if spec_b is None else np.abs(paths).max(axis=1))
    return np.concatenate(out)


def _count_matches(sups: np.ndarray, theta: float, mc: float, reps: int):
    count = int(np.count_nonzero(sups <= theta))
    ambiguous = int(np.count_nonzero(np.abs(sups - theta) <= 1e-9 * max(1.0, abs(theta))))
    if abs(count - round(mc * reps)) > ambiguous:
        return f"estimate {mc!r} but an independent projection counts {count}/{reps} (+-{ambiguous})"
    return None


def check_path(case: Case, result):
    if int(case.case_id.rsplit(".", 1)[1]) % SAMPLE_EVERY:
        return None
    p = case.params
    if case.kind == "moderate-trig":
        spec = PolynomialSpec(CoefficientSeq(kind=p["coeff_kind"]), FrequencySeq(kind="integer", rule=lambda k: k),
                              y=p["y"], x=p["x"], convention="2pi")
        row = _estimate_row(result)
        sups = _path_reference(spec, None, GridSpec.cyclic_rule(spec, p["eps"]), result.reps, result.seed)
        return _count_matches(sups, row.x, row.mc, result.reps)
    spec = transfer_spec(p)
    perp = perp_process(spec, TestSequence(kind=p["ts_kind"]))
    grid = transfer_grid(p)
    if case.kind == "cyclic-transfer":
        rows = {row.name: row for row in result.checks}
        theta = rows["transfer_inequality"].x
        for sp, thr, row in ((spec, 0.5 * theta, rows["transfer_inequality"]), (perp, theta, rows["companion_sup_prob"])):
            err = _count_matches(_path_reference(sp, None, grid, result.reps, result.seed), thr, row.mc, result.reps)
            if err:
                return err
        return None
    sups = _path_reference(spec, perp, grid, p["reps"], p["seed"])
    mean = float(sups.mean())
    if abs(mean - result.estimate) > 1e-9 * max(1.0, abs(mean)):
        return f"mean sup difference {result.estimate!r} but an independent projection gives {mean!r}"
    return None


CHECKS = {"vector-sweep": check_vector, "path-sweep": check_path, "lattice-scan": check_lattice}


def _fingerprint(result) -> str:
    """Result bytes with the timing columns (wall_time_s, timestamp) blanked."""
    if hasattr(result, "checks"):
        lines = records_to_csv([result]).splitlines()[1:]
        return "\n".join(",".join(f[:12] + ["", ""] + f[14:]) for f in (line.split(",") for line in lines))
    return repr((result.estimate, result.half_width, result.reps, result.seed))


def determinism_sample(cases: list, per_kind: int = 2) -> list:
    """The first ``per_kind`` cases (by id) of every MC kind in the workload."""
    chosen = []
    for kind in MC_KINDS:
        chosen += sorted((c for c in cases if c.kind == kind), key=lambda c: c.case_id)[:per_kind]
    return chosen


def check_determinism(case: Case, result):
    """Re-run at workers=1 and again at the case's own worker count; every
    rerun must reproduce the timed run's bytes, timing columns aside."""
    want = _fingerprint(result)
    for workers in (1, None):
        got = _fingerprint(run_case(case, workers=workers))
        if got != want:
            return f"rerun at workers={workers or 'default'} differs from the timed run"
    return None
