"""Seeded case generators for the three sweep workloads, and the case runner.

Every workload is a fixed mix of experiment kinds.  The mix fixes the
problem sizes (dimension, term count, grid size, lattice length, precision),
so one pass over a workload costs the same for every seed; the seed draws
the values (correlations, thresholds, frequencies, targets), the pass order
and the Monte Carlo seeds.  The program sees only
the generated ``ExperimentConfig``s (or, for the coupled-difference cases,
the public ``mc``/``cyclic`` arguments built from them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from supdev.cyclic import TestSequence, perp_process
from supdev.harness import ExperimentConfig, run_experiment
from supdev.mc import GridSpec, mc_expected_sup_diff
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec

WORKERS = 2  # MC worker threads per case: one per core of the 2-core reference machine

WORKLOADS = ("vector-sweep", "path-sweep", "lattice-scan")

# kinds whose results come from the Monte Carlo engine (determinism sample)
MC_KINDS = (
    "equicorrelated", "block", "szego", "decoupling",
    "cyclic-transfer", "moderate-trig", "coupled-diff",
)

# lattice-correlation ω > 12π / (c (πβ)²) with c = 0.6; ω' = ⌈πω⌉ stays near 600
_LC_C = 0.6
_LC_OMEGA_MAX = 190


@dataclass(frozen=True)
class Case:
    """One unit of work: an experiment config, or (kind "coupled-diff") the
    parameters of a direct ``mc_expected_sup_diff`` call."""

    case_id: str
    kind: str
    group: int  # index of the generator in the workload's mix
    config: Optional[ExperimentConfig] = None
    direct: Optional[dict] = None

    @property
    def reps(self) -> int:
        return self.config.reps if self.config is not None else self.direct["reps"]

    @property
    def params(self) -> dict:
        return self.config.params if self.config is not None else self.direct


def _spread(count: int, lo: int, hi: int) -> list:
    """``count`` integers spread evenly over [lo, hi], the same for every seed."""
    return [lo + round(i * (hi - lo) / max(count - 1, 1)) for i in range(count)]


def _log_spread(count: int, lo: int, hi: int) -> list:
    """``count`` integers spread evenly in log scale over [lo, hi]."""
    return [round(lo * (hi / lo) ** (i / max(count - 1, 1))) for i in range(count)]


def _mc_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _sorted_freqs(rng, count: int) -> tuple:
    """Distinct, well separated real frequencies in [0.5, 3.5]."""
    while True:
        vals = np.sort(rng.uniform(0.5, 3.5, count))
        if count == 1 or np.min(np.diff(vals)) > 0.05:
            return tuple(float(v) for v in vals)


# ---------------------------------------------------------------------------
# generators: kind -> list of (kind, params, reps); sizes fixed, values by seed


def _equicorrelated(rng, count):
    return [
        ("equicorrelated", {"n": n, "lam": _u(rng, 0.05, 0.8), "theta": _u(rng, 0.5, 3.0)}, 100_000)
        for n in _log_spread(count, 2, 32)
    ]


def _block(rng, count):
    out = []
    for i in range(count):
        k = (3, 4, 6)[i % 3]
        n_max = 24 // k
        blocks = 1 + (i // 3) % n_max  # every block count for each k, dimension n = blocks k <= 24
        u = _u(rng, 1.0 / (k - 1) + 0.02, 0.95)  # (k-1) u > 1
        # lam <= u (k-1)/k keeps 1 - u + k (u - lam) >= 1, so beta_block stays in (0, 1)
        lam = _u(rng, 0.02, u * (k - 1) / k)
        params = {"blocks": blocks, "block_size": k, "u": u, "lam": lam, "theta": _u(rng, 0.5, 3.0)}
        out.append(("block", params, 100_000))
    return out


def _szego(rng, count):
    out = []
    for i, n in enumerate(_spread(count, 2, 8)):
        roots = (1.0, *(_u(rng, -0.8, 0.8) for _ in range(1 + i % 3)))
        out.append(("szego", {"root_coeffs": roots, "floor": 0.05, "n": n, "z": _u(rng, 0.5, 3.0)}, 60_000))
    return out


def _decoupling(rng, count):
    return [
        ("decoupling", {
            "n": n, "lam": _u(rng, 0.05, 0.6), "rho": _u(rng, -0.9, 0.9), "beta": _u(rng, 1.5, 3.0), "ou_n": 200,
        }, 60_000)
        for n in _spread(count, 2, 6)
    ]


def _transfer_params(rng, count):
    terms = _spread(count, 32, 128)
    spans = _spread(count, 4, 16)
    spans = [spans[(7 * i) % count] for i in range(count)]  # a fixed pairing of sizes, 7 coprime to 40
    return [
        {"coeff_kind": "inv_sqrt", "x": x, "y": 1, "freq_step": _u(rng, 0.3, 0.9), "ts_kind": "pow2",
         "U": float(U), "H": _u(rng, 0.5, 1.5), "C": 1.0, "grid_per_unit": 64}
        for x, U in zip(terms, spans)
    ]


def _cyclic_transfer(rng, count):
    return [("cyclic-transfer", p, 1000) for p in _transfer_params(rng, count)]


def _moderate_trig(rng, count):
    return [
        ("moderate-trig", {
            "coeff_kind": "inv_sqrt", "y": 1, "x": x, "eta": _u(rng, 0.2, 0.5), "eps": 1.0, "C": _u(rng, 0.02, 0.1),
        }, 2000)
        for x in _spread(count, 40, 200)
    ]


def _coupled_diff(rng, count):
    out = []
    for p in _transfer_params(rng, count):
        del p["H"], p["C"]
        out.append(("coupled-diff", p, 1000))
    return out


def _kronecker_search(rng, count, n_freq):
    omegas = [5] * count if n_freq == 3 else _spread(count, 10, 40)
    return [
        ("kronecker-search", {
            "lambdas": _sorted_freqs(rng, n_freq),
            "betas": tuple(float(b) for b in rng.random(n_freq)),
            "omega": omega, "h": 1.0, "t_lo": 1.0, "t_hi": 5.0e5, "c_o": 0.125, "C": 1.0,
        }, 1)
        for omega in omegas
    ]


def _lattice_correlation(rng, count):
    out = []
    for i in range(count):
        q = (i + 0.5) / count
        beta = _u(rng, 0.2, 0.35)
        omega_min = int(math.floor(12.0 * math.pi / (_LC_C * (math.pi * beta) ** 2))) + 1
        omega = omega_min + min(int(q * (_LC_OMEGA_MAX - omega_min + 1)), _LC_OMEGA_MAX - omega_min)
        out.append(("lattice-correlation", {
            "lambdas": _sorted_freqs(rng, 2), "coeffs": (1.0, _u(rng, 0.5, 1.0)), "a": 1.0,
            "omega": omega, "beta": beta, "c": _LC_C, "scan_hi": 1.0e6, "max_points": 8,
        }, 1))
    return out


def _limsup(rng, count):
    return [
        ("limsup", {
            "alphas": tuple(float(a) for a in rng.uniform(0.5, 1.5, 3)), "lambdas": _sorted_freqs(rng, 3),
            "max_terms": 200_000, "start": 1, "step": int(rng.integers(1, 4)), "convention": "2pi",
            "target_frac": 0.9,
        }, 1)
        for _ in range(count)
    ]


def _divergence(rng, count):
    return [
        ("divergence", {
            "coeffs": tuple(float(c) for c in rng.uniform(0.3, 1.0, 4)), "lambdas": _sorted_freqs(rng, 4),
            "a": 1.0, "ladder": (1000, 10000, 100000), "growth": 0.1,
        }, 1)
        for _ in range(count)
    ]


# workload -> ordered (generator, count); the first entry supplies the warm-up case
_MIXES = {
    "vector-sweep": (
        (_equicorrelated, 60), (_block, 40), (_szego, 50), (_decoupling, 50),
    ),
    "path-sweep": (
        (_cyclic_transfer, 40), (_moderate_trig, 40), (_coupled_diff, 40),
    ),
    "lattice-scan": (
        (lambda rng, n: _kronecker_search(rng, n, 2), 45),
        (lambda rng, n: _kronecker_search(rng, n, 3), 15),
        (_lattice_correlation, 20), (_limsup, 20), (_divergence, 20),
    ),
}


def generate(workload: str, seed: int) -> list:
    """The workload's cases in pass order; identical for identical seeds."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    cases = []
    for index, (gen, count) in enumerate(_MIXES[workload]):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
        for j, (kind, params, reps) in enumerate(gen(rng, count)):
            case_id = f"{kind}.{index}.{j:03d}"
            if kind == "coupled-diff":
                cases.append(Case(case_id, kind, index, direct={**params, "reps": reps, "seed": _mc_seed(rng)}))
            else:
                config = ExperimentConfig(kind=kind, params=params, seed=_mc_seed(rng), reps=reps, workers=WORKERS)
                cases.append(Case(case_id, kind, index, config=config))
    order = np.random.default_rng([seed, WORKLOADS.index(workload), 99]).permutation(len(cases))
    return [cases[i] for i in order]


def warmup_case(cases: list) -> Case:
    """The middle-sized case of the workload's first kind, so that its cost
    does not depend on the seed."""
    def size(case):
        p = case.params
        return (p.get("n", 0), p.get("x", 0), p.get("U", 0.0), p.get("omega", 0), case.case_id)

    group = sorted((c for c in cases if c.group == 0), key=size)
    return group[len(group) // 2]


# ---------------------------------------------------------------------------
# running


def transfer_spec(p: dict) -> PolynomialSpec:
    """The raw-convention spec of a transfer-style parameter set."""
    step = p["freq_step"]
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind=p["coeff_kind"]),
        freqs=FrequencySeq(kind="real", rule=lambda k: step * k),
        y=p["y"],
        x=p["x"],
        convention="raw",
    )


def transfer_grid(p: dict) -> GridSpec:
    return GridSpec.uniform(1.0, p["U"], int(math.ceil((p["U"] - 1.0) * p["grid_per_unit"])) + 1)


def run_case(case: Case, workers: Optional[int] = None):
    """Run one case through the public API: a ResultRecord, or the McEstimate
    of a coupled-difference case.  ``workers`` overrides the case's count."""
    if case.config is not None:
        return run_experiment(case.config if workers is None else replace(case.config, workers=workers))
    p = case.direct
    spec = transfer_spec(p)
    perp = perp_process(spec, TestSequence(kind=p["ts_kind"]))
    return mc_expected_sup_diff(spec, perp, transfer_grid(p), p["reps"], p["seed"],
                                workers=WORKERS if workers is None else workers)


def case_mix(cases: list) -> dict:
    """Exact work of one pass: cases per kind, total reps, MC-layer draws and
    lattice points, computed from the generated inputs."""
    per_kind, reps, draws, points = {}, 0, 0, 0
    for case in cases:
        per_kind[case.kind] = per_kind.get(case.kind, 0) + 1
        reps += case.reps
        p = case.params
        if case.kind in ("equicorrelated", "szego"):
            draws += case.reps * p["n"]
        elif case.kind == "block":
            draws += case.reps * p["blocks"] * p["block_size"]
        elif case.kind in ("moderate-trig", "coupled-diff"):
            draws += case.reps * 2 * (p["x"] - p["y"] + 1)
        elif case.kind == "cyclic-transfer":
            draws += 2 * case.reps * 2 * (p["x"] - p["y"] + 1)  # the process and its companion
        elif case.kind == "kronecker-search":
            points += int(math.floor(p["t_hi"] / p["h"] + 1e-12)) - max(0, int(math.ceil(p["t_lo"] / p["h"] - 1e-12))) + 1
        elif case.kind == "lattice-correlation":
            points += int(math.floor(p["scan_hi"] + 1e-12))
    return {"cases": len(cases), "cases_per_kind": dict(sorted(per_kind.items())), "total_reps": reps,
            "mc.draws": draws, "kronecker.points": points}
