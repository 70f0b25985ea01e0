"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
fixed here; nothing is calibrated at runtime except where a criterion
explicitly asks for a reported constant.
"""

import math
import time
from fractions import Fraction

import numpy as np

from supdev.bounds import bound_block, bound_equicorrelated, szego_bounds
from supdev.cyclic import TestSequence, perp_process, rational_freq, transfer_bound
from supdev.decoupling import (
    TrigPoly,
    cyclic_deviation_bound,
    decoupling_coeff_vector,
    mechanical_quadrature_check,
    riemann_gap,
)
from supdev.harness import default_config, parse_config, records_to_csv, run_experiment
from supdev.kronecker import (
    LatticeProblem,
    lattice_search,
    limsup_exponential_sum,
    divergence_partial_sums,
    solution_k,
)
from supdev.mc import CovarianceSpec, GridSpec, mc_sup_prob, mc_vector_sup_prob, sup_diff_samples
from supdev.quadrature import autocovariance
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec, SpectralDensity, power_sum


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:>2} ({name}): PASS {detail}")


def test_01_equicorrelated_dominance():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = math.inf
    for i in range(200):
        n = int(rng.integers(2, 11))
        lam = float(rng.uniform(0.05, 0.9))
        theta = float(rng.uniform(-1.0, 4.0))
        est = mc_vector_sup_prob(CovarianceSpec.equicorrelated(n, lam), theta, 100000, seed=1000 + i)
        bound = bound_equicorrelated(n, lam, theta).value
        margin = bound + 3.0 * est.half_width - est.estimate
        worst = min(worst, margin)
        assert margin >= 0.0, f"case {i}: n={n} lam={lam} theta={theta} margin={margin}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, "equicorrelated dominance", f"200/200 cases, worst margin {worst:.4f}, {elapsed:.1f}s")


def test_02_block_dominance():
    rng = np.random.default_rng(102)
    t0 = time.time()
    done = 0
    while done < 100:
        k = int(rng.choice([3, 4, 6]))
        N = int(rng.integers(1, 12 // k + 1))
        u = float(rng.uniform(1.0 / (k - 1) + 0.05, 0.92))
        lam = float(rng.uniform(0.02, 0.95 * u * (k - 1) / k))
        theta = float(rng.uniform(0.1, 4.0))
        if N * u <= lam:
            continue
        est = mc_vector_sup_prob(CovarianceSpec.block(N, k, u, lam), theta, 100000, seed=2000 + done)
        bound = bound_block(lam, u, k, N, theta).value
        assert est.estimate - 3.0 * est.half_width <= bound, (
            f"case {done}: N={N} k={k} u={u:.3f} lam={lam:.3f} theta={theta:.3f}"
        )
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(2, "block-partition dominance", f"100/100 cases, {elapsed:.1f}s")


def _random_density(rng):
    d = int(rng.integers(1, 5))
    c = rng.normal(size=d + 1)
    floor = float(rng.uniform(0.02, 0.2))
    mass = float(np.sum(c * c)) + floor

    def f(t, c=c, floor=floor, mass=mass):
        e = np.exp(1j * np.asarray(t, dtype=float))
        val = np.zeros_like(e)
        for j, cj in enumerate(c):
            val = val + cj * e**j
        return (np.abs(val) ** 2 + floor) / mass

    return SpectralDensity(f)


def test_03_szego_sandwich():
    rng = np.random.default_rng(103)
    for i in range(20):
        dens = _random_density(rng)
        n = int(rng.integers(2, 7))
        z = float(rng.uniform(0.5, 3.0))
        sz = szego_bounds(dens, n, z)
        gam = [autocovariance(dens, h) for h in range(n)]
        est = mc_vector_sup_prob(CovarianceSpec.stationary(gam), z, 60000, seed=3000 + i, absolute=True)
        assert sz.lower - 3.0 * est.half_width <= est.estimate, f"case {i}: lower breached"
        assert est.estimate <= sz.upper + 3.0 * est.half_width, f"case {i}: upper breached"
    report(3, "spectral sandwich", "20/20 densities")


def test_04_mechanical_quadrature():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        N = int(rng.integers(1, 65))
        d = int(rng.integers(0, 2 * N))
        poly = TrigPoly(
            c0=float(rng.normal()),
            cos_coeffs=tuple(rng.normal(size=d)),
            sin_coeffs=tuple(rng.normal(size=d)),
        )
        lhs, rhs = mechanical_quadrature_check(poly, N)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + poly.coeff_l1())
    for N in (1, 2, 16, 64):
        poly = TrigPoly(c0=0.0, cos_coeffs=(0.0,) * (2 * N - 1) + (1.0,))
        lhs, rhs = mechanical_quadrature_check(poly, N)
        assert abs((rhs - lhs) - 1.0) <= 1e-12, f"degree-2N violation is not exactly 1 at N={N}"
    report(4, "mechanical quadrature", "1000 exact, counterexample violates by exactly 1")


def test_05_riemann_gap_bound():
    rng = np.random.default_rng(105)
    for i in range(200):
        x = int(rng.integers(1, 31))
        coeffs = rng.uniform(0.1, 1.2, size=x)
        freqs = np.sort(rng.choice(np.arange(1, 51), size=x, replace=False))
        n = int(rng.integers(1, 1001))
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values(list(coeffs)),
            freqs=FrequencySeq.integers(list(freqs)),
            y=1,
            x=x,
            convention="2pi",
        )
        res = riemann_gap(spec, n)
        slack = min(1e-6, 10.0 * 1e-9 * n / power_sum(spec, 2) + 1e-9)
        assert res.gap <= res.gap_bound + slack, f"case {i}: gap {res.gap} vs {res.gap_bound}"
        assert res.p_value <= res.upper_bound + 1e-9, f"case {i}: p {res.p_value} vs {res.upper_bound}"
    report(5, "cyclic coefficient vs integral gap", "200/200 specs")


def test_06_cyclic_deviation_bound():
    rng = np.random.default_rng(106)
    for i in range(100):
        x = int(rng.integers(1, 7))
        coeffs = list(rng.uniform(0.3, 1.2, size=x))
        freqs = list(np.cumsum(rng.integers(1, 4, size=x)))
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values(coeffs),
            freqs=FrequencySeq.integers(freqs),
            y=1,
            x=x,
            convention="2pi",
        )
        eps = float(rng.uniform(0.15, 1.0))
        n = int(math.ceil(1.0 / eps)) + int(rng.integers(0, 60))
        theta = float(rng.uniform(0.0, 2.0))
        rep = cyclic_deviation_bound(spec, n, eps, theta)
        grid = GridSpec.lattice(step=1.0 / n, count=rep.intermediates["z"] + 1)
        est = mc_sup_prob(spec, grid, theta, 3000, seed=4000 + i)
        assert est.estimate <= rep.value + 3.0 * est.half_width, f"case {i}"
    report(6, "cycle-sampled deviation bound", "100/100 configurations")


def test_07_quantization_exact():
    rng = np.random.default_rng(107)
    for _ in range(100000):
        L = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        N = int(rng.integers(1, 1000001))
        num, den = rational_freq(L, N)
        assert den == N
        assert abs(Fraction(num, den) - Fraction(L)) <= Fraction(1, N)
    report(7, "rational quantization", "100000/100000 exact comparisons")


_TRANSFER_GRID = {4.0: 128, 16.0: 96, 64.0: 64}
_TRANSFER_X = {4.0: 200, 16.0: 100, 64.0: 50}


def _transfer_case(idx, U, H, step, signed, seed):
    x = _TRANSFER_X[U]
    if signed:
        coeffs = CoefficientSeq(kind="rule", rule=lambda k: (-1.0) ** k * k**-0.5)
    else:
        coeffs = CoefficientSeq(kind="inv_sqrt")
    spec = PolynomialSpec(
        coeffs=coeffs,
        freqs=FrequencySeq(kind="real", rule=lambda k: step * k),
        y=1,
        x=x,
        convention="raw",
    )
    ts = TestSequence(kind="pow2")
    perp = perp_process(spec, ts)
    a2 = power_sum(spec, 2)
    theta = 2.0 * H * math.sqrt(a2)
    h = H * math.sqrt(a2)
    tb = transfer_bound(spec, ts, U, theta, h, C=1.0)
    nodes = int((U - 1.0) * _TRANSFER_GRID[U]) + 1
    grid = GridSpec.uniform(1.0, U, nodes)
    est_x = mc_sup_prob(spec, grid, theta - h, 600, seed=seed)
    est_p = mc_sup_prob(perp, grid, theta, 600, seed=seed)
    cushion = 3.0 * (est_x.half_width + est_p.half_width)
    passed = est_x.estimate <= est_p.estimate + tb.error_term + cushion
    deficit = est_x.estimate - est_p.estimate - cushion
    if deficit <= 0.0 or tb.delta_report.delta == 0.0:
        c_admissible = math.inf
    elif deficit >= 2.0:
        c_admissible = 0.0
    else:
        q = h * h / (tb.delta_report.delta ** 2 * tb.log_kappa_guarded)
        c_admissible = math.log(2.0 / deficit) / q
    return passed, c_admissible


def test_08_transfer_criterion():
    cases = [
        (U, H, step, signed)
        for U in (4.0, 16.0, 64.0)
        for H in (0.7, 0.8, 0.9, 1.0, 1.25)
        for step, signed in ((0.6180339887498949, False), (0.9, True))
    ]
    assert len(cases) == 30
    c_values = []
    for i, (U, H, step, signed) in enumerate(cases):
        passed, c_adm = _transfer_case(i, U, H, step, signed, seed=5000 + i)
        assert passed, f"config {i}: U={U} H={H} step={step} signed={signed}"
        c_values.append(c_adm)
    c_star = min(c_values)
    assert c_star >= 1.0, f"calibrated constant {c_star} below 1"
    if math.isinf(c_star):
        detail = "30/30 at C=1; every C > 0 admissible (coupled estimate never exceeded companion + cushion)"
    else:
        detail = f"30/30 at C=1; admissible up to C={c_star:.3g} (denominator-form constant 1/C={1.0 / c_star:.3g})"
    report(8, "rational-frequency transfer", detail)


def test_09_coupled_difference_tail_shape():
    coeffs = CoefficientSeq(kind="rule", rule=lambda k: k**-0.5 * 0.25 ** (k - 1))
    spec = PolynomialSpec(
        coeffs=coeffs,
        freqs=FrequencySeq(kind="real", rule=lambda k: 1.3 + 0.9 * (k - 1)),
        y=1,
        x=30,
        convention="raw",
    )
    ts = TestSequence(kind="pow2")
    perp = perp_process(spec, ts)
    grid = GridSpec.uniform(1.0, 1.25, 384)
    sups = sup_diff_samples(spec, perp, grid, 10000, seed=109)
    mean = sups.mean()
    probs = [(sups > q * mean).mean() for q in (2, 3, 4)]
    assert probs[0] > probs[1] > probs[2] > 0.0, f"exceedances not decreasing: {probs}"
    logs = np.log(probs)
    assert logs[0] - 2.0 * logs[1] + logs[2] <= 0.0, f"log-exceedance not concave: {logs}"
    ems = []
    for j in (2, 4, 8, 16):
        blocks = sups[: (10000 // j) * j].reshape(-1, j)
        ems.append(float(blocks.max(axis=1).mean()))
    scale = np.sqrt(np.log([2.0, 4.0, 8.0, 16.0]))
    fitted = float(np.sum(np.asarray(ems) * scale) / np.sum(scale * scale))
    resid = max(abs(e - fitted * s) / e for e, s in zip(ems, scale))
    assert resid < 0.15, f"sqrt-log fit residual {resid:.3f} >= 15%"
    report(
        9,
        "coupled-difference tail shape",
        f"exceedances {[round(float(p), 4) for p in probs]}, fit residual {resid:.1%}, fitted K={fitted:.3f}",
    )


def test_10_lattice_search_trials():
    rng = np.random.default_rng(110)
    assert solution_k(100.0) == 3
    lam = (math.sqrt(2.0), math.sqrt(3.0))
    for i in range(100):
        betas = tuple(rng.uniform(0.0, 1.0, size=2))
        prob = LatticeProblem(lambdas=lam, betas=betas, omega=10, h=1.0, interval=(1.0, 1.0e6))
        res = lattice_search(prob)
        assert res.achieved <= 0.1, f"trial {i}: achieved {res.achieved}"
    report(10, "simultaneous approximation search", "100/100 targets hit at 1/10; k(100)=3")


def test_11_running_maximum_law():
    running, final = limsup_exponential_sum(
        [1.0, 1.0, 1.0], [math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)], 1, 1, 10**6
    )
    rungs = [float(running[m - 1]) for m in (10**4, 10**5, 10**6)]
    assert rungs[0] <= rungs[1] <= rungs[2]
    assert final >= 0.98 * 3.0, f"final {final} below 0.98 * total"
    report(11, "exponential-sum running maximum", f"rungs {[round(r, 4) for r in rungs]}")


def test_12_divergence_no_saturation():
    rng = np.random.default_rng(112)
    primes = [2, 3, 5, 7, 11, 13]
    for i in range(10):
        x = int(rng.integers(2, 7))
        coeffs = list(rng.uniform(0.3, 1.5, size=x))
        scale = float(rng.uniform(0.5, 2.0))
        lambdas = [scale * math.sqrt(p) for p in primes[:x]]
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values(coeffs, nonvanishing=True),
            freqs=FrequencySeq.reals(lambdas),
            y=1,
            x=x,
            convention="raw",
        )
        a = float(rng.uniform(0.7, 1.3))
        js = [1000, 2000, 10000, 20000, 100000, 200000]
        s = dict(zip(js, divergence_partial_sums(spec, a, js)))
        for J in (1000, 10000, 100000):
            assert s[2 * J] >= 1.1 * s[J], f"spec {i}: saturation at J={J}"
    report(12, "absolute-covariance divergence", "10/10 specs grow >= 10% per doubling")


def test_13_ou_decoupling_constant():
    gammas = np.exp(-0.5 * np.arange(200))
    p_val = decoupling_coeff_vector(CovarianceSpec.stationary(gammas)).p_value
    exact = (math.sqrt(math.e) + 1.0) / (math.sqrt(math.e) - 1.0)
    assert abs(p_val - exact) <= 1e-3
    report(13, "exponential-lag row-sum constant", f"|{p_val:.6f} - {exact:.6f}| <= 1e-3")


_DET_INI = """
[experiment]
kind = equicorrelated
seed = 31
reps = 20000

[params]
n = 7
lam = 0.35
theta = 1.9
"""


def _strip_timing(csv_text):
    rows = []
    for line in csv_text.strip().split("\n"):
        cells = line.split(",")
        del cells[12:14]  # wall_time_s, timestamp
        rows.append(",".join(cells))
    return "\n".join(rows)


def test_14_determinism_across_workers():
    from dataclasses import replace

    for cfg in (
        parse_config(_DET_INI),
        default_config("cyclic-transfer", seed=5),
        default_config("kronecker-search", seed=5),
    ):
        texts = set()
        for workers in (1, 8):
            for _ in range(2):
                rec = run_experiment(replace(cfg, workers=workers))
                texts.add(_strip_timing(records_to_csv([rec])))
        assert len(texts) == 1, f"{cfg.kind}: outputs differ across reruns/workers"
    report(14, "byte-identical reruns", "1 and 8 workers, timing columns excluded")
