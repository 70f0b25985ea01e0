import math

import numpy as np
import pytest

from supdev.decoupling import (
    TrigPoly,
    cyclic_deviation_bound,
    decoupling_coeff_cyclic,
    decoupling_coeff_vector,
    decoupling_multiplier,
    mechanical_quadrature_check,
    riemann_gap,
    verify_decoupling_mc,
    verify_gebelein_nelson,
    _in_box,
)
from supdev import decoupling, mc
from supdev.errors import BudgetError, DomainError
from supdev.mc import CHUNK_REPS, CovarianceSpec, GridSpec, mc_sup_prob, normal_draws, _chunk_bounds
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec, power_sum


def int_spec(coeffs, freqs, y=1):
    return PolynomialSpec(
        coeffs=CoefficientSeq.from_values(coeffs),
        freqs=FrequencySeq.integers(freqs),
        y=y,
        x=y + len(coeffs) - 1,
        convention="2pi",
    )


class TestVectorCoefficient:
    def test_identity_is_one(self):
        assert decoupling_coeff_vector(CovarianceSpec.equicorrelated(6, 1e-15)).p_value == pytest.approx(1.0)

    def test_equicorrelated_closed_form(self):
        for n, lam in ((3, 0.2), (8, 0.45)):
            rep = decoupling_coeff_vector(CovarianceSpec.equicorrelated(n, lam))
            assert rep.p_value == pytest.approx(1 + (n - 1) * lam, rel=1e-12)

    def test_ou_lags_reach_closed_form(self):
        gammas = np.exp(-0.5 * np.arange(200))
        rep = decoupling_coeff_vector(CovarianceSpec.stationary(gammas))
        exact = (math.sqrt(math.e) + 1) / (math.sqrt(math.e) - 1)
        assert abs(rep.p_value - exact) < 1e-3

    def test_degenerate_component_rejected(self):
        with pytest.raises(DomainError):
            decoupling_coeff_vector(CovarianceSpec.explicit([[1.0, 0.0], [0.0, 0.0]]))

    def test_at_least_one_and_at_most_n(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            corr = rng.uniform(-0.9, 0.9, size=(n, n))
            m = (corr + corr.T) / 2
            np.fill_diagonal(m, 1.0)
            rep = decoupling_coeff_vector(CovarianceSpec.explicit(m))
            assert 1.0 - 1e-12 <= rep.p_value <= n + 1e-12

    def test_stationary_sandwich(self, rng):
        # sum |gamma(h)|/gamma(0) <= p(X) <= twice that
        for _ in range(20):
            n = int(rng.integers(2, 30))
            gam = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, size=n - 1) / np.arange(2, n + 1)])
            try:
                cov = CovarianceSpec.stationary(gam)
                cov.factor()
            except Exception:
                continue
            rep = decoupling_coeff_vector(cov)
            one_sided = float(np.sum(np.abs(gam)))
            assert one_sided - 1e-10 <= rep.p_value <= 2.0 * one_sided + 1e-10


class TestCyclicCoefficient:
    def test_single_term_four_cycle(self):
        rep = decoupling_coeff_cyclic(int_spec([1.0], [1]), 4)
        assert rep.p_value == pytest.approx(2.0, abs=1e-12)

    def test_modulus_one_is_one(self):
        rep = decoupling_coeff_cyclic(int_spec([1.0, 0.5], [1, 2]), 1)
        assert rep.p_value == pytest.approx(1.0)

    def test_matches_independent_enumeration(self, rng):
        # brute-force reimplementation, term by term
        for _ in range(10):
            x = int(rng.integers(1, 7))
            coeffs = rng.uniform(0.2, 1.5, size=x)
            n = int(rng.integers(1, 40))
            rep = decoupling_coeff_cyclic(int_spec(list(coeffs), list(range(1, x + 1))), n)
            acc = 0.0
            for j in range(n):
                inner = sum(coeffs[k] ** 2 * math.cos(2 * math.pi * (k + 1) * j / n) for k in range(x))
                acc += abs(inner)
            assert rep.p_value == pytest.approx(acc / float(np.sum(coeffs**2)), rel=1e-12)

    def test_budget_boundary(self, monkeypatch):
        # the n x terms cosine matrix is refused before it is built, also
        # when riemann_gap or cyclic_deviation_bound passes n through
        monkeypatch.setattr(mc, "GRID_BUDGET", 8)
        spec = int_spec([1.0, 0.5], [1, 2])
        assert decoupling_coeff_cyclic(spec, 4).terms.size == 4
        with pytest.raises(BudgetError, match=r"cosine matrix 5 x 2 exceeds 8 entries"):
            decoupling_coeff_cyclic(spec, 5)
        with pytest.raises(BudgetError, match="cosine matrix 5 x 2"):
            riemann_gap(spec, 5)
        with pytest.raises(BudgetError, match="cosine matrix 5 x 2"):
            cyclic_deviation_bound(spec, 5, 1.0, 1.0)


def assert_riemann_bounds(res, spec, n, tol=1e-9):
    """Both comparisons ``riemann_gap`` returns: the gap may exceed its
    bound by the quadrature's share, at most 10 tol n / A + 1e-9 and
    never more than 1e-6."""
    assert res.gap <= res.gap_bound + min(1e-6, 10.0 * tol * n / power_sum(spec, 2) + 1e-9)
    assert res.p_value <= res.upper_bound + 1e-9


class TestRiemannGap:
    def test_single_term_exact_integral(self):
        spec = int_spec([1.0], [1])
        res = riemann_gap(spec, n=16)
        assert res.integral_term == pytest.approx(16 * 2.0 / math.pi, rel=1e-8)
        assert_riemann_bounds(res, spec, 16)

    def test_gap_bound_random_sweep(self, rng):
        for _ in range(30):
            x = int(rng.integers(1, 8))
            coeffs = rng.uniform(0.1, 1.0, size=x)
            freqs = np.cumsum(rng.integers(1, 6, size=x))
            n = int(rng.integers(1, 200))
            spec = int_spec(list(coeffs), list(freqs))
            assert_riemann_bounds(riemann_gap(spec, n), spec, n)

    def test_normalized_gap_shrinks(self):
        spec = int_spec([1.0, 0.7], [1, 3])
        res_small = riemann_gap(spec, 8)
        res_big = riemann_gap(spec, 4096)
        assert_riemann_bounds(res_small, spec, 8)
        assert_riemann_bounds(res_big, spec, 4096)
        assert abs(res_big.p_value - res_big.integral_term) / 4096 < abs(
            res_small.p_value - res_small.integral_term
        ) / 8 + 1e-9


class TestMechanicalQuadrature:
    def test_cosine_at_minimal_rule(self):
        lhs, rhs = mechanical_quadrature_check(TrigPoly(c0=0.0, cos_coeffs=(1.0,)), N=1)
        assert lhs == 0.0 and rhs == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        lhs, rhs = mechanical_quadrature_check(TrigPoly(c0=1.0), N=4)
        assert lhs == rhs == 1.0

    def test_random_polys_exact(self, rng):
        for _ in range(40):
            N = int(rng.integers(1, 65))
            d = int(rng.integers(1, 2 * N))  # degree <= 2N - 1
            poly = TrigPoly(
                c0=float(rng.normal()),
                cos_coeffs=tuple(rng.normal(size=d)),
                sin_coeffs=tuple(rng.normal(size=d)),
            )
            lhs, rhs = mechanical_quadrature_check(poly, N)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + poly.coeff_l1())

    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    def test_degree_2N_counterexample(self, N):
        poly = TrigPoly(c0=0.0, cos_coeffs=(0.0,) * (2 * N - 1) + (1.0,))
        lhs, rhs = mechanical_quadrature_check(poly, N)
        assert lhs == 0.0
        assert rhs == pytest.approx(1.0, abs=1e-12)


class TestMultiplier:
    def test_identity_frozen(self):
        mult = decoupling_multiplier(CovarianceSpec.explicit([[1.0]]), p=2.0, beta=2.0)
        assert mult == pytest.approx(2.0**0.25, rel=1e-12)

    def test_at_least_one_for_unit_diagonal(self, rng):
        # Hadamard: det <= prod of diagonal = 1, so the multiplier >= 1
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n)) / math.sqrt(n)
            m = a @ a.T + 0.3 * np.eye(n)
            d = np.sqrt(np.diag(m))
            m = m / np.outer(d, d)
            cov = CovarianceSpec.explicit(m)
            assert float(np.linalg.det(m)) <= 1.0 + 1e-9
            p_min = 2.0 * decoupling_coeff_vector(cov).p_value
            assert decoupling_multiplier(cov, p=p_min, beta=2.0) >= 1.0 - 1e-12

    def test_p_to_infinity_limit(self):
        cov = CovarianceSpec.equicorrelated(4, 0.3)
        mult = decoupling_multiplier(cov, p=1e9, beta=2.0)
        assert mult == pytest.approx((1 - 0.5) ** (-2.0), rel=1e-6)

    def test_too_small_p_reports_minimum(self):
        cov = CovarianceSpec.equicorrelated(4, 0.3)
        with pytest.raises(DomainError, match="minimum"):
            decoupling_multiplier(cov, p=1.0, beta=2.0)


class TestVerifyDecouplingMc:
    def test_full_space_boxes(self):
        cov = CovarianceSpec.equicorrelated(3, 0.2)
        p = 2.0 * decoupling_coeff_vector(cov).p_value
        chk = verify_decoupling_mc(cov, p, 2.0, [(-math.inf, math.inf)] * 3, 20000, seed=3)
        assert chk.lhs.estimate == 1.0
        assert chk.lhs.estimate <= chk.rhs + 3.0 * chk.lhs.half_width
        assert chk.rhs == pytest.approx(chk.multiplier, rel=1e-12)
        assert chk.multiplier >= 1.0

    def test_independent_product(self):
        cov = CovarianceSpec.equicorrelated(3, 1e-12)
        p = 2.0 * decoupling_coeff_vector(cov).p_value
        chk = verify_decoupling_mc(cov, p, 2.0, [(0.0, math.inf)] * 3, 40000, seed=5)
        assert abs(chk.lhs.estimate - 0.125) <= 3.0 * chk.lhs.half_width
        assert chk.lhs.estimate <= chk.rhs + 3.0 * chk.lhs.half_width

    def test_positive_orthant_correlated(self):
        cov = CovarianceSpec.equicorrelated(3, 0.2)
        p = 2.0 * decoupling_coeff_vector(cov).p_value
        chk = verify_decoupling_mc(cov, p, 2.0, [(0.0, math.inf)] * 3, 40000, seed=6)
        assert chk.lhs.estimate <= chk.rhs + 3.0 * chk.lhs.half_width

    def test_box_test_matches_all_over_rows(self, rng):
        los = np.array([-1.0, -math.inf, 0.0, 0.5, -math.inf, 2.0])
        his = np.array([1.0, 0.5, math.inf, 0.5, math.inf, 1.0])  # a point box and an empty box
        values = np.array([-math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf])
        x = rng.choice(values, size=(5000, 6))
        for n in range(1, 7):
            sub = x[:, :n]
            ref = np.all((sub >= los[:n]) & (sub <= his[:n]), axis=1)
            assert np.array_equal(_in_box(sub, list(los[:n]), list(his[:n])), ref), n
            assert ref.any() == (n < 6)

    def test_worker_count_identical(self):
        cov = CovarianceSpec.equicorrelated(4, 0.3)
        p = 2.0 * decoupling_coeff_vector(cov).p_value
        boxes = [(0.0, math.inf), (-math.inf, 1.0), (-0.5, 2.0), (-1.0, 1.0)]
        reps = 3 * CHUNK_REPS + 500  # 4 chunks
        ref = verify_decoupling_mc(cov, p, 2.0, boxes, reps, seed=9, workers=1)
        for workers in (2, 3, 2):
            assert verify_decoupling_mc(cov, p, 2.0, boxes, reps, seed=9, workers=workers) == ref

    def test_desk_scale_cap(self):
        cov = CovarianceSpec.equicorrelated(7, 0.1)
        with pytest.raises(DomainError):
            verify_decoupling_mc(cov, 10.0, 2.0, [(0, 1)] * 7, 100, seed=1)


class TestUncheckedViolations:
    """A violated inequality comes back as numbers, for the caller to judge."""

    def test_decoupling_mc(self, monkeypatch):
        cov = CovarianceSpec.equicorrelated(3, 0.2)
        p = 2.0 * decoupling_coeff_vector(cov).p_value
        boxes = [(0.0, math.inf)] * 3
        monkeypatch.setattr(decoupling, "decoupling_multiplier", lambda *args: 1e-3)
        chk = verify_decoupling_mc(cov, p, 2.0, boxes, 20000, seed=6)
        assert chk.lhs.estimate > chk.rhs + 3.0 * chk.lhs.half_width

    def test_gebelein_nelson(self, monkeypatch):
        monkeypatch.setattr(decoupling, "_hermite_abs_moment", lambda *args: 1e-6)
        res = verify_gebelein_nelson(0.5, "quadratic", 20000, seed=7)
        assert abs(res.lhs.estimate) > res.nelson_rhs + 3.0 * res.lhs.half_width


def assert_both_bounds_hold(res):
    """|estimate| <= rhs + 3 half-widths for the Gebelein and the Nelson side."""
    for rhs in (res.gebelein_rhs, res.nelson_rhs):
        assert abs(res.lhs.estimate) <= rhs + 3.0 * res.lhs.half_width, rhs


class TestGebeleinNelson:
    def test_independent_pair(self):
        res = verify_gebelein_nelson(0.0, "quadratic", 40000, seed=2)
        assert abs(res.lhs.estimate) <= 3.0 * res.lhs.half_width
        assert res.gebelein_rhs == 0.0
        assert_both_bounds_hold(res)

    def test_identity_equality_case(self):
        res = verify_gebelein_nelson(0.7, "identity", 60000, seed=4)
        assert res.gebelein_rhs == pytest.approx(0.7)
        assert abs(res.lhs.estimate - 0.7) <= 3.0 * res.lhs.half_width
        assert_both_bounds_hold(res)

    def test_quadratic_wick_value(self):
        # E (U^2-1)(V^2-1) = 2 rho^2 and the L2 bound is rho * 2
        res = verify_gebelein_nelson(0.5, "quadratic", 120000, seed=7)
        assert abs(res.lhs.estimate - 0.5) <= 3.0 * res.lhs.half_width
        assert res.gebelein_rhs == pytest.approx(1.0)
        assert res.p == pytest.approx(1.5)
        assert abs(res.lhs.estimate) <= res.nelson_rhs
        assert_both_bounds_hold(res)

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            verify_gebelein_nelson(1.5, "identity", 100, seed=1)

    @pytest.mark.parametrize("f_kind", ["identity", "quadratic"])
    def test_worker_count_identical(self, f_kind):
        reps = 40000  # 5 chunks
        assert len(_chunk_bounds(reps, 2)) == 5
        ref = verify_gebelein_nelson(-0.6, f_kind, reps, seed=12, workers=1)
        for workers in (2, 3, 2):
            assert verify_gebelein_nelson(-0.6, f_kind, reps, seed=12, workers=workers) == ref

    def test_identity_projection_returns_draws_exactly(self):
        z = normal_draws(seed=12, rep_start=0, n_reps=CHUNK_REPS, draws_per_rep=2)
        assert np.all(z != 0.0)
        assert np.array_equal((z @ np.eye(2)).view(np.uint64), z.view(np.uint64))


class TestCyclicDeviationBound:
    def test_single_term_frozen(self):
        rep = cyclic_deviation_bound(int_spec([1.0], [1]), n=4, eps=1.0, theta=0.0)
        assert rep.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert rep.intermediates["p_n"] == pytest.approx(2.0)
        assert rep.intermediates["z"] == 4

    def test_huge_threshold_vacuous(self):
        rep = cyclic_deviation_bound(int_spec([1.0, 1.0], [1, 2]), n=40, eps=1.0, theta=60.0)
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_mills_floor_is_valid(self):
        rep = cyclic_deviation_bound(int_spec([1.0, 1.0], [1, 2]), n=40, eps=0.5, theta=1.5)
        assert rep.intermediates["tail_prob"] >= rep.intermediates["mills_floor"]

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            cyclic_deviation_bound(int_spec([1.0], [1]), n=1, eps=0.25, theta=1.0)

    def test_mc_dominated_by_bound(self, rng):
        # the grid-supremum probability never beats the exponential bound
        for _ in range(15):
            x = int(rng.integers(1, 6))
            coeffs = list(rng.uniform(0.3, 1.2, size=x))
            freqs = list(np.cumsum(rng.integers(1, 4, size=x)))
            spec = int_spec(coeffs, freqs)
            eps = float(rng.uniform(0.2, 1.0))
            n = int(math.ceil(max(1.0 / eps, float(rng.integers(4, 60)))))
            theta = float(rng.uniform(0.0, 2.0))
            rep = cyclic_deviation_bound(spec, n, eps, theta)
            z = rep.intermediates["z"]
            grid = GridSpec.lattice(step=1.0 / n, count=z + 1)
            est = mc_sup_prob(spec, grid, theta, 2000, seed=int(rng.integers(1 << 30)))
            assert est.estimate <= rep.value + 3.0 * est.half_width
