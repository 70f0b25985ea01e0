import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from supdev.bounds import (
    beta_block,
    bound_block,
    bound_equicorrelated,
    bound_gumbel,
    bound_loglog,
    bound_moderate_trig,
    bound_small_lambda_threshold,
    q_form,
    szego_bounds,
)
from supdev.errors import DomainError
from supdev.mc import CovarianceSpec, mc_vector_sup_prob
from supdev.quadrature import autocovariance
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec, SpectralDensity


def ones_spec(x, y=1):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="ones"),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=y,
        x=x,
        convention="2pi",
    )


class TestEquicorrelated:
    def test_small_lambda_approaches_independent_product(self):
        rep = bound_equicorrelated(4, 1e-12, 1.3)
        assert rep.value == pytest.approx(float(ndtr(1.3)) ** 4, rel=1e-9)

    def test_frozen_example(self):
        rep = bound_equicorrelated(2, 0.5, 1.0)
        assert rep.value == pytest.approx(1.0889015141871389, rel=1e-12)
        assert rep.vacuous  # > 1: valid but uninformative

    def test_dominates_exact_bivariate_probability(self):
        # conditioning oracle: P = E_Z Phi((theta - sqrt(lam) Z)/sqrt(1-lam))^n
        lam, theta, n = 0.5, 1.0, 2
        z, w = np.polynomial.hermite_e.hermegauss(160)
        exact = float(
            np.sum(w * ndtr((theta - math.sqrt(lam) * z) / math.sqrt(1 - lam)) ** n)
            / math.sqrt(2 * math.pi)
        )
        assert exact == pytest.approx(0.7452035868467497, rel=1e-9)
        assert bound_equicorrelated(n, lam, theta).value >= exact

    def test_large_threshold_tends_to_multiplier(self):
        rep = bound_equicorrelated(3, 0.4, 50.0)
        assert rep.value == pytest.approx(rep.intermediates["multiplier"], rel=1e-12)

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            bound_equicorrelated(3, 1.1, 1.0)
        with pytest.raises(DomainError):
            bound_equicorrelated(3, 0.0, 1.0)

    def test_mc_dominance_sweep(self, rng):
        # randomized dominance: the bound clears the estimate minus 3 half-widths
        for _ in range(60):
            n = int(rng.integers(2, 11))
            lam = float(rng.uniform(0.05, 0.9))
            theta = float(rng.uniform(-1.0, 4.0))
            est = mc_vector_sup_prob(
                CovarianceSpec.equicorrelated(n, lam), theta, 2000, seed=int(rng.integers(1 << 30))
            )
            assert est.estimate - 3.0 * est.half_width <= bound_equicorrelated(n, lam, theta).value


class TestGumbel:
    def test_b10_frozen(self):
        rep = bound_gumbel(10, 0.3, 0.5, 0.1)
        assert rep.intermediates["b_n"] == pytest.approx(1.1136038316074729, rel=1e-12)

    def test_large_argument_value_tends_to_multiplier(self):
        rep = bound_gumbel(50, 0.3, 40.0, 0.1)
        assert rep.value == pytest.approx(rep.intermediates["multiplier"], rel=1e-10)

    def test_eps_one_kills_exponential(self):
        rep = bound_gumbel(12, 0.2, 0.7, 1.0)
        assert rep.value == pytest.approx(rep.intermediates["multiplier"], rel=1e-15)

    def test_small_n_rejected(self):
        for n in (2, 3, 4):
            with pytest.raises(DomainError):
                bound_gumbel(n, 0.3, 0.0, 0.1)

    def test_x_below_minus_bn_squared_rejected(self):
        with pytest.raises(DomainError):
            bound_gumbel(10, 0.3, -5.0, 0.1)


class TestSmallLambda:
    def test_frozen_threshold_n100(self):
        res = bound_small_lambda_threshold(100, 1e-12)
        assert res.threshold == pytest.approx(2.4811249707260577, rel=1e-9)

    def test_e_to_e_identity(self):
        n = int(round(math.e**math.e))  # 15
        res = bound_small_lambda_threshold(n, 0.5)
        direct = math.sqrt(2 * math.log(n) - 2 * math.log(math.log(n)) - 0.5 * math.log(n) / n)
        assert res.threshold == pytest.approx(direct, rel=1e-15)

    def test_lambda_cap(self):
        assert bound_small_lambda_threshold(100, 0.5).lam_max == pytest.approx(0.0025)

    def test_decay_scale(self):
        assert bound_small_lambda_threshold(50, 0.2).decay_scale == pytest.approx(math.sqrt(math.log(50)))

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bound_small_lambda_threshold(2, 0.5)


class TestBetaBlock:
    def test_frozen_example(self):
        assert beta_block(0.1, 0.5, 4, 3) == pytest.approx(0.3979125896934116, rel=1e-12)

    def test_lambda_equals_u_substitution(self):
        u, k, N = 0.3, 5, 2
        expect = (1.0 / (1 - u)) * ((1 - u + N * k * u - k * u) / (1 - u + 2 * N * k * u - k * u))
        assert beta_block(u, u, k, N) == pytest.approx(expect, rel=1e-12)

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(2, 8),
        st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_in_unit_interval(self, lam, u, k, N):
        # the unit-interval guarantee needs k(u - lam) >= u on top of the
        # stated admissibility (lam = u with u near 1 pushes beta above 1)
        if not (lam <= u and N * u > lam and (k - 1) * u > 1.0 and k * (u - lam) >= u):
            return
        assert 0.0 < beta_block(lam, u, k, N) < 1.0

    def test_escape_above_one_is_loud(self):
        with pytest.raises(DomainError, match="escaped"):
            beta_block(0.6, 0.6, 3, 4)

    def test_named_precondition_errors(self):
        with pytest.raises(DomainError, match="lam"):
            beta_block(0.6, 0.5, 4, 3)
        with pytest.raises(DomainError, match=r"\(k-1\)\*u"):
            beta_block(0.1, 0.5, 2, 3)


class TestQForm:
    def test_zero_vector(self):
        assert q_form(0.1, 0.5, 2, 2, np.zeros(4)) == 0.0

    def test_lambda_zero_drops_global_term(self):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        val = q_form(0.0, 0.5, 2, 2, x)
        blocks = x.reshape(2, 2).sum(axis=1)
        expect = -0.5 / (0.5 * (0.5 + 2 * 0.5)) * np.sum(blocks**2) + 2.0 * np.sum(x**2)
        assert val == pytest.approx(float(expect), rel=1e-12)

    def test_matches_assembled_matrix(self, rng):
        lam, u, k, N = 0.1, 0.5, 2, 2
        n = N * k
        c_global = -lam / ((1 - u + k * (u - lam)) * ((1 - u) + N * k * u + (N - 1) * k * lam))
        c_block = -(u - lam) / ((1 - u) * (1 - u + k * (u - lam)))
        ones_block = np.kron(np.eye(N), np.ones((k, k)))
        m = c_global * np.ones((n, n)) + c_block * ones_block + np.eye(n) / (1 - u)
        for _ in range(25):
            x = rng.normal(size=n)
            assert q_form(lam, u, k, N, x) == pytest.approx(float(x @ m @ x), rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            q_form(0.1, 0.5, 2, 2, np.zeros(5))


class TestBoundBlock:
    def test_factorized_form(self):
        rep = bound_block(0.1, 0.5, 4, 3, 2.0)
        beta = rep.intermediates["beta"]
        norm = rep.intermediates["normalizer"]
        expect = float(ndtr(2.0 * math.sqrt(beta))) ** 12 / (beta**6 * norm)
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_large_threshold_limit(self):
        rep = bound_block(0.1, 0.5, 4, 3, 60.0)
        beta, norm = rep.intermediates["beta"], rep.intermediates["normalizer"]
        assert rep.value == pytest.approx(beta**-6 / norm, rel=1e-10)

    def test_mc_dominance_sweep(self, rng):
        for _ in range(25):
            k = int(rng.integers(3, 5))
            N = int(rng.integers(1, 12 // k + 1))
            u = float(rng.uniform(1.05 / (k - 1), 0.9))
            lam = float(rng.uniform(0.02, min(u, 0.5)))
            if N * u <= lam:
                continue
            theta = float(rng.uniform(0.0, 3.0))
            rep = bound_block(lam, u, k, N, theta)
            est = mc_vector_sup_prob(
                CovarianceSpec.block(N, k, u, lam), theta, 2000, seed=int(rng.integers(1 << 30))
            )
            assert est.estimate - 3.0 * est.half_width <= rep.value


def log_equicorrelated(n, lam, theta):
    """log of the equicorrelated product bound, summed term by term."""
    phi = float(ndtr(theta / math.sqrt(1.0 + lam * (n - 1))))
    return (n - 1) / 2.0 * math.log(1.0 + lam * n / (1.0 - lam)) + n * math.log(phi)


class TestProductBoundsBeyondFloat:
    """The product bounds keep their displayed float expression wherever it
    is positive and finite, and are evaluated in logs where a factor
    overflows, underflows or divides by zero; a bound past the float range
    reads inf (vacuous)."""

    def test_displayed_expressions_kept_bit_for_bit(self):
        for n, lam, theta in itertools.product([2, 5, 8, 32, 150], [0.05, 0.3, 0.8], [-1.0, 0.5, 2.0, 3.0]):
            multiplier = (1.0 + lam * n / (1.0 - lam)) ** ((n - 1) / 2.0)
            expect = multiplier * float(ndtr(theta / math.sqrt(1.0 + lam * (n - 1)))) ** n
            assert bound_equicorrelated(n, lam, theta).value.hex() == expect.hex()
        for N, k, u, lam, theta in [(3, 4, 0.5, 0.1, 2.0), (6, 4, 0.6, 0.2, 0.5), (2, 6, 0.4, 0.1, 1.0)]:
            beta, nk = beta_block(lam, u, k, N), N * k
            norm = math.sqrt((1.0 - u) ** ((k - 1) * N) * (1.0 + u * (k - 1)) ** N)
            expect = float(ndtr(theta * math.sqrt(beta))) ** nk / (beta ** (nk / 2.0) * norm)
            assert bound_block(lam, u, k, N, theta).value.hex() == expect.hex()

    def test_equicorrelated_multiplier_overflow(self):
        with pytest.raises(OverflowError):
            (1.0 + 0.3 * 300 / 0.7) ** (299 / 2.0)
        rep = bound_equicorrelated(300, 0.3, 2.0)
        assert rep.intermediates["multiplier"] == math.inf
        assert rep.value == pytest.approx(math.exp(log_equicorrelated(300, 0.3, 2.0)), rel=1e-12)
        assert math.isfinite(rep.value) and rep.vacuous

    def test_equicorrelated_past_the_float_range_is_inf(self):
        rep = bound_equicorrelated(3000, 0.9, -30.0)
        assert log_equicorrelated(3000, 0.9, -30.0) > 710.0
        assert rep.value == math.inf and rep.vacuous

    def test_gumbel_multiplier_overflow_with_vanishing_tail(self):
        n, lam, x_arg, eps = 1000, 0.5, -8.0, 0.0
        rep = bound_gumbel(n, lam, x_arg, eps)
        expect = (n - 1) / 2.0 * math.log(1.0 + lam * n / (1.0 - lam)) - math.exp(-x_arg) * (1.0 - eps)
        assert rep.intermediates["multiplier"] == math.inf
        assert rep.value == pytest.approx(math.exp(expect), rel=1e-12)

    def test_block_underflowing_factors(self):
        # beta^(nk/2) and (1-u)^((k-1)N) underflow: the displayed form divides by zero
        lam, u, k, N = 0.1, 0.5, 4, 400
        beta, nk = beta_block(lam, u, k, N), N * k
        with pytest.raises(ZeroDivisionError):
            float(ndtr(0.0)) ** nk / (beta ** (nk / 2.0) * math.sqrt((1.0 - u) ** ((k - 1) * N) * 2.5**N))
        log_norm = 0.5 * ((k - 1) * N * math.log(1.0 - u) + N * math.log(1.0 + u * (k - 1)))
        rep = bound_block(lam, u, k, N, 0.0)
        assert rep.intermediates["normalizer"] == pytest.approx(math.exp(log_norm), rel=1e-12)
        expect = nk * math.log(0.5) - nk / 2.0 * math.log(beta) - log_norm
        assert 0.0 < rep.value == pytest.approx(math.exp(expect), rel=1e-12)
        assert bound_block(lam, u, k, N, 2.0).value == math.inf


class TestSzego:
    def test_unit_density_bounds_coincide(self):
        sz = szego_bounds(SpectralDensity(lambda t: np.ones_like(t)), 4, 1.2)
        assert sz.lower == pytest.approx(sz.upper, rel=1e-10)
        assert sz.lower == pytest.approx((2 * float(ndtr(1.2)) - 1) ** 4, rel=1e-12)

    def test_exp_cos_frozen(self):
        sz = szego_bounds(SpectralDensity(lambda t: np.exp(np.cos(t))), 5, 1.0)
        assert sz.g_value == pytest.approx(1.0, rel=1e-9)
        assert sz.lower == pytest.approx(0.14829144308886252, rel=1e-9)
        assert sz.upper == pytest.approx(sz.lower, rel=1e-8)

    def test_zero_geometric_mean_gives_vacuous_upper(self):
        sz = szego_bounds(SpectralDensity(lambda t: np.zeros_like(t)), 3, 1.0)
        assert sz.upper == 1.0 and sz.vacuous_upper

    def test_large_z_both_tend_to_one(self):
        sz = szego_bounds(SpectralDensity(lambda t: np.exp(np.cos(t))), 3, 30.0)
        assert sz.lower == pytest.approx(1.0, abs=1e-12)
        assert sz.upper == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_against_mc(self, rng):
        # unit-variance density (the displayed sandwich standardizes the
        # sequence; gamma(0) = 1 also keeps G <= 1 so upper >= lower)
        c = (1.0, 0.5, -0.4)
        mass = sum(v * v for v in c) + 0.05

        def f(t):
            e = np.exp(1j * t)
            val = np.zeros_like(e)
            for j, cj in enumerate(c):
                val = val + cj * e**j
            return (np.abs(val) ** 2 + 0.05) / mass

        dens = SpectralDensity(f)
        n, z = 4, 1.4
        sz = szego_bounds(dens, n, z)
        assert sz.g_value <= 1.0 + 1e-12
        gam = [autocovariance(dens, h) for h in range(n)]
        assert gam[0] == pytest.approx(1.0, rel=1e-10)
        cov = CovarianceSpec.stationary(gam)
        est = mc_vector_sup_prob(cov, z, 60000, seed=77, absolute=True)
        assert sz.lower - 3.0 * est.half_width <= est.estimate <= sz.upper + 3.0 * est.half_width


def harmonic_spec(x, y=1):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="inv_sqrt"),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=y,
        x=x,
        convention="2pi",
    )


class TestModerateTrig:
    def test_frozen_example(self):
        # a_k = k^{-1/2}, x = 1e4 (constant coefficients fail the
        # fourth-moment precondition at eta = 1/2, see the condition tests)
        rep = bound_moderate_trig(harmonic_spec(10**4), eta=0.5, eps=1.0, C=1.0)
        assert rep.threshold == pytest.approx(4.725110950149393, rel=1e-12)
        assert rep.intermediates["exponent"] == pytest.approx(1.9389787179003245, rel=1e-12)
        assert rep.value == pytest.approx(0.14385078701762310, rel=1e-10)

    def test_eps_to_zero_vacuous(self):
        rep = bound_moderate_trig(harmonic_spec(100), eta=0.4, eps=1e-12, C=1.0)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_log_value_linear_in_C(self):
        r1 = bound_moderate_trig(harmonic_spec(100), eta=0.4, eps=1.0, C=1.0)
        r2 = bound_moderate_trig(harmonic_spec(100), eta=0.4, eps=1.0, C=2.0)
        assert math.log(r2.value) == pytest.approx(2.0 * math.log(r1.value), rel=1e-12)

    def test_eta_one_branch(self):
        spec = ones_spec(100)
        rep = bound_moderate_trig(spec, eta=1.0, eps=1.0, C=1.0, V=50.0)
        assert rep.threshold == pytest.approx(math.sqrt(2 * 100 * math.log(2.0)), rel=1e-12)
        expect = math.exp(-50.0 / math.sqrt(11.0 * math.log(2.0)))
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_eta_one_requires_V(self):
        with pytest.raises(DomainError):
            bound_moderate_trig(ones_spec(100), eta=1.0, eps=1.0)

    def test_condition_failure_named(self):
        with pytest.raises(DomainError, match="fourth-moment"):
            bound_moderate_trig(ones_spec(100), eta=0.9, eps=1.0)


class TestLogLog:
    def test_tower_identity(self):
        x = math.exp(math.exp(math.e))
        rep = bound_loglog(x, eta=0.5, B=1.0)
        assert rep.intermediates["loglog_x"] == pytest.approx(math.e, rel=1e-12)
        assert rep.intermediates["logloglog_x"] == pytest.approx(1.0, rel=1e-9)

    def test_frozen_1e100(self):
        rep = bound_loglog(1e100, eta=0.5, B=1.0)
        assert rep.intermediates["loglog_x"] == pytest.approx(5.439202631236047, rel=1e-12)
        assert rep.value == pytest.approx(0.5306795660686781, rel=1e-10)

    def test_decreasing_in_x(self):
        vals = [bound_loglog(x, 0.5, 1.0).value for x in (1e10, 1e50, 1e200)]
        assert vals[0] > vals[1] > vals[2]

    def test_too_small_x(self):
        with pytest.raises(DomainError):
            bound_loglog(10.0, 0.5, 1.0)


class TestFreeConstant:
    @pytest.mark.parametrize("C", [0.0, -1e-300, -1.0, -1e300])
    def test_nonpositive_rejected(self, C):
        with pytest.raises(DomainError, match="free constant C=.* must be positive"):
            bound_moderate_trig(harmonic_spec(100), eta=0.4, eps=1.0, C=C)
        with pytest.raises(DomainError, match="free constant C=.* must be positive"):
            bound_loglog(1e100, eta=0.5, B=1.0, C=C)


class TestReportInvariants:
    def test_values_positive_and_vacuous_flagged(self):
        reps = [
            bound_equicorrelated(5, 0.4, 2.0),
            bound_block(0.1, 0.5, 4, 2, 1.5),
            bound_moderate_trig(harmonic_spec(50), 0.4, 1.0),
            bound_loglog(1e30, 0.3, 2.0),
        ]
        for rep in reps:
            assert rep.value > 0.0
            assert rep.vacuous == (rep.value > 1.0)
