import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdev import spectrum
from supdev.errors import BudgetError, DomainError, QuadratureError
from supdev.spectrum import (
    CoefficientSeq,
    FrequencySeq,
    PolynomialSpec,
    TrigDensity,
    check_moderate_condition,
    node_floor,
    power_sum,
    primes_up_to,
    spectral_geometric_mean,
    variance,
)


def make_spec(kind, y, x, coeffs=None):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind=kind) if coeffs is None else CoefficientSeq.from_values(coeffs),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=y,
        x=x,
        convention="2pi",
    )


class TestPowerSum:
    def test_constant_sequence(self):
        assert power_sum(make_spec("ones", 1, 5), 2) == 5.0

    def test_empty_range_is_zero(self):
        assert power_sum(make_spec("ones", 6, 5), 2) == 0.0

    def test_inv_sqrt_exact(self):
        # 1 + 1/2 + 1/3 + 1/4 = 25/12
        assert power_sum(make_spec("inv_sqrt", 1, 4), 2) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_fourth_power(self):
        assert power_sum(make_spec("inv_sqrt", 1, 3), 4) == pytest.approx(1 + 0.25 + 1.0 / 9.0, rel=1e-15)

    def test_rejects_odd_power(self):
        with pytest.raises(DomainError):
            power_sum(make_spec("ones", 1, 3), 3)

    @given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_splits(self, y, len1, len2):
        m = y + len1
        x = m + len2
        spec = make_spec("inv_sqrt", y, x)
        left = power_sum(make_spec("inv_sqrt", y, m), 2)
        right = power_sum(make_spec("inv_sqrt", m + 1, x), 2)
        assert power_sum(spec, 2) == pytest.approx(left + right, rel=1e-14, abs=1e-14)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_cauchy_schwarz_fourth_vs_second(self, values):
        spec = make_spec("explicit", 1, len(values), coeffs=values)
        assert math.sqrt(power_sum(spec, 4)) <= power_sum(spec, 2) + 1e-12


class TestVariance:
    """A = sum a_k^2 is returned as power_sum gives it; A = 0 raises with
    its cause, worked out from the data."""

    def test_positive_is_the_power_sum(self):
        spec = make_spec("inv_sqrt", 3, 40)
        assert variance(spec) == power_sum(spec, 2)

    @pytest.mark.parametrize(
        "spec, cause",
        [
            (make_spec("ones", 6, 5), "over [6, 5] is 0: the range is empty"),
            (make_spec("prime_inv_sqrt", 8, 10), "over [8, 10] is 0: every coefficient on it vanishes"),
            (
                make_spec("explicit", 1, 3, coeffs=[1e-200, 0.0, -1e-170]),
                "over [1, 3] is 0: the coefficients are nonzero, so their squares underflow",
            ),
        ],
        ids=["empty", "vanishing", "underflow"],
    )
    def test_zero_names_its_cause(self, spec, cause):
        with pytest.raises(DomainError, match=re.escape(f"A(x) = sum of a_k^2 {cause}")):
            variance(spec)

    def test_message_is_written_once(self):
        # every refusal of A = 0 goes through variance
        sources = [p.read_text(encoding="utf-8") for p in Path(spectrum.__file__).parent.glob("*.py")]
        assert sum(text.count("sum of a_k^2 over") for text in sources) == 1


NODE_FLOOR_SPECS = [
    make_spec("inv_sqrt", 1, 50),
    make_spec("ones", 3, 17),
    make_spec("prime_inv_sqrt", 1, 200),
    make_spec("explicit", 2, 7, coeffs=[0.3, -1.7, 2.5, 0.0, 1e-3, -0.9, 4.2]),
    PolynomialSpec(
        coeffs=CoefficientSeq(kind="inv_sqrt"),
        freqs=FrequencySeq.integers([k * k + 1 for k in range(1, 31)]),
        y=4,
        x=30,
        convention="2pi",
    ),
    make_spec("ones", 6, 5),
]


class TestNodeFloor:
    """node_floor is bit-for-bit each inline form it replaced, and every
    caller of the node floor reads it."""

    @pytest.mark.parametrize("spec", NODE_FLOOR_SPECS)
    def test_equals_the_replaced_expressions(self, spec):
        # GridSpec.cyclic_rule and cyclic_deviation_bound
        grid_form = 2.0 * math.pi * float(np.sum(spec.freq_values() * spec.coeff_values() ** 2))
        # riemann_gap
        jk, aa = spec.freq_values(), spec.coeff_values() ** 2
        gap_form = 2.0 * math.pi * float(np.sum(jk * aa))
        assert node_floor(spec).hex() == grid_form.hex() == gap_form.hex()

    def test_empty_range_is_zero(self):
        assert node_floor(make_spec("ones", 6, 5)) == 0.0

    @pytest.mark.parametrize("spec", NODE_FLOOR_SPECS[:5])
    def test_callers_read_it(self, spec):
        from supdev.decoupling import cyclic_deviation_bound, riemann_gap
        from supdev.mc import GridSpec

        floor = node_floor(spec)
        grid = GridSpec.cyclic_rule(spec, 0.5)
        assert grid.step == 1.0 / math.ceil(max(floor, 2.0))
        a2 = power_sum(spec, 2)
        n = int(math.ceil(max(floor, 2.0)))
        assert cyclic_deviation_bound(spec, n, 0.5, 1.0).intermediates["freq_sum_floor"].hex() == floor.hex()
        res = riemann_gap(spec, n)
        assert res.gap_bound.hex() == (floor / a2).hex()
        assert res.gap <= res.gap_bound + min(1e-6, 10.0 * 1e-9 * n / a2 + 1e-9)
        assert res.p_value <= res.upper_bound + 1e-9


def test_sequences_are_evaluated_only_in_spectrum():
    """Coefficients and frequencies are evaluated once, in PolynomialSpec;
    no other module calls ``<...>.freqs.value(`` or ``<...>.coeffs.value(``."""
    offenders = []
    for path in sorted((Path(spectrum.__file__).parent).glob("*.py")):
        if path.name == "spectrum.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "value"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in ("freqs", "coeffs")
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


class TestCoefficientSequences:
    def test_prime_rule_uses_sieve(self):
        seq = CoefficientSeq(kind="prime_inv_sqrt")
        assert seq.value(4) == 0.0
        assert seq.value(5) == pytest.approx(5**-0.5)
        assert seq.value(1) == 0.0

    def test_primes_up_to(self):
        assert primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).size == 0

    def test_values_cached_identical(self):
        seq = CoefficientSeq(kind="inv_sqrt")
        a = seq.values(3, 10)
        b = seq.values(3, 10)
        assert np.array_equal(a, b)

    def test_nonvanishing_flag_raises(self):
        seq = CoefficientSeq(kind="prime_inv_sqrt", nonvanishing=True)
        with pytest.raises(DomainError):
            seq.value(4)

    def test_explicit_out_of_range(self):
        seq = CoefficientSeq.from_values([1.0, 2.0])
        with pytest.raises(DomainError):
            seq.value(3)


class TestSpecValues:
    def test_prime_coefficients_match_sieve(self):
        mask = np.zeros(5001, dtype=bool)
        mask[primes_up_to(5000)] = True
        expect = np.array([k**-0.5 if mask[k] else 0.0 for k in range(1, 5001)])
        got = CoefficientSeq(kind="prime_inv_sqrt").values(1, 5000)
        assert got.tobytes() == expect.tobytes()

    def test_values_are_read_only_and_not_copied(self):
        spec = make_spec("inv_sqrt", 3, 10)
        for read in (spec.coeff_values, spec.freq_values):
            vals = read()
            assert vals is read() and not vals.flags.writeable
            with pytest.raises(ValueError):
                vals[0] = 0.0
        assert spec.coeff_values().tobytes() == CoefficientSeq(kind="inv_sqrt").values(3, 10).tobytes()

    def test_short_explicit_sequence_raises_at_construction(self):
        with pytest.raises(DomainError, match="beyond explicit length"):
            make_spec("explicit", 1, 3, coeffs=[1.0, 2.0])


class TestTermBudget:
    """A range of more than TERM_BUDGET terms raises BudgetError before a
    single coefficient or frequency is evaluated."""

    @staticmethod
    def build(y, x, calls):
        """A spec whose coefficient rule records every index it is asked for."""

        def rule(k):
            calls.append(k)
            return 1.0

        return PolynomialSpec(
            coeffs=CoefficientSeq(kind="rule", rule=rule),
            freqs=FrequencySeq(kind="integer", rule=lambda k: k),
            y=y,
            x=x,
            convention="2pi",
        )

    def test_budget_matches_walk_budget(self):
        from supdev.cyclic import WALK_BUDGET

        assert spectrum.TERM_BUDGET == WALK_BUDGET == 10**6

    def test_huge_range_raises_before_building(self, deadline):
        calls = []
        with pytest.raises(BudgetError, match="100000000 terms exceeds 1000000"):
            self.build(1, 10**8, calls)
        assert calls == []

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(spectrum, "TERM_BUDGET", 5)
        calls = []
        assert self.build(3, 7, calls).n_terms == 5 and calls == [3, 4, 5, 6, 7]
        calls = []
        with pytest.raises(BudgetError, match="6 terms exceeds 5"):
            self.build(3, 8, calls)
        assert calls == []


class TestFrequencies:
    def test_strictly_increasing_enforced(self):
        bad = FrequencySeq.integers([1, 3, 3])
        with pytest.raises(DomainError):
            bad.values(1, 3)

    def test_rational_pairs_exact(self):
        seq = FrequencySeq.rationals([(14, 10), (3, 2)])
        assert seq.explicit[0] == (14, 10)
        assert seq.value(1) == pytest.approx(1.4)

    def test_spec_requires_integer_for_periodic_convention(self):
        with pytest.raises(DomainError):
            PolynomialSpec(
                coeffs=CoefficientSeq(kind="ones"),
                freqs=FrequencySeq.reals([1.5, 2.5]),
                y=1,
                x=2,
                convention="2pi",
            )


class TestModerateCondition:
    def test_holds_small_eta(self):
        res = check_moderate_condition(make_spec("ones", 1, 100), 0.1)
        assert res.holds
        assert res.lhs == pytest.approx(10.0)
        assert res.rhs == pytest.approx(29.40201926547738, rel=1e-12)

    def test_fails_large_eta(self):
        res = check_moderate_condition(make_spec("ones", 1, 100), 0.9)
        assert not res.holds
        assert res.rhs == pytest.approx(0.7385453325193590, rel=1e-12)

    def test_unit_mass_is_domain_error(self):
        with pytest.raises(DomainError):
            check_moderate_condition(make_spec("ones", 1, 1), 0.5)


class TestGeometricMean:
    def test_unit_density(self):
        res = spectral_geometric_mean(lambda t: np.ones_like(t))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.log_integrable

    def test_exp_cos_density(self):
        # mean of cos over the circle vanishes, so the geometric mean is 1
        res = spectral_geometric_mean(lambda t: np.exp(np.cos(t)))
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_constant_density(self):
        res = spectral_geometric_mean(lambda t: np.full_like(t, 2.5))
        assert res.value == pytest.approx(2.5, rel=1e-12)

    def test_zero_density_hits_zero_branch(self):
        res = spectral_geometric_mean(lambda t: np.zeros_like(t))
        assert res.value == 0.0
        assert not res.log_integrable

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            spectral_geometric_mean(lambda t: np.cos(t))
        # a NaN value is refused at once, not carried to the node budget
        with pytest.raises(DomainError, match="negative or NaN"):
            spectral_geometric_mean(lambda t: np.where(t > 3.0, np.nan, 1.0))

    def test_nonconvergence_distinct_from_zero(self, monkeypatch):
        # a density with a genuinely non-integrable log singularity:
        # f = exp(-1/|t|) has log f = -1/|t|, divergent but too slowly to
        # hit the cutoff -> the quadrature must report failure, not 0
        monkeypatch.setattr(spectrum, "GEOMETRIC_MEAN_NODES", 2**14)
        with pytest.raises(QuadratureError, match="within 16384 nodes"):
            spectral_geometric_mean(lambda t: np.exp(-1.0 / np.maximum(np.abs(t), 1e-300)))

    def test_am_gm_on_random_positive_trig_polys(self, rng):
        for _ in range(12):
            d = rng.integers(1, 5)
            c = rng.normal(size=d + 1)
            c /= max(1.0, np.abs(c).sum())
            # unit mean, so the geometric mean is at most 1
            assert spectral_geometric_mean(TrigDensity(c, 0.05)).value <= 1.0 + 1e-10


def _closure_density(root_coeffs, floor_val):
    """The szego density as a closure, as it was built before TrigDensity;
    the geometric mean G, and so the szego bytes, rest on its values."""
    c = np.asarray(root_coeffs, dtype=float)
    mass = float(np.sum(c * c)) + floor_val

    def f(t):
        e = np.exp(1j * t)
        val = np.zeros_like(e)
        for j, cj in enumerate(c):
            val = val + cj * e**j
        return (np.abs(val) ** 2 + floor_val) / mass

    return f


def _midpoint_autocovariance(density, h, nodes):
    """(1/2pi) integral of f(t) cos(h t) over [-pi, pi] as a midpoint mean
    on ``nodes`` points: exact up to rounding when nodes > degree + h."""
    mids = -math.pi + (2.0 * np.arange(nodes) + 1.0) * (math.pi / nodes)
    return float(np.mean(density(mids) * np.cos(h * mids)))


def _densities():
    """(coeffs, floor): degrees 0 to 4, floor 0 and floor > 0."""
    rng = np.random.default_rng(17)
    return [(tuple(rng.normal(size=d + 1)), floor) for d in range(5) for floor in (0.0, 0.3) for _ in range(3)]


class TestTrigDensity:
    @pytest.mark.parametrize("coeffs, floor", _densities())
    def test_autocovariances_match_midpoint_mean(self, coeffs, floor):
        density = TrigDensity(coeffs, floor)
        d = len(coeffs) - 1
        for n in sorted({max(d, 1), d + 1, d + 3}):  # below, at and past d + 1
            gammas = density.autocovariances(n)
            assert gammas.shape == (n,) and gammas[0] == 1.0
            midpoint = [_midpoint_autocovariance(density, h, 4 * (d + 3)) for h in range(n)]
            np.testing.assert_allclose(gammas, midpoint, rtol=0.0, atol=1e-15)
            assert not np.any(gammas[d + 1 :])  # exactly 0 past the degree

    @pytest.mark.parametrize("coeffs, floor", [((1.0, 0.6, -0.3), 0.05), ((1.0, 1.0), 0.0), *_densities()[::4]])
    def test_values_match_closure_bit_for_bit(self, coeffs, floor):
        t = -math.pi + (2.0 * np.arange(1024) + 1.0) * (math.pi / 1024)
        assert TrigDensity(coeffs, floor)(t).tobytes() == _closure_density(coeffs, floor)(t).tobytes()

    @pytest.mark.parametrize("coeffs, floor", [((0.0, 0.0), 0.0), ((1.0,), -1.0), ((1e200,), 0.0)])
    def test_mass_not_finite_and_positive_raises(self, coeffs, floor):
        with pytest.raises(DomainError, match="not finite and positive"):
            TrigDensity(coeffs, floor)

    def test_no_lags_raises(self):
        with pytest.raises(DomainError, match="n=0"):
            TrigDensity((1.0,), 0.0).autocovariances(0)
