import ast
import math
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
    SpectralDensity,
    check_moderate_condition,
    node_floor,
    power_sum,
    primes_up_to,
    spectral_geometric_mean,
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
        assert seq.rational_pair(1) == (14, 10)
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
        res = spectral_geometric_mean(SpectralDensity(lambda t: np.ones_like(t)))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.log_integrable

    def test_exp_cos_density(self):
        # mean of cos over the circle vanishes, so the geometric mean is 1
        res = spectral_geometric_mean(SpectralDensity(lambda t: np.exp(np.cos(t))))
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_constant_density(self):
        res = spectral_geometric_mean(SpectralDensity(lambda t: np.full_like(t, 2.5)))
        assert res.value == pytest.approx(2.5, rel=1e-12)

    def test_zero_density_hits_zero_branch(self):
        dens = SpectralDensity(lambda t: np.zeros_like(t))
        res = spectral_geometric_mean(dens)
        assert res.value == 0.0
        assert not res.log_integrable

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            spectral_geometric_mean(SpectralDensity(lambda t: np.cos(t)))

    def test_nonconvergence_distinct_from_zero(self):
        # a density with a genuinely non-integrable log singularity:
        # f = exp(-1/|t|) has log f = -1/|t|, divergent but too slowly to
        # hit the cutoff -> the quadrature must report failure, not 0
        dens = SpectralDensity(lambda t: np.exp(-1.0 / np.maximum(np.abs(t), 1e-300)))
        with pytest.raises(QuadratureError):
            spectral_geometric_mean(dens, tol=1e-12, max_nodes=2**14)

    def test_am_gm_on_random_positive_trig_polys(self, rng):
        for _ in range(12):
            d = rng.integers(1, 5)
            c = rng.normal(size=d + 1)
            c /= max(1.0, np.abs(c).sum())

            def f(t, c=c):
                e = np.exp(1j * t)
                val = np.zeros_like(e)
                for j, cj in enumerate(c):
                    val = val + cj * e**j
                return np.abs(val) ** 2 + 0.05

            dens = SpectralDensity(f)
            g = spectral_geometric_mean(dens).value
            arithmetic = float(np.sum(c * c)) + 0.05  # mean of |q|^2 + floor
            assert g <= arithmetic + 1e-10
