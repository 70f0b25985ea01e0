import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdev.cyclic import (
    WALK_BUDGET,
    DeltaReport,
    KappaBlocks,
    TestSequence,
    delta_term,
    kappa_blocks,
    kappa_count,
    perp_process,
    rational_freq,
    sup_diff_bound,
    transfer_bound,
)
from supdev.errors import BudgetError, DomainError
from supdev.mc import GridSpec, mc_expected_sup_diff, sample_path, sup_diff_samples
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec


def real_spec(x, y=1, coeff_kind="ones", freq_rule=lambda k: 2**0.5 * k):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind=coeff_kind),
        freqs=FrequencySeq(kind="real", rule=freq_rule),
        y=y,
        x=x,
        convention="raw",
    )


class TestRationalFreq:
    def test_sqrt2_example(self):
        num, den = rational_freq(math.sqrt(2.0), 10)
        assert (num, den) == (14, 10)
        assert abs(num / den - math.sqrt(2.0)) <= 0.1

    def test_integer_frequency_exact(self):
        for m in (1, 3, 17):
            for n in (1, 5, 64):
                assert rational_freq(float(m), n) == (m * n, n)

    @given(st.floats(1e-6, 1e6), st.integers(1, 10**6))
    @settings(max_examples=400, deadline=None)
    def test_error_within_one_over_n_exact_arithmetic(self, L, N):
        num, den = rational_freq(L, N)
        assert den == N
        err = abs(Fraction(num, den) - Fraction(L))
        assert err <= Fraction(1, N)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            rational_freq(0.0, 5)

    @pytest.mark.parametrize("L, bits", [(1e300, 30), (0.5, 1100), (627.3, 1016)])
    def test_product_past_the_float_range_is_named(self, L, bits):
        with pytest.raises(DomainError, match=re.escape(f"N*L is not a finite float for L={L} and a {bits + 1}-bit")):
            rational_freq(L, 2**bits)


class TestTestSequence:
    def test_pow2_values(self):
        ts = TestSequence(kind="pow2")
        assert ts.values(1, 4) == [2, 4, 8, 16]
        assert ts.value(100) == 2**100  # exact beyond 64 bits

    def test_floor_rule(self):
        ts = TestSequence(kind="floor", floor_value=5)
        assert ts.values(1, 7) == [5, 5, 5, 5, 5, 6, 7]

    def test_below_index_rejected(self):
        ts = TestSequence(kind="explicit", explicit=(2, 3, 2))
        with pytest.raises(DomainError):
            ts.value(3)

    def test_decreasing_rule_rejected(self):
        ts = TestSequence(kind="rule", rule=lambda k: 20 - k if k < 10 else k)
        with pytest.raises(DomainError):
            ts.values(1, 12)
        # the block walk checks the same order
        with pytest.raises(DomainError, match="decreases at k=2: 19 -> 18"):
            kappa_blocks(ts, 1, 100)

    def test_inverse_squares_underflow_past_the_float_range(self):
        # N_k^2 = 2^(2k) passes the float range at k = 512; the squares
        # underflow to subnormals and then to 0 instead of overflowing
        ts = TestSequence(kind="pow2")
        inv = ts.inverse_squares(1, 600)
        assert inv[:511].tobytes() == np.array([1.0 / (v * v) for v in ts.values(1, 511)]).tobytes()
        assert inv[511] == 2.0**-1024 and inv[-1] == 0.0
        values = TestSequence(kind="identity").values(1, 5000)
        expected = np.array([1.0 / (v * v) for v in values])
        assert TestSequence(kind="identity").inverse_squares(1, 5000).tobytes() == expected.tobytes()


class TestKappaCount:
    def test_pow2_up_to_16(self):
        assert kappa_count(TestSequence(kind="pow2"), 1, 16) == 3  # [2,4), [4,8), [8,16)

    def test_interval_shorter_than_first_block(self):
        assert kappa_count(TestSequence(kind="pow2"), 1, 3) == 0

    def test_identity_counts_m_minus_one(self):
        for m in (2, 5, 17):
            assert kappa_count(TestSequence(kind="identity"), 1, m) == m - 1

    def test_degenerate_blocks_flagged_and_counted(self):
        blocks = kappa_blocks(TestSequence(kind="floor", floor_value=4), 1, 8)
        # N = 4,4,4,4,5,6,7,8: three degenerate [4,4) blocks plus [4,5),...,[7,8)
        assert blocks.degenerate == 3
        assert blocks.count == 3 + 4

    def test_offset_interval(self):
        # blocks inside [3, 20] for pow2: [4,8) and [8,16)
        assert kappa_count(TestSequence(kind="pow2"), 3, 20) == 2


class TestPerpProcess:
    def test_integer_frequencies_unchanged(self):
        spec = real_spec(4, freq_rule=lambda k: float(k))
        perp = perp_process(spec, TestSequence(kind="pow2"))
        for k in range(1, 5):
            assert perp.freqs.value(k) == spec.freqs.value(k)

    def test_per_term_error_bounded(self):
        spec = real_spec(6)
        ts = TestSequence(kind="identity")
        perp = perp_process(spec, ts)
        for k in range(1, 7):
            assert abs(perp.freqs.value(k) - spec.freqs.value(k)) <= 1.0 / ts.value(k)

    def test_rational_pairs_exposed(self):
        perp = perp_process(real_spec(2), TestSequence(kind="pow2"))
        num, den = perp.freqs.explicit[0]
        assert den == 2 and num == math.floor(2 * 2**0.5)

    def test_reads_the_frequencies_the_spec_holds(self, monkeypatch):
        spec = real_spec(12, coeff_kind="inv_sqrt")
        ts = TestSequence(kind="pow2")
        expect = tuple(rational_freq(spec.freqs.value(k), ts.value(k)) for k in range(1, 13))
        value = FrequencySeq.value

        def refuse(self, k):
            # the companion's own rational sequence is still evaluated when it is built
            if self is spec.freqs:
                raise AssertionError(f"frequency {k} of the spec evaluated again")
            return value(self, k)

        monkeypatch.setattr(FrequencySeq, "value", refuse)
        perp = perp_process(spec, ts)
        assert perp.freqs.explicit == expect

    @pytest.mark.parametrize("y, x", [(2, 2), (2, 9), (5, 5), (7, 20), (40, 45)])
    @pytest.mark.parametrize("ts_kind", ["pow2", "identity"])
    def test_companion_of_a_range_past_the_first_index(self, y, x, ts_kind):
        # the exact pairs start at k = y, so index k reads floor(N_k L_k) / N_k
        spec = real_spec(x, y=y, coeff_kind="inv_sqrt")
        ts = TestSequence(kind=ts_kind)
        perp = perp_process(spec, ts)
        want = [math.floor(ts.value(k) * spec.freqs.value(k)) / ts.value(k) for k in range(y, x + 1)]
        assert perp.freq_values().tolist() == want
        assert perp.coeff_values().tobytes() == spec.coeff_values().tobytes()
        with pytest.raises(DomainError, match=f"frequency index k={y - 1} outside the explicit range"):
            perp.freqs.value(y - 1)


class TestDeltaTerm:
    def test_u_below_y_branch(self):
        # constant-coefficient check: Delta = U sqrt(sum 1/N_k^2) sqrt(x - y + 1)
        spec = real_spec(16, y=8)
        ts = TestSequence(kind="identity")
        rep = delta_term(spec, ts, U=4.0)
        expect = 4.0 * math.sqrt(sum(1.0 / k**2 for k in range(8, 17))) * 3.0
        assert rep.branch == "U<=y"
        assert rep.delta == pytest.approx(expect, rel=1e-12)
        assert rep.delta == pytest.approx(3.2322013096145570, rel=1e-10)

    def test_all_zero_coefficients(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values([0.0, 0.0, 0.0]),
            freqs=FrequencySeq(kind="real", rule=lambda k: 2**0.5 * k),
            y=1,
            x=3,
            convention="raw",
        )
        rep = delta_term(spec, TestSequence(kind="pow2"), U=4.0)
        assert rep.delta == 0.0

    def test_pow2_tail_product_bounded(self):
        # N_kappa sqrt(sum_{k >= kappa} 4^{-k}) <= 2/sqrt(3) for every kappa
        ts = TestSequence(kind="pow2")
        for kappa in range(1, 12):
            tail = sum(4.0**-k for k in range(kappa, 40))
            assert (1 << kappa) * math.sqrt(tail) <= 2.0 / math.sqrt(3.0) + 1e-12

    def test_summands_nonnegative_and_reported(self):
        rep = delta_term(real_spec(32), TestSequence(kind="pow2"), U=16.0)
        assert rep.branch == "y<=U"
        assert len(rep.summands) == 3
        assert all(s >= 0.0 for s in rep.summands)
        assert rep.delta == pytest.approx(sum(rep.summands))

    def test_head_sum_matches_enumeration(self):
        # N_k = 2^k, U = 16: largest kappa with N_kappa <= U is 4, so the
        # head sum runs over k = 1..3
        spec = real_spec(10, coeff_kind="inv_sqrt")
        rep = delta_term(spec, TestSequence(kind="pow2"), U=16.0)
        expect = sum(k**-0.5 for k in (1, 2, 3))
        assert rep.summands[1] == pytest.approx(expect, rel=1e-12)

    def test_enlarging_ts_shrinks_first_and_third_summands(self):
        spec = real_spec(24)
        small = delta_term(spec, TestSequence(kind="identity"), U=8.0)
        big = delta_term(spec, TestSequence(kind="rule", rule=lambda k: 4 * k), U=8.0)
        assert big.summands[0] <= small.summands[0] + 1e-12
        assert big.summands[2] <= small.summands[2] + 1e-12


class TestSupDiffBound:
    def test_zero_coefficients_zero_bound(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values([0.0, 0.0]),
            freqs=FrequencySeq(kind="real", rule=lambda k: 2**0.5 * k),
            y=1,
            x=2,
            convention="raw",
        )
        res = sup_diff_bound(spec, TestSequence(kind="pow2"), U=4.0)
        assert res.e_value == 0.0 and res.bound == 0.0

    def test_branch_kappa_selection(self):
        res = sup_diff_bound(real_spec(16, y=8), TestSequence(kind="identity"), U=4.0)
        assert res.branch == "U<=y"
        assert res.kappa == kappa_count(TestSequence(kind="identity"), 1, 4.0)
        res2 = sup_diff_bound(real_spec(16, y=2), TestSequence(kind="identity"), U=8.0)
        assert res2.branch == "y<=U"
        assert res2.kappa == kappa_count(TestSequence(kind="identity"), 2, 8.0)

    def test_mc_calibration_reports_only(self):
        # fitted C from a coupled run: reported, never asserted
        spec = real_spec(24, coeff_kind="inv_sqrt")
        ts = TestSequence(kind="pow2")
        from supdev.cyclic import perp_process

        perp = perp_process(spec, ts)
        grid = GridSpec.uniform(1.0, 8.0, 1024)
        est = mc_expected_sup_diff(spec, perp, grid, 400, seed=9)
        res = sup_diff_bound(spec, ts, U=8.0, C=1.0)
        fitted = est.estimate / (res.e_value * math.sqrt(max(math.log(res.kappa), 1.0)))
        assert fitted > 0.0  # the coupled difference is nondegenerate


class TestTransferBound:
    def test_h_to_zero_vacuous(self):
        tb = transfer_bound(real_spec(8), TestSequence(kind="pow2"), U=4.0, theta=1.0, h=1e-12)
        assert tb.error_term == pytest.approx(2.0, rel=1e-9)

    def test_zero_process_zero_error(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values([0.0, 0.0]),
            freqs=FrequencySeq(kind="real", rule=lambda k: 2**0.5 * k),
            y=1,
            x=2,
            convention="raw",
        )
        tb = transfer_bound(spec, TestSequence(kind="pow2"), U=4.0, theta=1.0, h=0.5)
        assert tb.error_term == 0.0

    def test_h_must_be_below_theta(self):
        with pytest.raises(DomainError):
            transfer_bound(real_spec(4), TestSequence(kind="pow2"), U=4.0, theta=1.0, h=1.0)

    def test_discussion_specialization_scales(self):
        # N_k = 2^k, |a_k| <= k^{-1/2}: Delta stays within a constant of
        # max(sqrt(A_x), sqrt(log U)) as the formula collapses
        for x, U in ((50, 4.0), (100, 16.0), (200, 64.0)):
            spec = real_spec(x, coeff_kind="inv_sqrt")
            rep = delta_term(spec, TestSequence(kind="pow2"), U)
            a2 = float(np.sum(spec.coeff_values() ** 2))
            scale = max(math.sqrt(a2), math.sqrt(math.log(U)))
            assert rep.delta <= 4.0 * scale
            assert rep.delta >= 0.25 * scale

    def test_transfer_probability_inequality_mc(self):
        # coupled MC check at C = 1 (the error term is generous here)
        from supdev.mc import mc_sup_prob

        spec = real_spec(32, coeff_kind="inv_sqrt", freq_rule=lambda k: 0.7 * k)
        ts = TestSequence(kind="pow2")
        perp = perp_process(spec, ts)
        a2 = float(np.sum(spec.coeff_values() ** 2))
        theta, h = 2.0 * math.sqrt(a2), math.sqrt(a2)
        tb = transfer_bound(spec, ts, U=4.0, theta=theta, h=h, C=1.0)
        grid = GridSpec.uniform(1.0, 4.0, 1024)
        est_x = mc_sup_prob(spec, grid, theta - h, 3000, seed=17)
        est_p = mc_sup_prob(perp, grid, theta, 3000, seed=17)
        cushion = 3.0 * (est_x.half_width + est_p.half_width)
        assert est_x.estimate <= est_p.estimate + tb.error_term + cushion


class TestFreeConstant:
    """The free constant C of both bounds must be positive."""

    @pytest.mark.parametrize("C", [0.0, -1e-300, -1.0, -1e300, math.nan])
    def test_nonpositive_rejected(self, C):
        spec, ts = real_spec(8), TestSequence(kind="pow2")
        with pytest.raises(DomainError, match="free constant C=.* must be positive"):
            transfer_bound(spec, ts, 4.0, 2.0, 1.0, C=C)
        with pytest.raises(DomainError, match="free constant C=.* must be positive"):
            sup_diff_bound(spec, ts, 4.0, C=C)


class TestCouplingIdentity:
    def test_integer_frequencies_give_zero_supdiff(self):
        spec = real_spec(6, freq_rule=lambda k: float(k))
        perp = perp_process(spec, TestSequence(kind="identity"))
        sups = sup_diff_samples(spec, perp, GridSpec.uniform(1.0, 4.0, 256), 100, seed=3)
        assert np.all(sups == 0.0)

    def test_rational_companion_tracks_original(self):
        spec = real_spec(12, coeff_kind="inv_sqrt")
        ts = TestSequence(kind="pow2")
        perp = perp_process(spec, ts)
        sups = sup_diff_samples(spec, perp, GridSpec.uniform(1.0, 4.0, 512), 200, seed=4)
        bound = sup_diff_bound(spec, ts, U=4.0, C=1.0)
        assert sups.mean() <= 8.0 * bound.bound  # loose sanity: same scale

    def test_coupled_difference_past_the_first_index(self):
        # on [y, x] with y > 1 both paths read the same (g_k, g'_k)
        spec = real_spec(12, y=5, coeff_kind="inv_sqrt")
        perp = perp_process(spec, TestSequence(kind="pow2"))
        grid = GridSpec.uniform(1.0, 4.0, 256)
        sups = sup_diff_samples(spec, perp, grid, 200, seed=4)
        paths = sample_path(spec, grid, seed=4, reps=200) - sample_path(perp, grid, seed=4, reps=200)
        assert np.allclose(sups, np.abs(paths).max(axis=1), rtol=1e-12, atol=1e-12)
        assert sups.max() > 0.0


def _old_kappa_blocks(ts, lo, hi):
    """The block count as it walked N_k before delta_term shared one walk."""
    if hi < lo:
        raise DomainError(f"interval [{lo}, {hi}] reversed")
    count = 0
    degenerate = 0
    cap = ts.max_index()
    kappa = 2
    prev = ts.value(1)
    while prev <= hi:
        if cap is not None and kappa > cap:
            break
        cur = ts.value(kappa)
        if cur == prev:
            count += 1
            degenerate += 1
        elif prev >= lo and cur <= hi:
            count += 1
        prev = cur
        kappa += 1
    return KappaBlocks(count, degenerate)


def _old_delta_term(spec, ts, U):
    """Delta as it was computed with four separate walks of N_k."""
    if U < 1.0:
        raise DomainError(f"U={U} must be at least 1")
    y, x = spec.y, spec.x
    a = spec.coeff_values()
    inv_sq = ts.inverse_squares(y, x)
    inv2 = float(np.sum(inv_sq)) if inv_sq.size else 0.0
    a2 = float(np.sum(a**2)) if a.size else 0.0
    base = math.sqrt(inv2) * math.sqrt(a2)
    blocks_1U = _old_kappa_blocks(ts, 1.0, U)
    blocks_yU = _old_kappa_blocks(ts, float(y), U) if y <= U else KappaBlocks(0, 0)
    if U <= y:
        delta = U * base
        return DeltaReport(delta, "U<=y", (delta,), blocks_1U.count, blocks_yU.count, blocks_1U.degenerate)
    first = y * base
    kappa_star = 0
    cap = ts.max_index()
    k = 1
    while True:
        if cap is not None and k > cap:
            break
        if ts.value(k) > U:
            break
        kappa_star = k
        k += 1
    if kappa_star >= 2 and kappa_star > y:
        hi = min(kappa_star - 1, x)
        second = float(np.sum(np.abs(a[: hi - y + 1]))) if hi >= y else 0.0
    else:
        second = 0.0
    third = 0.0
    tail_inv2 = np.concatenate([np.cumsum(inv_sq[::-1])[::-1], [0.0]]) if inv_sq.size else np.zeros(1)
    tail_a2 = np.concatenate([np.cumsum((a**2)[::-1])[::-1], [0.0]]) if a.size else np.zeros(1)
    for kappa in range(1, kappa_star + 1):
        n_kappa = ts.value(kappa)
        if not y <= n_kappa <= U:
            continue
        if kappa > x:
            continue
        idx = max(kappa, y) - y
        third = max(third, n_kappa * math.sqrt(tail_inv2[idx]) * math.sqrt(tail_a2[idx]))
    return DeltaReport(first + second + third, "y<=U", (first, second, third), blocks_1U.count,
                       blocks_yU.count, blocks_1U.degenerate)


def _outcome(fn, *args):
    """The result of fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


# pow2, identity, floor, rule and explicit kinds; repeated N values (floor,
# the explicit tuple, the "round up to even" rule); explicit tuples shorter
# than the walk to U; N_1 > U (floor 9, rule 10k, explicit starting at 12)
WALK_SEQUENCES = [
    TestSequence(kind="pow2"),
    TestSequence(kind="identity"),
    TestSequence(kind="floor", floor_value=4),
    TestSequence(kind="floor", floor_value=9),
    TestSequence(kind="rule", rule=lambda k: 3 * k),
    TestSequence(kind="rule", rule=lambda k: k + k % 2),
    TestSequence(kind="rule", rule=lambda k: 10 * k),
    TestSequence(kind="explicit", explicit=(1, 2, 4, 4, 8, 9, 30, 30, 31, 64, 100, 200)),
    TestSequence(kind="explicit", explicit=(2, 3, 3)),
    TestSequence(kind="explicit", explicit=(12, 13, 14, 15, 16, 17, 18, 19, 20)),
]


class TestOneWalk:
    """kappa_blocks and delta_term give what the separate walks gave."""

    @pytest.mark.parametrize("ts", WALK_SEQUENCES, ids=range(len(WALK_SEQUENCES)))
    def test_kappa_blocks_matches_old_walk(self, ts):
        for lo, hi in itertools.product((1.0, 2.0, 3.5, 8.0, 16.0), (1.0, 3.0, 4.0, 8.0, 33.3, 100.0, 250.0)):
            if hi >= lo:
                assert kappa_blocks(ts, lo, hi) == _old_kappa_blocks(ts, lo, hi), (lo, hi)

    @pytest.mark.parametrize("ts", WALK_SEQUENCES, ids=range(len(WALK_SEQUENCES)))
    def test_delta_term_matches_old_walks(self, ts):
        for (y, x), U in itertools.product(
            ((1, 1), (1, 3), (1, 9), (2, 6), (3, 12), (5, 9), (12, 16), (20, 24)),
            (1.0, 2.5, 4.0, 7.9, 16.0, 30.0, 100.0),
        ):
            for coeff_kind in ("ones", "inv_sqrt"):
                spec = real_spec(x, y=y, coeff_kind=coeff_kind)
                new, old = _outcome(delta_term, spec, ts, U), _outcome(_old_delta_term, spec, ts, U)
                assert new == old, (y, x, U, coeff_kind)

    def test_cases_cover_every_branch(self):
        """The grid above reaches both branches, a nonzero head sum and sup,
        degenerate blocks, and explicit sequences too short for [y, x]."""
        seen = set()
        for ts, (y, x), U in itertools.product(WALK_SEQUENCES, ((1, 9), (2, 6), (12, 16)), (4.0, 16.0, 100.0)):
            rep = _outcome(delta_term, real_spec(x, y=y), ts, U)
            if rep is DomainError:
                seen.add("short")
                continue
            seen.add(rep.branch)
            if rep.branch == "y<=U":
                seen.update(name for name, v in zip(("first", "second", "third"), rep.summands) if v > 0.0)
            if rep.degenerate_blocks:
                seen.add("degenerate")
        assert seen == {"U<=y", "y<=U", "first", "second", "third", "degenerate", "short"}


class TestNonFiniteWindow:
    @pytest.mark.parametrize("U", [math.nan, math.inf])
    def test_delta_and_transfer_raise(self, U, deadline):
        for ts in (TestSequence(kind="identity"), TestSequence(kind="pow2")):
            with pytest.raises(DomainError, match="not finite"):
                delta_term(real_spec(8), ts, U)
            with pytest.raises(DomainError, match="not finite"):
                transfer_bound(real_spec(8), ts, U, theta=2.0, h=1.0)

    @pytest.mark.parametrize("hi", [math.nan, math.inf])
    def test_kappa_count_raises(self, hi, deadline):
        with pytest.raises(DomainError, match="not finite"):
            kappa_count(TestSequence(kind="identity"), 1.0, hi)


class TestWalkBudget:
    def test_walk_of_budget_length_runs_and_one_more_raises(self, deadline):
        # the identity walk to hi keeps N_1..N_k with N_k = floor(hi) + 1 > hi
        ts = TestSequence(kind="identity")
        assert kappa_count(ts, 1.0, WALK_BUDGET - 1) == WALK_BUDGET - 2
        with pytest.raises(BudgetError, match=f"exceeds {WALK_BUDGET} terms"):
            kappa_count(ts, 1.0, WALK_BUDGET)

    def test_huge_finite_window_raises(self, deadline):
        ts = TestSequence(kind="identity")
        with pytest.raises(BudgetError, match="walk to 1e\\+09"):
            delta_term(real_spec(8), ts, 1e9)
        with pytest.raises(BudgetError, match="walk to 1e\\+09"):
            transfer_bound(real_spec(8), ts, 1e9, theta=2.0, h=1.0)
