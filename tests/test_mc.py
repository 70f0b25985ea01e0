import gc
import math
import multiprocessing
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from supdev.errors import DomainError, FactorizationError
from supdev.mc import (
    CHUNK_REPS,
    CovarianceSpec,
    GridSpec,
    McEstimate,
    mc_expected_sup_diff,
    mc_expected_sup_path,
    mc_expected_sup_vector,
    mc_sup_prob,
    mc_vector_sup_prob,
    normal_draws,
    sample_path,
    sup_diff_samples,
    wilson_half_width,
    _chunk_bounds,
    _executor,
    _row_max,
)
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec


def unit_spec(x, freq_rule=lambda k: 0.7 * k, y=1, coeffs="ones"):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind=coeffs),
        freqs=FrequencySeq(kind="real", rule=freq_rule),
        y=y,
        x=x,
        convention="raw",
    )


def out_of_place_draws(seed, rep_start, n_reps, draws_per_rep):
    """The uniform conversion written as one out-of-place expression."""
    pad = 4 * ((draws_per_rep + 3) // 4)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(rep_start * pad // 4)
    raw = bg.random_raw(n_reps * pad).reshape(n_reps, pad)[:, :draws_per_rep]
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


class TestDraws:
    def test_in_place_conversion_is_bit_identical(self):
        for width in range(1, 34):  # unpadded at multiples of 4, padded otherwise
            for rep_start in (0, 1, 7, 1000):
                got = normal_draws(seed=21, rep_start=rep_start, n_reps=37, draws_per_rep=width)
                ref = out_of_place_draws(21, rep_start, 37, width)
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (width, rep_start)

    def test_partition_invariance(self):
        full = normal_draws(seed=9, rep_start=0, n_reps=40, draws_per_rep=7)
        head = normal_draws(seed=9, rep_start=0, n_reps=13, draws_per_rep=7)
        tail = normal_draws(seed=9, rep_start=13, n_reps=27, draws_per_rep=7)
        assert np.array_equal(full, np.vstack([head, tail]))

    def test_deterministic_across_calls(self):
        a = normal_draws(seed=5, rep_start=2, n_reps=10, draws_per_rep=3)
        b = normal_draws(seed=5, rep_start=2, n_reps=10, draws_per_rep=3)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = normal_draws(seed=1, rep_start=0, n_reps=4, draws_per_rep=4)
        b = normal_draws(seed=2, rep_start=0, n_reps=4, draws_per_rep=4)
        assert not np.allclose(a, b)

    def test_moments(self):
        z = normal_draws(seed=11, rep_start=0, n_reps=200000, draws_per_rep=1).ravel()
        assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
        assert abs(z.std() - 1.0) < 4.0 / math.sqrt(z.size)


class TestWilson:
    def test_half_width_positive_even_at_extremes(self):
        assert wilson_half_width(0, 100) > 0.0
        assert wilson_half_width(100, 100) > 0.0

    def test_matches_normal_approx_at_center(self):
        hw = wilson_half_width(5000, 10000)
        assert hw == pytest.approx(1.96 * 0.5 / 100.0, rel=1e-2)

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            McEstimate(estimate=1.5, reps=10, half_width=0.1, seed=0, kind="probability")
        with pytest.raises(DomainError):
            McEstimate(estimate=0.5, reps=10, half_width=-0.1, seed=0, kind="probability")


class TestCovarianceSpec:
    def test_equicorrelated_matrix(self):
        m = CovarianceSpec.equicorrelated(3, 0.4).matrix()
        assert np.allclose(np.diag(m), 1.0)
        assert m[0, 1] == 0.4

    def test_equicorrelated_range_check(self):
        with pytest.raises(DomainError):
            CovarianceSpec.equicorrelated(3, -0.6)

    def test_block_matrix_layout(self):
        m = CovarianceSpec.block(2, 2, 0.5, 0.1).matrix()
        expect = np.array(
            [
                [1.0, 0.5, 0.1, 0.1],
                [0.5, 1.0, 0.1, 0.1],
                [0.1, 0.1, 1.0, 0.5],
                [0.1, 0.1, 0.5, 1.0],
            ]
        )
        assert np.allclose(m, expect)

    def test_stationary_toeplitz(self):
        m = CovarianceSpec.stationary([1.0, 0.5, 0.25]).matrix()
        assert m[0, 2] == 0.25 and m[2, 0] == 0.25 and m[1, 2] == 0.5

    def test_factor_reproduces_matrix(self):
        cov = CovarianceSpec.block(3, 4, 0.5, 0.1)
        f = cov.factor()
        assert np.allclose(f @ f.T, cov.matrix(), atol=1e-12)

    def test_jitter_handles_near_singular(self):
        cov = CovarianceSpec.equicorrelated(4, 1.0 - 1e-15)
        f = cov.factor()
        assert np.all(np.isfinite(f))

    def test_hard_failure_names_eigenvalue(self):
        bad = CovarianceSpec.explicit([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError, match="eigenvalue"):
            bad.factor()


class TestSamplePath:
    def test_empty_range_zero_path(self):
        spec = unit_spec(0, y=1)
        paths = sample_path(spec, GridSpec.uniform(0, 1, 8), seed=1, reps=3)
        assert np.array_equal(paths, np.zeros((3, 8)))

    def test_empty_range_estimators(self):
        # the zero path: max 0 everywhere, so the estimators are exact
        spec, grid = unit_spec(0, y=1), GridSpec.uniform(0, 1, 500)
        assert mc_sup_prob(spec, grid, 0.0, 300, seed=1).estimate == 1.0
        assert mc_sup_prob(spec, grid, -0.1, 300, seed=1).estimate == 0.0
        assert mc_expected_sup_path(spec, grid, 300, seed=1).estimate == 0.0
        assert np.array_equal(sup_diff_samples(spec, spec, grid, 5, seed=1), np.zeros(5))

    def test_single_term_identity(self):
        # one coefficient: path = g cos t + g' sin t with (g, g') from the stream
        spec = unit_spec(1, freq_rule=lambda k: 1.0)
        grid = GridSpec.uniform(0.0, 2.0, 5)
        paths = sample_path(spec, grid, seed=42, reps=1)
        g, gp = normal_draws(seed=42, rep_start=0, n_reps=1, draws_per_rep=2)[0]
        t = grid.nodes()
        assert np.allclose(paths[0], g * np.cos(t) + gp * np.sin(t), atol=1e-12)

    def test_draws_do_not_depend_on_grid(self):
        spec = unit_spec(3)
        a = sample_path(spec, GridSpec.uniform(0, 1, 4), seed=7, reps=2)
        b = sample_path(spec, GridSpec.uniform(0, 1, 64), seed=7, reps=2)
        # node 0 and node 1.0 appear in both grids
        assert a[:, 0] == pytest.approx(b[:, 0])
        assert a[:, -1] == pytest.approx(b[:, -1])

    def test_variance_matches_mass(self):
        # empirical Var X(t) ~ A(y,x) at every node, within 4 CLT half-widths
        spec = unit_spec(6, y=2)
        a2 = 5.0
        paths = sample_path(spec, GridSpec.uniform(0.1, 2.3, 5), seed=3, reps=120000)
        for col in paths.T:
            var = col.var(ddof=1)
            hw = 1.96 * np.std(col**2, ddof=1) / math.sqrt(col.size)
            assert abs(var - a2) <= 4.0 * hw

    def test_grid_refinement_monotone_per_replication(self):
        spec = unit_spec(5)
        coarse = GridSpec.uniform(0.0, 1.0, 9)
        fine = GridSpec.uniform(0.0, 1.0, 17)  # nodes superset of coarse
        a = sample_path(spec, coarse, seed=13, reps=50).max(axis=1)
        b = sample_path(spec, fine, seed=13, reps=50).max(axis=1)
        assert np.all(b >= a - 1e-12)


    def test_matches_separate_cos_sin_projection(self):
        # independent reference: de-interleave the draws into [g_cos | g_sin]
        # and project through the stacked [C; S] design matrix
        spec = unit_spec(40, y=3, coeffs="inv_sqrt")
        grid = GridSpec.uniform(0.0, 7.0, 301)
        paths = sample_path(spec, grid, seed=17, reps=64, rep_start=5)
        g = normal_draws(seed=17, rep_start=5, n_reps=64, draws_per_rep=2 * spec.n_terms)
        phase = np.outer(spec.angular_freqs(), grid.nodes())
        a = spec.coeff_values()[:, None]
        ref = np.hstack([g[:, 0::2], g[:, 1::2]]) @ np.vstack([a * np.cos(phase), a * np.sin(phase)])
        assert np.max(np.abs(paths - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestWideGrid:
    """Grids wide enough that the replication range splits into several chunks."""

    SPEC = unit_spec(64)
    OTHER = unit_spec(64, freq_rule=lambda k: 0.71 * k)
    GRID = GridSpec.uniform(0.0, 10.0, 1000)
    REPS = 2000

    def test_several_chunks(self):
        assert len(_chunk_bounds(self.REPS, self.GRID.n)) >= 2
        assert len(_chunk_bounds(2000, 1258)) >= 2

    def test_narrow_outputs_keep_full_chunks(self):
        for reps in (1, 8191, 8192, 60000, 100000):
            expect = [(s, min(s + CHUNK_REPS, reps)) for s in range(0, reps, CHUNK_REPS)]
            for n in range(1, 33):
                assert _chunk_bounds(reps, n) == expect

    def test_chunks_cover_range_in_order(self):
        for reps, n in ((2000, 1258), (1000, 193), (77, 5000), (2000, 10**6)):
            chunks = _chunk_bounds(reps, n)
            assert chunks[0][0] == 0 and chunks[-1][1] == reps
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert all(e - s <= max(64, (1 << 18) // n) for s, e in chunks)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_identical(self, workers):
        spec, other, grid, reps = self.SPEC, self.OTHER, self.GRID, self.REPS
        assert mc_sup_prob(spec, grid, 9.0, reps, seed=4, workers=1) == mc_sup_prob(
            spec, grid, 9.0, reps, seed=4, workers=workers
        )
        for absolute in (False, True):
            assert mc_expected_sup_path(spec, grid, reps, seed=4, absolute=absolute) == mc_expected_sup_path(
                spec, grid, reps, seed=4, workers=workers, absolute=absolute
            )
        assert np.array_equal(
            sup_diff_samples(spec, other, grid, reps, seed=4, workers=1),
            sup_diff_samples(spec, other, grid, reps, seed=4, workers=workers),
        )

    def test_identical_pair_is_exactly_zero(self):
        est = mc_expected_sup_diff(self.SPEC, self.SPEC, self.GRID, self.REPS, seed=3, workers=2)
        assert est.estimate == 0.0 and est.half_width == 0.0


class TestSupProb:
    def test_huge_threshold_is_certain(self):
        spec = unit_spec(4)
        theta = 10.0 * math.sqrt(4.0)
        est = mc_sup_prob(spec, GridSpec.uniform(0, 1, 64), theta, 4000, seed=1)
        assert est.estimate >= 0.999

    def test_single_node_matches_gaussian_cdf(self):
        spec = unit_spec(4)
        theta = 1.0
        est = mc_sup_prob(spec, GridSpec.uniform(0.5, 0.5, 1), theta, 60000, seed=5)
        exact = ndtr(theta / 2.0)
        assert abs(est.estimate - exact) <= 3.0 * est.half_width

    def test_monotone_in_threshold_same_seed(self):
        spec = unit_spec(5)
        grid = GridSpec.uniform(0, 1, 32)
        lo = mc_sup_prob(spec, grid, 0.5, 5000, seed=2)
        hi = mc_sup_prob(spec, grid, 1.5, 5000, seed=2)
        assert lo.estimate <= hi.estimate

    def test_worker_count_identical(self):
        spec = unit_spec(6)
        grid = GridSpec.uniform(0, 1, 16)
        a = mc_sup_prob(spec, grid, 1.0, 30000, seed=8, workers=1)
        b = mc_sup_prob(spec, grid, 1.0, 30000, seed=8, workers=8)
        assert a == b


class TestVectorSupProb:
    def test_independent_signs(self):
        est = mc_vector_sup_prob(CovarianceSpec.equicorrelated(2, 1e-14), 0.0, 100000, seed=4)
        assert abs(est.estimate - 0.25) <= 3.0 * est.half_width

    def test_product_closed_form(self):
        est = mc_vector_sup_prob(CovarianceSpec.equicorrelated(3, 1e-14), 1.0, 100000, seed=6)
        exact = float(ndtr(1.0)) ** 3  # 0.5955551...
        assert abs(est.estimate - exact) <= 3.0 * est.half_width

    def test_fully_correlated_limit(self):
        est = mc_vector_sup_prob(CovarianceSpec.equicorrelated(5, 1.0 - 1e-12), 0.0, 60000, seed=7)
        assert abs(est.estimate - 0.5) <= 3.0 * est.half_width

    def test_absolute_mode(self):
        est = mc_vector_sup_prob(CovarianceSpec.equicorrelated(2, 1e-14), 1.0, 60000, seed=9, absolute=True)
        exact = (2.0 * float(ndtr(1.0)) - 1.0) ** 2
        assert abs(est.estimate - exact) <= 3.0 * est.half_width


class TestExpectedSup:
    def test_identical_pair_is_exactly_zero(self):
        spec = unit_spec(4)
        est = mc_expected_sup_diff(spec, spec, GridSpec.uniform(0, 1, 16), 500, seed=3)
        assert est.estimate == 0.0 and est.half_width == 0.0

    def test_folded_normal_mean(self):
        est = mc_expected_sup_vector(CovarianceSpec.explicit([[1.0]]), 200000, seed=10, absolute=True)
        assert abs(est.estimate - math.sqrt(2.0 / math.pi)) <= 3.0 * est.half_width

    def test_positive_homogeneity(self):
        base = unit_spec(3)
        doubled = PolynomialSpec(
            coeffs=CoefficientSeq.from_values([2.0, 2.0, 2.0]),
            freqs=base.freqs,
            y=1,
            x=3,
            convention="raw",
        )
        grid = GridSpec.uniform(0, 1, 32)
        a = mc_expected_sup_path(base, grid, 2000, seed=11)
        b = mc_expected_sup_path(doubled, grid, 2000, seed=11)
        assert b.estimate == pytest.approx(2.0 * a.estimate, rel=1e-12)

    def test_coupling_shares_gaussians(self):
        # same range and seed: the rational-frequency companion consumes the
        # same (g, g') pairs, so at u = 0 the two paths agree exactly
        from supdev.cyclic import TestSequence, perp_process

        spec = unit_spec(5, freq_rule=lambda k: 2**0.5 * k)
        perp = perp_process(spec, TestSequence(kind="pow2"))
        grid = GridSpec.uniform(0.0, 0.0, 1)
        a = sample_path(spec, grid, seed=21, reps=50)
        b = sample_path(perp, grid, seed=21, reps=50)
        assert np.allclose(a, b, atol=1e-12)


class TestRowMax:
    def test_matches_max_over_axis_one(self, rng):
        for width in range(1, 65):
            x = rng.standard_normal((300, width))
            x[rng.random(x.shape) < 0.05] = np.inf
            x[rng.random(x.shape) < 0.05] = -np.inf
            x[3] = -np.inf
            x[4] = np.inf
            before = x.copy()
            got = _row_max(x)
            assert np.array_equal(got.view(np.uint64), x.max(axis=1).view(np.uint64)), width
            assert np.array_equal(x, before)


def vector_estimates(cov, workers, absolute):
    return (
        mc_vector_sup_prob(cov, 1.8, VECTOR_REPS, seed=7, workers=workers, absolute=absolute),
        mc_expected_sup_vector(cov, VECTOR_REPS, seed=7, workers=workers, absolute=absolute),
    )


def _exit_zero_if_equal(ref):
    os._exit(0 if vector_estimates(NARROW, 2, False) == ref else 1)


VECTOR_REPS = 3 * CHUNK_REPS + 500  # at least 4 chunks at any width
NARROW = CovarianceSpec.stationary([0.7**k for k in range(12)])
WIDE = CovarianceSpec.block(5, 8, 0.5, 0.2)


class TestVectorWorkers:
    @pytest.mark.parametrize("cov", [NARROW, WIDE], ids=["n12", "n40"])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_worker_count_identical(self, cov, absolute):
        assert len(_chunk_bounds(VECTOR_REPS, cov.n)) >= 3
        ref = vector_estimates(cov, 1, absolute)
        assert vector_estimates(cov, 2, absolute) == ref
        assert vector_estimates(cov, 3, absolute) == ref

    def test_pool_is_reused(self):
        assert _executor(2) is _executor(2)

    def test_alternating_worker_counts(self):
        ref = vector_estimates(NARROW, 1, True)
        for workers in (2, 3, 2, 1, 3, 2):
            assert vector_estimates(NARROW, workers, True) == ref

    def test_concurrent_callers_share_pools(self):
        ref = vector_estimates(NARROW, 1, False)
        results = []
        threads = [
            threading.Thread(target=lambda w=w: results.append(vector_estimates(NARROW, w, False)))
            for w in (2, 3, 2, 3, 2, 3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [ref] * len(threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_fresh_pools(self):
        ref = vector_estimates(NARROW, 2, False)  # the parent's pool now has threads
        child = multiprocessing.get_context("fork").Process(target=_exit_zero_if_equal, args=(ref,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
        assert child.exitcode == 0

    def test_evicted_pool_threads_exit(self):
        vector_estimates(NARROW, 5, False)
        pool = _executor(5)
        threads = list(pool._threads)
        assert threads
        ref = weakref.ref(pool)
        del pool
        for workers in range(6, 6 + _executor.cache_info().maxsize):
            _executor(workers)
        gc.collect()
        assert ref() is None
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()


class TestGridSpec:
    def test_cyclic_rule_floor(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq(kind="ones"),
            freqs=FrequencySeq(kind="integer", rule=lambda k: k),
            y=1,
            x=3,
            convention="2pi",
        )
        grid = GridSpec.cyclic_rule(spec, eps=0.5)
        # floor n = max(2 pi (1+2+3), 2) = ceil(37.699...) = 38, z = 19
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert grid.count == 20
        assert grid.step == pytest.approx(1.0 / 38.0)

    def test_cyclic_rule_rejects_small_n(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq(kind="ones"),
            freqs=FrequencySeq(kind="integer", rule=lambda k: k),
            y=1,
            x=3,
            convention="2pi",
        )
        with pytest.raises(DomainError):
            GridSpec.cyclic_rule(spec, eps=0.5, n=10)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            GridSpec.uniform(1.0, 0.0, 4)

    def test_dense_density(self):
        grid = GridSpec.dense(1.0, 3.0, per_unit=16)
        nodes = grid.nodes()
        assert nodes[0] == 1.0 and nodes[-1] == 3.0
        assert nodes.size == 33
