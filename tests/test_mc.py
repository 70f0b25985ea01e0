import ast
import gc
import importlib
import inspect
import math
import multiprocessing
import os
import pkgutil
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import ndtr, ndtri

import supdev
from supdev import harness, mc
from supdev.decoupling import decoupling_coeff_vector, verify_decoupling_mc, verify_gebelein_nelson
from supdev.errors import BudgetError, DomainError, FactorizationError
from supdev.mc import (
    CHUNK_REPS,
    GRID_BUDGET,
    CovarianceSpec,
    GridSpec,
    McEstimate,
    mc_expected_sup_diff,
    mc_expected_sup_path,
    mc_expected_sup_vector,
    mc_sup_prob,
    mc_sup_probs,
    mc_vector_sup_prob,
    normal_draws,
    sample_path,
    sup_diff_samples,
    wilson_half_width,
    _DESIGN_BLOCK,
    _chunk_bounds,
    _design_matrix,
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


def _old_matrix(structure, n, params):
    """The matrix as the structure-string dispatch built it."""
    if structure == "equicorrelated":
        m = np.full((n, n), params["lam"])
        np.fill_diagonal(m, 1.0)
    elif structure == "block":
        N, k, u, lam = (params[key] for key in ("N", "k", "u", "lam"))
        m = np.full((n, n), lam)
        for j in range(N):
            sl = slice(j * k, (j + 1) * k)
            m[sl, sl] = u
        np.fill_diagonal(m, 1.0)
    else:
        m = toeplitz(np.asarray(params["gammas"]))
    return m


def _old_factor(m):
    """The Cholesky factor with its one jitter retry, as computed before."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(m) / m.shape[0]
        try:
            return np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            return FactorizationError


# (constructor, old structure, old n, old params): n = 1, N = 1 and k = 1
# included, an integer lam, a singular case that takes the jitter retry and
# a non-PSD one
OLD_STRUCTURES = [
    (lambda: CovarianceSpec.equicorrelated(1, 0.3), "equicorrelated", 1, {"lam": 0.3}),
    (lambda: CovarianceSpec.equicorrelated(5, 0.3), "equicorrelated", 5, {"lam": 0.3}),
    (lambda: CovarianceSpec.equicorrelated(4, -0.2), "equicorrelated", 4, {"lam": -0.2}),
    (lambda: CovarianceSpec.equicorrelated(3, 0), "equicorrelated", 3, {"lam": 0.0}),
    (lambda: CovarianceSpec.equicorrelated(4, 1.0 - 1e-15), "equicorrelated", 4, {"lam": 1.0 - 1e-15}),
    (lambda: CovarianceSpec.block(1, 4, 0.5, 0.1), "block", 4, {"N": 1, "k": 4, "u": 0.5, "lam": 0.1}),
    (lambda: CovarianceSpec.block(3, 1, 0.5, 0.1), "block", 3, {"N": 3, "k": 1, "u": 0.5, "lam": 0.1}),
    (lambda: CovarianceSpec.block(3, 4, 0.5, 0.1), "block", 12, {"N": 3, "k": 4, "u": 0.5, "lam": 0.1}),
    (lambda: CovarianceSpec.block(2, 3, 0.4, -0.05), "block", 6, {"N": 2, "k": 3, "u": 0.4, "lam": -0.05}),
    (lambda: CovarianceSpec.block(2, 2, 0.1, 0.9), "block", 4, {"N": 2, "k": 2, "u": 0.1, "lam": 0.9}),
    (lambda: CovarianceSpec.stationary([1.0]), "stationary", 1, {"gammas": (1.0,)}),
    (lambda: CovarianceSpec.stationary([1.0, 1.0, 1.0]), "stationary", 3, {"gammas": (1.0, 1.0, 1.0)}),
    (lambda: CovarianceSpec.stationary([1.0, 0.5, 0.25]), "stationary", 3, {"gammas": (1.0, 0.5, 0.25)}),
    (lambda: CovarianceSpec.stationary([2.0, 0.3, -0.1, 0.05]), "stationary", 4,
     {"gammas": (2.0, 0.3, -0.1, 0.05)}),
]


@pytest.mark.parametrize("make, structure, n, params", OLD_STRUCTURES, ids=range(len(OLD_STRUCTURES)))
def test_constructors_match_structure_dispatch(make, structure, n, params):
    """Each constructor builds the bytes the structure-string switch built,
    and the factor (or its failure) is unchanged."""
    cov = make()
    old = _old_matrix(structure, n, params)
    assert cov.n == n
    assert cov.matrix().dtype == old.dtype and cov.matrix().shape == old.shape
    assert cov.matrix().tobytes() == old.tobytes()
    expect = _old_factor(old)
    if expect is FactorizationError:
        with pytest.raises(FactorizationError):
            cov.factor()
    else:
        assert cov.factor().tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "gammas",
    [[1.0], [1.0, 0.5], [1.0, -0.4], [2.0, -0.0, -0.7], [(-0.9) ** k for k in range(40)]],
    ids=["n1", "n2", "n2_negative", "negative_and_signed_zero", "n40_alternating"],
)
def test_stationary_bytes_match_scipy_toeplitz(gammas):
    """The numpy-indexed Toeplitz matrix has the bytes, dtype and layout of
    scipy.linalg.toeplitz, signed zeros and negative covariances included."""
    m = CovarianceSpec.stationary(gammas).matrix()
    expect = toeplitz(np.asarray(gammas, dtype=float))
    assert m.dtype == expect.dtype and m.shape == expect.shape and m.flags.c_contiguous
    assert m.tobytes() == expect.tobytes()


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


def stacked_design(spec, nodes):
    """The design matrix as one ``np.stack`` of two full-size temporaries."""
    a = spec.coeff_values()[:, None]
    phase = np.outer(spec.angular_freqs(), nodes)
    return np.stack([a * np.cos(phase), a * np.sin(phase)], axis=1).reshape(-1, nodes.size)


def integer_spec(x, y=1):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="inv_sqrt"),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=y,
        x=x,
        convention="2pi",
    )


# (terms, nodes): one node, one term, no term, and term counts on either
# side of a fill-block boundary (2^14 values hold 128 terms of 64 nodes, one
# term of 8192 nodes, two of 4096)
DESIGN_SIZES = [(5, 1), (1, 700), (0, 300), (127, 64), (128, 64), (129, 64), (257, 64), (3, 8192), (3, 9000), (3, 4096)]


class TestPooledDesign:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("terms,n_nodes", DESIGN_SIZES)
    def test_matches_stacked_expression(self, terms, n_nodes, workers):
        nodes = np.linspace(0.0, 9.0, n_nodes)
        for spec in (unit_spec(terms, coeffs="inv_sqrt"), integer_spec(terms)):
            got = _design_matrix(spec, nodes, workers)
            want = stacked_design(spec, nodes)
            assert got.shape == want.shape == (2 * terms, n_nodes)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("terms,n_nodes", DESIGN_SIZES)
    def test_difference_matches_full_size_subtraction(self, terms, n_nodes, workers):
        nodes = np.linspace(1.0, 12.0, n_nodes)
        spec, other = unit_spec(terms, coeffs="inv_sqrt"), unit_spec(terms, freq_rule=lambda k: 0.71 * k)
        got = _design_matrix(spec, nodes, workers, minus=other)
        assert got.tobytes() == (stacked_design(spec, nodes) - stacked_design(other, nodes)).tobytes()

    def test_many_workers_fill_disjoint_blocks(self):
        # more workers than cores and a short switch interval: every block
        # of a 20-block fill lands in its own rows, for the plain and the
        # differenced matrix alike
        nodes = np.linspace(0.0, 5.0, 4096)
        spec, other = unit_spec(40, coeffs="inv_sqrt"), unit_spec(40, freq_rule=lambda k: 0.71 * k)
        want = stacked_design(spec, nodes)
        want_diff = want - stacked_design(other, nodes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert _design_matrix(spec, nodes, 8).tobytes() == want.tobytes()
                assert _design_matrix(spec, nodes, 8, minus=other).tobytes() == want_diff.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_sizes_cross_block_boundaries(self):
        # the sizes above assume 128 terms of 64 nodes per block, 2 of 4096 and 1 of 8192
        assert _DESIGN_BLOCK // (2 * 64) == 128
        assert _DESIGN_BLOCK // (2 * 4096) == 2
        assert _DESIGN_BLOCK // (2 * 8192) == 1


class TestSharedDraws:
    """Several specs projected from one draw table."""

    SPEC = unit_spec(48, coeffs="inv_sqrt")
    GRID = GridSpec.uniform(1.0, 12.0, 705)  # 2000 reps span 6 chunks

    def companion(self):
        from supdev.cyclic import TestSequence, perp_process

        return perp_process(self.SPEC, TestSequence(kind="pow2"))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_separate_calls(self, workers):
        specs = [self.SPEC, self.companion(), unit_spec(48, freq_rule=lambda k: 0.31 * k)]
        thetas = [4.5, 5.5, 6.0]
        together = mc_sup_probs(specs, self.GRID, thetas, 2000, seed=21, workers=workers)
        assert len(_chunk_bounds(2000, self.GRID.n)) >= 4
        for spec, theta, est in zip(specs, thetas, together):
            alone = mc_sup_prob(spec, self.GRID, theta, 2000, seed=21, workers=1)
            assert (repr(est.estimate), repr(est.half_width)) == (repr(alone.estimate), repr(alone.half_width))

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(DomainError, match="term count"):
            mc_sup_probs([self.SPEC, unit_spec(47)], self.GRID, [1.0, 1.0], 100, seed=1)
        with pytest.raises(DomainError, match="threshold"):
            mc_sup_probs([self.SPEC], self.GRID, [1.0, 2.0], 100, seed=1)
        with pytest.raises(DomainError, match="threshold"):
            mc_sup_probs([], self.GRID, [], 100, seed=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transfer_pair_draws_once_per_chunk(self, monkeypatch, workers):
        from supdev import harness, mc

        cfg = harness.default_config("cyclic-transfer")
        p = cfg.params
        n_nodes = int(math.ceil((p["U"] - 1.0) * p["grid_per_unit"])) + 1
        chunks = _chunk_bounds(2000, n_nodes)
        assert len(chunks) >= 4
        calls = []
        lock = threading.Lock()

        def counting(seed, rep_start, n_reps, draws_per_rep):
            with lock:
                calls.append((rep_start, rep_start + n_reps))
            return normal_draws(seed, rep_start, n_reps, draws_per_rep)

        monkeypatch.setattr(mc, "normal_draws", counting)
        harness._transfer_pieces(p, 2000, 5, workers)
        assert sorted(calls) == chunks


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


def test_chunking_stays_in_mc():
    """Only ``mc`` splits replications into chunks, draws and runs the pool;
    every other module goes through its per-replication map."""
    private = {"normal_draws", "_chunk_bounds", "_executor", "_map_chunks"}
    others = [path for path in Path(supdev.__file__).parent.glob("*.py") if path.name != "mc.py"]
    assert "decoupling.py" in {path.name for path in others}
    for path in sorted(others):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert not names & private, (path.name, sorted(names & private))


def test_one_thread_pool():
    """Only ``mc`` builds a pool: the scans and estimators elsewhere share its
    cached executors through ``ordered_map``."""
    pools = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
    for path in sorted(Path(supdev.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert bool(names & pools) == (path.name == "mc.py"), path.name


def test_lru_cache_only_where_allowed():
    """Each object computes its values where it lives: the only memoized
    functions are the per-worker-count thread pool and the Gauss-Hermite
    rule, and no call wraps a function in a cache."""
    cached = set()
    for path in sorted(Path(supdev.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses = {
            id(node)
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "lru_cache")
            or (isinstance(node, ast.Attribute) and node.attr == "lru_cache")
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits = {id(sub) for dec in node.decorator_list for sub in ast.walk(dec)} & uses
                if hits:
                    cached.add(f"{path.stem}.{node.name}")
                    uses -= hits
        if uses:
            cached.add(f"{path.stem}.<call>")
    assert cached == {"mc._executor", "decoupling._hermegauss"}


def test_no_verdict_switches():
    """Verdicts are decided once, by the harness rows: no public callable in
    supdev (function, class or public method) takes a switch that turns a
    comparison into a raise, and the row cushion is not settable."""
    switches = {"check", "assert_lower_bounds", "arm_threshold"}
    found = set()
    for info in pkgutil.iter_modules(supdev.__path__):
        module = importlib.import_module(f"supdev.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj}
            if isinstance(obj, type):
                members.update(
                    (f"{name}.{attr}", member)
                    for attr, member in inspect.getmembers(obj, callable)
                    if not attr.startswith("_")
                )
            for qual, member in members.items():
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                found.update(f"{module.__name__}.{qual}({p})" for p in params if p in switches)
    assert found == set()
    assert "cushion" not in inspect.signature(harness._row_from_estimate).parameters


class TestGridBudget:
    def test_node_count_over_budget_raises_before_allocating(self):
        with pytest.raises(BudgetError, match=f"grid of {GRID_BUDGET + 1} nodes exceeds"):
            GridSpec.uniform(1.0, 2.0, GRID_BUDGET + 1).nodes()
        with pytest.raises(BudgetError, match="nodes exceeds"):
            GridSpec.lattice(1.0, GRID_BUDGET + 1).nodes()

    def test_design_matrix_over_budget_raises(self):
        # 2 * 4096 rows: 4096 nodes fill the budget exactly, one more exceeds it
        spec = unit_spec(4096)
        assert 2 * 4096 * 4096 == GRID_BUDGET
        with pytest.raises(BudgetError, match=r"design matrix 2\*4096 x 4097 exceeds"):
            _design_matrix(spec, np.linspace(0.0, 1.0, 4097))
        with pytest.raises(BudgetError, match="design matrix"):
            mc_sup_prob(spec, GridSpec.uniform(0.0, 1.0, 4097), 1.0, 10, seed=0)


class TestCovarianceBudget:
    """A covariance of dimension n with n^2 > GRID_BUDGET raises BudgetError
    before its matrix (or its index matrix) is allocated."""

    def test_huge_dimensions_raise(self, deadline):
        with pytest.raises(BudgetError, match=r"dimension 1000000 \(1000000000000 entries\) exceeds"):
            CovarianceSpec.stationary(np.exp(-0.5 * np.arange(10**6)))
        with pytest.raises(BudgetError, match="dimension 1000000 "):
            CovarianceSpec.equicorrelated(10**6, 0.2)
        with pytest.raises(BudgetError, match="dimension 4000000 "):
            CovarianceSpec.block(10**6, 4, 0.5, 0.1)

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(mc, "GRID_BUDGET", 16)
        assert CovarianceSpec.stationary([1.0, 0.5, 0.2, 0.1]).n == 4
        assert CovarianceSpec.block(2, 2, 0.5, 0.1).n == 4
        with pytest.raises(BudgetError, match=r"dimension 5 \(25 entries\) exceeds 16"):
            CovarianceSpec.stationary([1.0, 0.5, 0.2, 0.1, 0.0])
        with pytest.raises(BudgetError, match="dimension 5 "):
            CovarianceSpec.equicorrelated(5, 0.1)


_EQUI3 = CovarianceSpec.equicorrelated(3, 0.2)
_GRID = GridSpec.uniform(0.0, 1.0, 5)
ENTRY_POINTS = {
    "mc_sup_prob": lambda reps, seed: mc_sup_prob(unit_spec(4), _GRID, 1.0, reps, seed),
    "mc_vector_sup_prob": lambda reps, seed: mc_vector_sup_prob(_EQUI3, 1.0, reps, seed),
    "mc_expected_sup_path": lambda reps, seed: mc_expected_sup_path(unit_spec(4), _GRID, reps, seed),
    "mc_expected_sup_diff": lambda reps, seed: mc_expected_sup_diff(
        unit_spec(4), unit_spec(4, freq_rule=lambda k: 0.71 * k), _GRID, reps, seed
    ),
    "mc_expected_sup_vector": lambda reps, seed: mc_expected_sup_vector(_EQUI3, reps, seed),
    "verify_decoupling_mc": lambda reps, seed: verify_decoupling_mc(
        _EQUI3, 2.0 * decoupling_coeff_vector(_EQUI3).p_value, 2.0, [(0.0, math.inf)] * 3, reps, seed
    ),
    "verify_gebelein_nelson": lambda reps, seed: verify_gebelein_nelson(0.3, "identity", reps, seed),
}


@pytest.mark.parametrize("reps,seed", [(0, 1), (-3, 1), (100, -1), (100, 2**64)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_reps_and_seeds(entry, reps, seed):
    """Replication counts below 1 and seeds outside [0, 2^64) are domain
    errors at every Monte Carlo entry point, not ZeroDivision or Overflow."""
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](reps, seed)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_extreme_seeds(entry):
    """The valid neighbours of the cases above run, so those fail on reps or seed alone."""
    for seed in (0, 2**64 - 1):
        ENTRY_POINTS[entry](100, seed)


def test_bad_seed_raised_from_a_worker_thread():
    with pytest.raises(DomainError, match="seed"):
        mc_vector_sup_prob(_EQUI3, 1.0, 3 * CHUNK_REPS, -1, workers=2)
