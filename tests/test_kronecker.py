import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdev import harness, kronecker
from supdev.bounds import bound_equicorrelated
from supdev.errors import BudgetError, DomainError
from supdev.kronecker import (
    ENUM_BUDGET,
    LatticeProblem,
    bound_cos_lattice,
    divergence_partial_sums,
    lattice_correlation,
    lattice_search,
    limsup_exponential_sum,
    nearest_int_dist,
    solution_count,
    solution_k,
    xi,
)
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec, power_sum


def lat_problem(lambdas, betas, omega=10, h=1.0, interval=(1.0, 1000.0), c_o=0.125):
    return LatticeProblem(
        lambdas=tuple(lambdas), betas=tuple(betas), omega=omega, h=h, interval=interval, c_o=c_o
    )


def counted(problem, C=1.0):
    """``solution_count`` on the problem's own lattice search and Xi report."""
    return solution_count(problem, lattice_search(problem), xi(problem), C=C)


def brute_force_xi(problem, radius):
    """Reference Xi: every row nu_1 = -m..m evaluated exactly, in scan order."""
    m, n = radius, problem.n_freq
    lam = np.asarray(problem.lambdas, dtype=float)
    side = np.arange(-m, m + 1)
    if n == 1:
        inner = np.zeros(1)
        combos = np.zeros((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*([side] * (n - 1)), indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
        inner = combos @ lam[1:]
    best, best_vec = math.inf, None
    for nu1 in side:
        dists = nearest_int_dist(problem.h * (nu1 * lam[0] + inner))
        if nu1 == 0:
            nonzero = np.any(combos != 0, axis=1) if n > 1 else np.zeros(1, dtype=bool)
            dists = np.where(nonzero, dists, math.inf)
        i = int(np.argmin(dists))
        if dists[i] < best:
            best = float(dists[i])
            best_vec = (int(nu1), *map(int, combos[i])) if n > 1 else (int(nu1),)
    return best, best_vec


def full_scan(problem):
    """Reference lattice search: every point against every frequency at once.
    Returns (t_best, achieved, m_best, lattice_size, hits)."""
    m_lo = max(0, int(math.ceil(problem.interval[0] / problem.h - 1e-12)))
    m_hi = int(math.floor(problem.interval[1] / problem.h + 1e-12))
    ms = np.arange(m_lo, m_hi + 1)
    ts = problem.h * ms
    dist = nearest_int_dist(np.outer(ts, problem.lambdas) - np.asarray(problem.betas)).max(axis=1)
    i = int(np.argmin(dist))
    hits = ts[dist <= 1.0 / problem.omega]
    return problem.h * int(ms[i]), float(dist[i]), int(ms[i]), ms.size, hits


def assert_same_search(res, ref):
    assert (res.t_best, res.achieved, res.m_best, res.lattice_size) == ref[:4]
    assert np.array_equal(res.hits, ref[4])


# rationals p/q make exact ties (xi == 0, equal distances at many points);
# floats stand in for generic, rationally independent frequencies
_reals = st.one_of(
    st.floats(0.05, 8.0),
    st.builds(lambda p, q: p / q, st.integers(-12, 12), st.integers(1, 6)),
)


@st.composite
def lattice_problems(draw):
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 0.5, 0.25, 0.37, 2.0]))
    lo = draw(st.floats(0.0, 50.0))
    length = draw(st.floats(2.0 * h, 3000.0 * h))  # up to 3000 lattice points
    return lat_problem(
        lambdas=draw(st.lists(_reals, min_size=n, max_size=n)),
        betas=draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5])),
                            min_size=n, max_size=n)),
        omega=draw(st.integers(1, 60)),
        h=h,
        interval=(lo, lo + length),
    )


# h*lambda at these distances from an integer: a still, slow or fast rotation,
# and the exact half turn where the reflection of the rotation is a tie
_turn_offsets = st.sampled_from([0.0, 1e-9, 3e-6, 1e-4, 0.01, 0.2, 0.49, 0.5 - 1e-9, 0.5, 0.5 + 1e-9])


@st.composite
def long_lattice_problems(draw):
    """Lattices of 10^4-10^5 points, long enough for the candidate path:
    rotations near 0 and near or at 1/2, negative frequencies, targets near
    +-1/2, phases up to near 2^52, and omega up to 600, where 3 frequencies
    on 10^4 points usually have no hit and the threshold widens."""
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 0.5, 2.0, 0.37]))
    lambdas = []
    for _ in range(n):
        lam = draw(st.one_of(st.floats(0.05, 8.0), st.builds(lambda k, d: (k + d) / h, st.integers(0, 6), _turn_offsets)))
        lambdas.append(draw(st.sampled_from([lam, -lam])))
    betas = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.5, -0.5, 0.5 - 1e-12, -0.5 + 1e-12])),
                          min_size=n, max_size=n))
    length = draw(st.integers(10**4, 10**5)) * h
    lo = draw(st.floats(0.0, 50.0))
    phase = draw(st.sampled_from([None, 2.0**30, 2.0**44, 2.0**47, 2.0**51.9]))
    lam_max = max(map(abs, lambdas))
    if phase is not None and lam_max > 0.0:
        lo = max(lo, min(phase, 2.0**51.9 / h) / lam_max - length)
    return lat_problem(lambdas, betas, omega=draw(st.one_of(st.integers(2, 60), st.integers(200, 600))), h=h,
                       interval=(lo, lo + length))


def candidate_sizes(monkeypatch):
    """Record the size of every candidate list lattice_search builds."""
    sizes = []
    real = kronecker._candidates

    def counting(*args):
        out = real(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(kronecker, "_candidates", counting)
    return sizes


def raw_spec(coeffs, lambdas):
    return PolynomialSpec(
        coeffs=CoefficientSeq.from_values(coeffs, nonvanishing=True),
        freqs=FrequencySeq.reals(lambdas),
        y=1,
        x=len(coeffs),
        convention="raw",
    )


class TestNearestIntDist:
    def test_basic(self):
        assert nearest_int_dist(1.4) == pytest.approx(0.4)
        assert nearest_int_dist(-0.3) == pytest.approx(0.3)
        assert nearest_int_dist(2.0) == 0.0

    def test_half_ties_round_even(self):
        assert nearest_int_dist(0.5) == 0.5
        assert nearest_int_dist(1.5) == 0.5


class TestXi:
    def test_integer_frequency_degenerate(self):
        rep = xi(lat_problem([1.0], [0.0]), radius=10)
        assert rep.xi == 0.0
        assert rep.degenerate
        assert rep.argmin == (-10,)  # scan order: lexicographically smallest

    def test_sqrt2_enumeration(self):
        rep = xi(lat_problem([math.sqrt(2.0)], [0.0]), radius=10)
        assert rep.xi == pytest.approx(0.07106781186547524, rel=1e-12)
        assert rep.argmin in ((-5,), (5,))  # |nu|=5 achieves it; -5 scans first
        assert rep.argmin == (-5,)

    def test_beta_does_not_enter(self):
        a = xi(lat_problem([math.sqrt(2.0), math.sqrt(3.0)], [0.1, 0.9]), radius=6)
        b = xi(lat_problem([math.sqrt(2.0), math.sqrt(3.0)], [0.7, 0.2]), radius=6)
        assert a.xi == b.xi and a.argmin == b.argmin

    def test_matches_reverse_enumeration(self):
        lam = (math.sqrt(2.0), math.sqrt(3.0))
        rep = xi(lat_problem(lam, (0.0, 0.0)), radius=8)
        best = math.inf
        for n2 in range(8, -9, -1):
            for n1 in range(8, -9, -1):
                if n1 == 0 and n2 == 0:
                    continue
                v = abs(n1 * lam[0] + n2 * lam[1])
                d = abs(v - round(v))
                best = min(best, d)
        assert rep.xi == pytest.approx(best, abs=1e-15)

    def test_default_radius_formula(self):
        prob = lat_problem([math.sqrt(2.0)], [0.0], omega=10, c_o=0.125)
        assert prob.radius() == int(math.floor(60.0 * math.log(80.0)))

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            xi(lat_problem([1.1, 1.2, 1.3], [0, 0, 0]), radius=5000)

    def test_rational_ties_break_to_scan_order(self):
        # nu_1/2 + nu_2/4 is an integer on many vectors: the first in scan order wins
        rep = xi(lat_problem([0.5, 0.25], [0.0, 0.0]), radius=6)
        assert rep.xi == 0.0 and rep.degenerate
        assert rep.argmin == (-6, -4)
        assert (rep.xi, rep.argmin) == brute_force_xi(lat_problem([0.5, 0.25], [0.0, 0.0]), 6)

    @given(lattice_problems(), st.integers(1, 200), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, problem, radius, scale):
        problem = lat_problem(problem.lambdas, problem.betas, h=problem.h * scale, interval=(0.0, 1e9))
        radius = min(radius, {1: 200, 2: 40, 3: 12}[problem.n_freq])
        rep = xi(problem, radius=radius)
        assert (rep.xi, rep.argmin) == brute_force_xi(problem, radius)
        assert rep.degenerate == (rep.xi == 0.0) and rep.radius == radius


class TestLatticeSearch:
    @pytest.mark.parametrize("interval", [(1.0, math.inf), (1.0, math.nan), (-math.inf, 10.0)])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(DomainError, match="finite"):
            lat_problem([math.sqrt(2.0)], [0.25], interval=interval)

    def test_homogeneous_targets_hit_zero(self):
        prob = lat_problem([math.sqrt(2.0), math.sqrt(3.0)], [0.0, 0.0], interval=(0.0, 50.0))
        res = lattice_search(prob)
        assert res.t_best == 0.0 and res.achieved == 0.0
        assert 0.0 in res.hits

    def test_sqrt2_midpoint_target(self):
        prob = lat_problem([math.sqrt(2.0)], [0.5], omega=10, interval=(1.0, 100.0))
        res = lattice_search(prob)
        assert res.achieved <= 0.1
        # independent rescan
        best = min(
            max(abs(m * math.sqrt(2.0) - 0.5 - round(m * math.sqrt(2.0) - 0.5)), 0.0)
            for m in range(1, 101)
        )
        assert res.achieved == pytest.approx(best, abs=1e-15)

    def test_hits_are_exactly_the_qualifying_points(self):
        prob = lat_problem([math.sqrt(2.0)], [0.5], omega=8, interval=(1.0, 400.0))
        res = lattice_search(prob)
        expect = [
            float(m)
            for m in range(1, 401)
            if abs(m * math.sqrt(2.0) - 0.5 - round(m * math.sqrt(2.0) - 0.5)) <= 0.125
        ]
        assert res.hits.tolist() == expect

    def test_doubling_omega_nests_hits(self):
        lam, bet = [math.sqrt(2.0), math.sqrt(5.0)], [0.3, 0.6]
        wide = lattice_search(lat_problem(lam, bet, omega=5, interval=(1.0, 3000.0)))
        tight = lattice_search(lat_problem(lam, bet, omega=10, interval=(1.0, 3000.0)))
        assert set(tight.hits.tolist()) <= set(wide.hits.tolist())

    @given(lattice_problems(), st.sampled_from([7, 64, 1 << 14]))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, problem, chunk):
        with mock.patch.object(kronecker, "_SCAN_CHUNK", chunk):
            res = lattice_search(problem)
        assert_same_search(res, full_scan(problem))

    @pytest.mark.parametrize("lambdas,betas", [([0.5], [0.25]), ([0.5, math.sqrt(2.0)], [0.25, 0.1])])
    def test_no_hit_lattice_widens(self, monkeypatch, lambdas, betas):
        # ||m/2 - 1/4|| = 1/4 > 1/omega at every point: no candidate passes
        # the first filter, and the minimum ties everywhere in one dimension
        monkeypatch.setattr(kronecker, "_SCAN_CHUNK", 16)
        prob = lat_problem(lambdas, betas, omega=10, interval=(3.0, 500.0))
        res = lattice_search(prob)
        assert res.hits.size == 0 and res.achieved >= 0.25
        assert_same_search(res, full_scan(prob))

    @given(long_lattice_problems(), st.sampled_from([7, 1 << 14]), st.sampled_from([64, 1000, 1 << 17]),
           st.sampled_from([1, 3, 32]))
    @settings(max_examples=150, deadline=None)
    def test_long_lattices_match_full_scan(self, problem, chunk, window, max_step):
        with mock.patch.multiple(kronecker, _SCAN_CHUNK=chunk, _SEARCH_WINDOW=window, _MAX_STEP=max_step):
            res = lattice_search(problem)
        assert_same_search(res, full_scan(problem))

    @pytest.mark.parametrize(
        "lambdas, betas, omega, h",
        [
            ([0.5, math.sqrt(2.0)], [0.25, -0.5], 40, 1.0),  # h*lambda_1 exactly 1/2
            ([3.0 + 2e-5, -math.sqrt(3.0)], [0.5, 0.1], 30, 1.0),  # a slow rotation, a negative one
            ([1.0 / 0.37 + 0.3, 2.0], [-0.5 + 1e-12, 0.5 - 1e-12], 25, 0.37),  # targets near +-1/2
            ([math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)], [0.1, 0.2, 0.3], 500, 1.0),  # no hit: widens
        ],
    )
    def test_candidate_path_matches_full_scan(self, monkeypatch, lambdas, betas, omega, h):
        sizes = candidate_sizes(monkeypatch)
        prob = lat_problem(lambdas, betas, omega=omega, h=h, interval=(1.0, 6.0e4 * h))
        assert_same_search(lattice_search(prob), full_scan(prob))
        assert sizes

    def test_candidates_skip_most_points(self, monkeypatch):
        # a benchmark-sized 2-frequency search lists one candidate set per
        # block, together well under the lattice: a silent fallback to the
        # every-point scan lists none
        sizes = candidate_sizes(monkeypatch)
        prob = lat_problem([math.sqrt(2.0), math.sqrt(5.0)], [0.3, 0.7], omega=30, interval=(1.0, 5.0e5))
        res = lattice_search(prob)
        assert res.hits.size > 0
        assert len(sizes) == -(-res.lattice_size // kronecker._SEARCH_WINDOW)
        assert sum(sizes) < res.lattice_size / 4
        assert_same_search(res, full_scan(prob))

    @pytest.mark.parametrize(
        "lambdas, betas, omega, interval",
        [
            ([math.sqrt(2.0), math.sqrt(5.0), 0.71], [0.3, 0.7, 0.2], 5, (1.0, 5.0e5)),  # wide target
            ([2.0, -3.0], [0.3, 0.7], 30, (1.0, 5.0e4)),  # h*lambda integers: no rotation
            ([1.3, 2.1], [0.3, 0.7], 30, (2.0**51.5 / 2.1, 2.0**51.5 / 2.1 + 5.0e4)),  # e near 1/2
        ],
    )
    def test_every_point_path(self, monkeypatch, lambdas, betas, omega, interval):
        sizes = candidate_sizes(monkeypatch)
        prob = lat_problem(lambdas, betas, omega=omega, interval=interval)
        assert_same_search(lattice_search(prob), full_scan(prob))
        assert sizes == []

    def test_guarantee_regime_hits_the_target(self):
        # the interval is longer than the threshold set by Xi (0.01219 here,
        # threshold 8098), so the theorem promises a point within 1/omega
        prob = lat_problem([math.sqrt(2.0)], [0.3], omega=3, h=1.0, interval=(1.0, 1.0e5), c_o=0.2)
        lo, hi = prob.interval
        assert hi - lo > prob.length_threshold(xi(prob).xi)
        assert lattice_search(prob).achieved <= 1.0 / 3.0

    @pytest.mark.parametrize(
        "lambdas, betas, interval",
        [([1e300], [0.5], (1.0, 10.0)), ([1.0], [1e300], (1.0, 10.0)), ([2.0], [0.5], (1.0, 2.0**52)),
         ([math.nan], [0.5], (1.0, 10.0))],
    )
    def test_phases_without_fractional_bits_rejected(self, lambdas, betas, interval):
        # every lattice point would read as an exact hit
        with pytest.raises(DomainError, match="no fractional bits"):
            lat_problem(lambdas, betas, interval=interval)

    def test_phase_guard_reads_the_interval_not_the_step(self):
        # the interval holds t = h m itself, so the phases t lambda - beta
        # stay under 1.1 * (|lo| + 100) + 0.3 whatever h is: near 4.95e15 >
        # 2^52 with a short step (every point would read as an exact hit),
        # near 1.24e15 < 2^52 with a long one
        with pytest.raises(DomainError, match="no fractional bits"):
            lat_problem([1.1], [0.3], h=0.25, interval=(2.0**52, 2.0**52 + 100))
        problem = lat_problem([1.1], [0.3], h=4.0, interval=(2.0**50, 2.0**50 + 100))
        assert lattice_search(problem).lattice_size == 26

    def test_empty_lattice_rejected(self):
        # the nonnegative multiples of h miss a negative interval entirely
        with pytest.raises(DomainError):
            lattice_search(lat_problem([1.4], [0.0], h=0.25, interval=(-2.0, -1.0)))
        # interval shorter than h is rejected at construction
        with pytest.raises(DomainError):
            lat_problem([1.4], [0.0], h=0.6, interval=(0.1, 0.2))


class TestSolutionCount:
    def test_k_formula_frozen(self):
        assert solution_k(100.0) == 3  # 4 < 100, 45.25 < 100, 591.2 >= 100

    def test_k_formula_small_ratio(self):
        assert solution_k(3.9) == 1

    def test_count_positive_when_search_succeeds(self):
        prob = lat_problem([math.sqrt(2.0), math.sqrt(3.0)], [0.25, 0.75], omega=10, interval=(1.0, 20000.0))
        res = counted(prob)
        assert res.count >= 1
        assert res.k == solution_k(2 * 10 / 0.125)

    def test_count_monotone_in_interval(self):
        lam, bet = [math.sqrt(2.0)], [0.5]
        small = counted(lat_problem(lam, bet, omega=10, interval=(1.0, 500.0)))
        big = counted(lat_problem(lam, bet, omega=10, interval=(1.0, 1000.0)))
        assert big.count >= small.count

    def test_supplied_xi_is_not_recomputed(self, monkeypatch):
        prob = lat_problem([math.sqrt(2.0), math.sqrt(3.0)], [0.25, 0.75], omega=10, interval=(1.0, 5000.0))
        search, rep = lattice_search(prob), xi(prob)
        expect = solution_count(prob, search, rep)
        monkeypatch.setattr(kronecker, "xi", mock.Mock(side_effect=AssertionError("xi recomputed")))
        monkeypatch.setattr(kronecker, "lattice_search", mock.Mock(side_effect=AssertionError("search recomputed")))
        assert solution_count(prob, search, rep) == expect

    def test_kronecker_case_computes_xi_once(self, monkeypatch):
        spy = mock.Mock(wraps=xi)
        monkeypatch.setattr(kronecker, "xi", spy)
        monkeypatch.setattr(harness, "xi", spy)
        harness.run_experiment(harness.default_config("kronecker-search"), seed=0)
        assert spy.call_count == 1

    def test_lower_bounds_reported_not_asserted(self):
        prob = lat_problem([math.sqrt(2.0)], [0.5], omega=10, interval=(1.0, 200.0))
        res = counted(prob, C=1e6)  # absurd constant: bounds exceed count
        assert res.lower_ii > res.count

    @pytest.mark.parametrize("C", [0.0, -1e-300, -1.0, -1e300])
    def test_free_constant_must_be_positive(self, C):
        # C = -1 with three frequencies once gave a complex lower_iii
        prob = lat_problem(_ROOTS[:3], [0.25, 0.75, 0.5], omega=5, interval=(1.0, 2000.0))
        with pytest.raises(DomainError, match="free constant C=.* must be positive"):
            counted(prob, C=C)

    def test_bounds_past_the_float_range_read_inf(self):
        prob = lat_problem(_ROOTS[:3], [0.25, 0.75, 0.5], omega=5, interval=(1.0, 2000.0))
        res = counted(prob, C=1e300)
        assert res.lower_ii == math.inf and res.lower_iii == math.inf
        assert res.count == counted(prob).count


def single_thread_limsup(alphas, lambdas, start, step, M, c=2.0 * math.pi):
    """Reference: the one-thread loop over 2^21/N-row chunks that the pieced
    scan replaces, kept here verbatim."""
    a = np.asarray(alphas, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    running = np.empty(M)
    best = 0.0
    chunk = max(1, (1 << 21) // max(a.size, 1))
    for s in range(0, M, chunk):
        nu = (start + step * np.arange(s, min(s + chunk, M))).astype(float)
        vals = np.abs(np.exp(1j * c * np.outer(nu, lam)) @ a)
        seg = np.maximum.accumulate(vals)
        running[s : s + nu.size] = np.maximum(seg, best)
        best = float(running[s + nu.size - 1])
    return running, best


def single_thread_divergence(spec, a, js):
    """Reference: the one-thread loop over ladder rungs cut at 2^22/N rows
    that the pieced scan replaces, kept here verbatim."""
    a2 = power_sum(spec, 2)
    aa = spec.coeff_values() ** 2
    lam = spec.angular_freqs()
    sums = []
    running = 0.0
    chunk = max(1, (1 << 22) // max(lam.size, 1))
    cursor = 0
    for j_stop in js:
        while cursor <= j_stop:
            hi = min(cursor + chunk - 1, j_stop)
            jj = np.arange(cursor, hi + 1, dtype=float)
            running += float(np.sum(np.abs(np.cos(np.outer(jj * a, lam)) @ aa)))
            cursor = hi + 1
        sums.append(running / a2)
    return sums


_ROOTS = [math.sqrt(p) for p in (2, 3, 5, 7, 11, 13)]


def _pieces(rows, n_freq):
    return len(kronecker._cuts(0, rows, kronecker._PIECE_BLOCKS * kronecker._block_rows(n_freq)))


class TestScanPieces:
    """The pieced scans equal the one-thread loops byte for byte at every
    worker count.  With N = 3 (limsup) a piece is 10240 rows and a unit
    699050; with N = 4 (divergence) a piece is 8192 rows and a unit 2^20."""

    def test_pool_runs_only_in_the_kernel(self):
        # both scans fill their moduli through one kernel, the one place
        # kronecker hands work to the pool
        tree = ast.parse(Path(kronecker.__file__).read_text(encoding="utf-8"))

        def uses(node):
            return sum(isinstance(sub, ast.Name) and sub.id == "ordered_map" for sub in ast.walk(node))

        [kernel] = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "_abs_products"]
        assert uses(kernel) == uses(tree) == 1

    @pytest.mark.parametrize(
        "start,step,M",
        [
            (0, 1, 4 * 10240 + 1),  # one-row tail after four whole pieces
            (1, 3, 45_001),  # not a multiple of the piece size, step > 1
            (0, 2, 699_050 + 20_481),  # two units, the second ending in a one-row piece
        ],
    )
    def test_limsup_matches_single_thread_loop(self, start, step, M):
        alphas, lambdas = [1.0, 0.6, 1.3], _ROOTS[:3]
        assert _pieces(M, 3) >= 4
        running, final = single_thread_limsup(alphas, lambdas, start, step, M)
        for workers in (1, 2, 3):
            got_running, got_final = limsup_exponential_sum(alphas, lambdas, start, step, M, workers=workers)
            assert got_running.tobytes() == running.tobytes(), workers
            assert repr(got_final) == repr(final), workers

    @pytest.mark.parametrize(
        "coeffs,ladder",
        [
            ([1.0, 0.8, 0.6, 0.4], [0, 0, 5, 5, 8198, 40_000, 40_000]),  # J = 0, repeats, an 8193-row rung
            ([1.0, 0.8, 0.6, 0.4], [1000, 2000, 10_000, 20_000, 100_000, 200_000]),
            ([1.0] * 64, [3, 70_000]),  # 64 frequencies: the second rung exceeds 2^22/64 rows
        ],
    )
    def test_divergence_matches_single_thread_loop(self, coeffs, ladder):
        lambdas = [k + r for k in range(len(coeffs) // len(_ROOTS) + 1) for r in _ROOTS][: len(coeffs)]
        spec = raw_spec(coeffs, sorted(lambdas))
        assert ladder[-1] + 1 > 4 * kronecker._block_rows(len(coeffs)) * kronecker._PIECE_BLOCKS
        sums = single_thread_divergence(spec, 0.9, ladder)
        for workers in (1, 2, 3):
            got = divergence_partial_sums(spec, 0.9, ladder, workers=workers)
            assert [repr(v) for v in got] == [repr(v) for v in sums], workers

    @pytest.mark.parametrize("n_freq", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pieced_products_equal_one_product(self, n_freq, dtype):
        # the scans' outputs (a running maximum, long sums) can hide a last-bit
        # change in one row, so compare the row values themselves
        rng = np.random.default_rng(n_freq)
        block = kronecker._block_rows(n_freq)
        piece = block * kronecker._PIECE_BLOCKS
        for rows in (1, 2, block + 1, piece + 1, 4 * piece + block + 1, 4 * piece + 3):
            matrix = rng.standard_normal((rows, n_freq)).astype(dtype)
            vector = rng.uniform(0.2, 1.5, n_freq)
            got = kronecker._abs_products(lambda s, e: matrix[s:e], vector, 0, rows, np.empty(rows), 2)
            assert got.tobytes() == np.abs(matrix @ vector).tobytes(), rows

    @given(
        st.integers(1, 6),
        st.integers(0, 5),
        st.integers(1, 4),
        st.integers(1, 3000),
        st.lists(st.integers(0, 3000), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_pieces_match(self, n, start, step, M, ladder):
        # one 64-row block per piece: many pieces, many one-row tails
        with mock.patch.object(kronecker, "_PIECE_BLOCKS", 1), mock.patch.object(kronecker, "_GEMV_VALUES", 64):
            ref_running, ref_final = single_thread_limsup([0.9] * n, _ROOTS[:n], start, step, M)
            spec = raw_spec([0.9] * n, _ROOTS[:n])
            ref_sums = single_thread_divergence(spec, 1.1, sorted(ladder))
            for workers in (1, 3):
                running, final = limsup_exponential_sum([0.9] * n, _ROOTS[:n], start, step, M, workers=workers)
                assert running.tobytes() == ref_running.tobytes() and final == ref_final
                assert divergence_partial_sums(spec, 1.1, sorted(ladder), workers=workers) == ref_sums


class TestLimsup:
    def test_single_term_constant_modulus(self):
        running, final = limsup_exponential_sum([1.0], [math.sqrt(2.0)], 1, 1, 200)
        assert final == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(running, 1.0)

    def test_two_terms_approach_total(self):
        _, final = limsup_exponential_sum([1.0, 1.0], [math.sqrt(2.0), math.sqrt(3.0)], 1, 1, 100000)
        assert final >= 1.99

    def test_triangle_inequality_cap(self):
        running, final = limsup_exponential_sum([0.5, 0.7], [math.sqrt(2.0), math.sqrt(3.0)], 1, 1, 5000)
        assert final <= 1.2 + 1e-12
        assert np.all(np.diff(running) >= 0.0)

    def test_ladder_monotone(self):
        lam = [math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)]
        finals = [limsup_exponential_sum([1.0] * 3, lam, 1, 1, m)[1] for m in (100, 1000, 10000)]
        assert finals[0] <= finals[1] <= finals[2]

    def test_both_phase_conventions(self):
        run_a, _ = limsup_exponential_sum([1.0, 1.0], [math.sqrt(2.0), math.sqrt(3.0)], 1, 1, 500, "2pi")
        run_b, _ = limsup_exponential_sum([1.0, 1.0], [math.sqrt(2.0), math.sqrt(3.0)], 1, 1, 500, "2")
        assert not np.allclose(run_a, run_b)  # genuinely different scalings

    def test_progression_start_step(self):
        run_all, _ = limsup_exponential_sum([1.0], [0.3], 0, 1, 10)
        run_odd, _ = limsup_exponential_sum([1.0], [0.3], 1, 2, 5)
        assert run_odd.size == 5 and run_all.size == 10

    @pytest.mark.parametrize("alphas, lambdas", [([1.0, math.nan], [1.4, 1.7]), ([1.0, 1.0], [1.4, math.inf])])
    def test_non_finite_inputs_rejected(self, alphas, lambdas):
        with pytest.raises(DomainError, match="finite"):
            limsup_exponential_sum(alphas, lambdas, 1, 1, 100)


class TestDivergence:
    def test_quarter_period_pattern(self):
        # lambda a = pi/2: |cos(j pi/2)| = 1, 0, 1, 0, ... so S_J ~ J/2
        spec = raw_spec([1.0], [math.pi / 2.0])
        sums = divergence_partial_sums(spec, a=1.0, js=[100, 200])
        assert sums[0] == pytest.approx(51.0)  # j = 0..100: 51 even indices
        assert sums[1] == pytest.approx(101.0)

    def test_nondecreasing_in_J(self):
        spec = raw_spec([1.0, 0.5], [math.sqrt(2.0), math.sqrt(3.0)])
        sums = divergence_partial_sums(spec, a=1.0, js=[10, 100, 1000])
        assert sums[0] <= sums[1] <= sums[2]

    def test_scale_invariance(self):
        lam = [math.sqrt(2.0), math.sqrt(3.0)]
        s1 = divergence_partial_sums(raw_spec([1.0, 0.5], lam), a=1.0, js=[500])
        s2 = divergence_partial_sums(raw_spec([3.0, 1.5], lam), a=1.0, js=[500])
        assert s1[0] == pytest.approx(s2[0], rel=1e-12)

    def test_requires_nonvanishing_flag(self):
        spec = PolynomialSpec(
            coeffs=CoefficientSeq.from_values([1.0, 0.5]),
            freqs=FrequencySeq.reals([math.sqrt(2.0), math.sqrt(3.0)]),
            y=1,
            x=2,
            convention="raw",
        )
        with pytest.raises(DomainError):
            divergence_partial_sums(spec, a=1.0, js=[10])


class TestLatticeCorrelation:
    @staticmethod
    def _find_admissible_points(lam, beta, omega, count=4, mix_parity=False):
        # scripted scan for points passing |sin(lambda t - beta)| <= 1/omega
        pts, parities = [], set()
        t = 0.0
        while len(pts) < count and t < 5e6:
            t += 0.37
            dev = [abs(math.sin(l * t - beta)) for l in lam]
            if max(dev) <= 1.0 / omega:
                par = tuple(int(round((l * t - beta) / math.pi)) % 2 for l in lam)
                if mix_parity and par in parities and len(pts) >= 1:
                    continue
                parities.add(par)
                pts.append(t)
        return pts

    def test_single_point_no_offdiagonal(self):
        lam = [math.sqrt(2.0)]
        beta, omega, c = 0.3, 100, 0.6
        pts = self._find_admissible_points(lam, beta, omega, count=1)
        assert pts
        res = lattice_correlation(raw_spec([1.0], lam), 1.0, omega, beta, c, pts)
        assert res.max_offdiag_corr == -math.inf
        assert res.var_ratio_min == pytest.approx(math.cos(lam[0] * pts[0]) ** 2, rel=1e-9)

    def test_filter_rejects_far_points(self):
        lam = [math.sqrt(2.0)]
        with pytest.raises(DomainError, match="filter"):
            lattice_correlation(raw_spec([1.0], lam), 1.0, 100, 0.3, 0.6, [0.123])

    def test_variance_floor_structurally_fails(self):
        # admissibility forces beta^2 > 6/omega while the floor needs
        # sin(beta)^2 <= 2/omega, so the computed ratio sits near cos(beta)^2
        # below eta
        lam = [math.sqrt(2.0), math.sqrt(3.0)]
        beta, omega, c = 0.35, 60, 0.6
        pts = self._find_admissible_points(lam, beta, omega, count=2, mix_parity=True)
        assert len(pts) == 2
        spec = raw_spec([1.0, 0.8], lam)
        res = lattice_correlation(spec, 1.0, omega, beta, c, pts)
        eta = 1.0 - 2.0 / omega
        assert res.eta == pytest.approx(eta)
        assert res.var_ratio_min == pytest.approx(math.cos(beta) ** 2, abs=0.05)
        assert res.var_ratio_min < res.eta

    def test_mixed_parity_points_pass_cap(self):
        lam = [math.sqrt(2.0), math.sqrt(3.0)]
        beta, omega, c = 0.35, 60, 0.6
        pts = self._find_admissible_points(lam, beta, omega, count=2, mix_parity=True)
        res = lattice_correlation(raw_spec([1.0, 0.8], lam), 1.0, omega, beta, c, pts)
        assert res.max_offdiag_corr <= res.eta

    def test_precondition_names(self):
        lam = [math.sqrt(2.0)]
        spec = raw_spec([1.0], lam)
        with pytest.raises(DomainError, match="c="):
            lattice_correlation(spec, 1.0, 100, 0.3, 0.9, [1.0])
        with pytest.raises(DomainError, match="omega"):
            lattice_correlation(spec, 1.0, 3, 0.3, 0.6, [1.0])

    @pytest.mark.parametrize("beta", [0.0, 1e-300, -1e-300])
    def test_vanishing_beta_needs_an_infinite_omega(self, beta):
        spec = raw_spec([1.0], [math.sqrt(2.0)])
        with pytest.raises(DomainError, match=r"12 pi / \(c \(pi beta\)\^2\) = inf"):
            lattice_correlation(spec, 1.0, 100, beta, 0.6, [1.0])


class TestBoundCosLattice:
    def test_eta_to_zero_matches_independent_product(self):
        from scipy.special import ndtr

        rep = bound_cos_lattice(4, 1e-13, 1.2)
        assert rep.value == pytest.approx(float(ndtr(1.2)) ** 4, rel=1e-9)

    def test_frozen_m2(self):
        rep = bound_cos_lattice(2, 0.5, 1.0)
        assert rep.value == pytest.approx(0.8890843633008226, rel=1e-12)

    def test_relation_to_equicorrelated_bound(self):
        # same Gaussian-comparison formula up to the (1 + eta(m-1))^{(m-1)/2}
        # prefactor carried by the equicorrelated version
        m, eta, kappa = 5, 0.3, 1.7
        a = bound_cos_lattice(m, eta, kappa).value
        b = bound_equicorrelated(m, eta, kappa).value
        assert b == pytest.approx(a * (1 + eta * (m - 1)) ** ((m - 1) / 2.0), rel=1e-12)

    def test_threshold_reported_with_mass(self):
        rep = bound_cos_lattice(3, 0.4, 2.0, total_a2=4.0)
        assert rep.threshold == pytest.approx(0.4 * 2.0 * 2.0)


class TestDivergenceBudget:
    """A divergence scan of (largest J + 1) * N values over ENUM_BUDGET
    raises BudgetError before any term is evaluated."""

    SPEC = PolynomialSpec(
        coeffs=CoefficientSeq.from_values([1.0, 0.8, 0.6, 0.4], nonvanishing=True),
        freqs=FrequencySeq.reals([2**0.5, 3**0.5, 5**0.5, 7**0.5]),
        y=1,
        x=4,
        convention="raw",
    )

    def test_huge_ladder_raises_before_any_term(self, monkeypatch, deadline):
        monkeypatch.setattr(kronecker, "ordered_map", mock.Mock(side_effect=AssertionError("term evaluated")))
        with pytest.raises(BudgetError, match=rf"\(2000000000000 \+ 1\)\*4 exceeds {ENUM_BUDGET}"):
            divergence_partial_sums(self.SPEC, 1.0, [10**12, 2 * 10**12])

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(kronecker, "ENUM_BUDGET", 40)
        assert len(divergence_partial_sums(self.SPEC, 1.0, [4, 9])) == 2  # (9 + 1) * 4 = 40
        with pytest.raises(BudgetError, match=r"\(10 \+ 1\)\*4 exceeds 40"):
            divergence_partial_sums(self.SPEC, 1.0, [10])
