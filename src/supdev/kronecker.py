"""Lattice-localized simultaneous approximation and exponential-sum scans.

Given frequencies lambda_1..lambda_N, the obstruction scale Xi is the
smallest distance to the nearest integer of h * sum(lambda_l nu_l) over
nonzero integer vectors with sup-norm at most floor(6 omega log(N omega /
C_o)).  When Xi > 0 and the scan interval is long enough, every target
vector is approximated to 1/omega by some lattice point t in I intersected
with h*N, and the number of such points admits explicit lower bounds.  The
same machinery drives the running-maximum law for |sum alpha_k e^{i c nu
lambda_k}| along arithmetic progressions and the divergence of the
normalized absolute-covariance series.  Both exponential-sum scans turn
exact phases taken every few hundred rows through one rotation table,
built once per call (``_rotated_sums``): the running-maximum scan walks
the rows in blocks of a few thousand, uses the rotated moduli to pick the
rows that can hold a new maximum and evaluates only those exactly, each by
its own N-term sum, and returns the records of the maximum; the divergence
scan adds the rotated sums' real parts.
Every function here runs on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._normal import ndtr
from .bounds import BoundReport, _free_constant, _log, _product
from .errors import BudgetError, DomainError
from .spectrum import PolynomialSpec, variance

__all__ = [
    "LatticeCorrelation",
    "LatticeProblem",
    "LatticeSearch",
    "LimsupRecords",
    "SolutionCount",
    "XiReport",
    "bound_cos_lattice",
    "divergence_partial_sums",
    "lattice_correlation",
    "lattice_search",
    "limsup_exponential_sum",
    "limsup_records",
    "nearest_int_dist",
    "solution_count",
    "xi",
]

ENUM_BUDGET = 10**8  # hard cap on enumeration sizes (desk scale)
# lattice points per every-point lattice_search block, cache-resident (_SEARCH_WINDOW: same bytes, N = 3 136 -> 175 ms)
_SCAN_CHUNK = 1 << 14
_SEARCH_WINDOW = 1 << 17  # lattice points per candidate lattice_search block
_SPARSE_SHARE = 0.35  # candidate share of a block at which lattice_search evaluates every point
_MAX_STEP = 32  # largest step q of the rotations lattice_search filters on
_ROTATION_ROWS = 512  # rows per rotation table of the exponential-sum scans
_SCAN_ROWS = 1 << 12  # rows per limsup block, a multiple of _ROTATION_ROWS: 64 KiB of complex sums
_SUM_ROWS = 1 << 16  # rows per divergence summation unit: a 1 MiB complex temporary


def nearest_int_dist(u) -> np.ndarray:
    """Distance to the nearest integer, |u - round(u)| (round-half-to-even;
    exact ties are measure zero)."""
    u = np.asarray(u, dtype=float)
    return np.abs(u - np.round(u))


def _check_phases(value: float) -> None:
    """Reject phases of size ``value`` (or NaN) at or past 2^52: no fractional bits left."""
    if not value < 2.0**52:
        raise DomainError(f"phases up to {value:.4g} leave a float no fractional bits (need < 2^52)")


@dataclass(frozen=True)
class LatticeProblem:
    """Approximation targets: frequencies, targets, precision 1/omega,
    lattice step h, scan interval, and the free constant C_o < 1/4.  The
    phases t lambda_j - beta_j over the interval must stay below 2^52 in
    size, where a float still has fractional bits to measure."""

    lambdas: tuple
    betas: tuple
    omega: int
    h: float
    interval: tuple
    c_o: float = 0.125

    def __post_init__(self):
        if len(self.lambdas) < 1:
            raise DomainError("need at least one frequency")
        if len(self.betas) != len(self.lambdas):
            raise DomainError(f"{len(self.betas)} targets for {len(self.lambdas)} frequencies")
        if self.omega < 1:
            raise DomainError(f"omega={self.omega} must be a positive integer")
        if self.h <= 0.0:
            raise DomainError(f"h={self.h} must be positive")
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"interval [{lo}, {hi}] must be finite")
        if hi - lo <= self.h:
            raise DomainError(f"interval length {hi - lo} must exceed h={self.h}")
        _check_phases(max(map(abs, self.lambdas)) * max(abs(lo), abs(hi)) + max(map(abs, self.betas)))
        if not 0.0 < self.c_o < 0.25:
            raise DomainError(f"c_o={self.c_o} outside (0, 1/4)")

    @property
    def n_freq(self) -> int:
        return len(self.lambdas)

    def radius(self) -> int:
        """Enumeration radius floor(6 omega log(N omega / C_o))."""
        return int(math.floor(6.0 * self.omega * math.log(self.n_freq * self.omega / self.c_o)))

    def length_threshold(self, xi_value: float) -> float:
        """Interval length above which the 1/omega approximation is guaranteed."""
        if xi_value <= 0.0:
            return math.inf
        base = (4.0 * self.omega / self.c_o) * math.sqrt(math.log(self.n_freq * self.omega / self.c_o))
        return base**self.n_freq / xi_value


@dataclass
class XiReport:
    xi: float
    argmin: tuple
    radius: int
    degenerate: bool  # xi == 0: the approximation hypothesis fails

    def __post_init__(self):
        if self.xi < 0.0:
            raise DomainError("xi must be nonnegative")
        if self.radius >= 1 and not self.degenerate:
            sup = max(abs(v) for v in self.argmin)
            if not 0 < sup <= self.radius:
                raise DomainError("argmin sup-norm escaped (0, radius]")


def _frac(u: np.ndarray) -> np.ndarray:
    """Fractional part u - floor(u), in [0, 1]."""
    return u - np.floor(u)


def xi(problem: LatticeProblem, radius: Optional[int] = None) -> XiReport:
    """Minimum of ||h sum(lambda_l nu_l)|| over nonzero integer vectors with
    sup norm at most the enumeration radius m.

    The vectors form rows nu_1 = -m..m that share the inner sums s = nu_2
    lambda_2 + ... + nu_N lambda_N, built by iterated outer sums (nu_2..nu_N
    in lexicographic order, each s one left-to-right sum), so xi makes no
    BLAS call and its bytes do not depend on the BLAS kernel.  The values
    frac(h s) are sorted once; a row's approximate minimum is the circular
    gap from frac(-h nu_1 lambda_1) to its two sorted neighbours
    (searchsorted), so all rows cost (2m+1)^(N-1) log terms, not (2m+1)^N.

    An approximate distance and the exact one, nearest_int_dist(h*(nu_1
    lambda_1 + s)), differ by a handful of roundings of quantities of size
    at most h m sum|lambda| + 1, that is by less than
    4 eps (h m sum|lambda| + 1); the slack e = 64 eps (h m sum|lambda| + 1)
    covers that many times over.  Any row holding the exact minimum then has
    an approximate minimum at most g + 2e, where g is the smallest
    approximate row minimum.  Those rows, and row nu_1 = 0 (where the zero
    vector is excluded), are evaluated exactly in scan order, so xi and its
    argmin equal those of a full enumeration bit for bit.

    Ties break to the lexicographically smallest vector (scan order).  A
    zero minimum is reported with the degenerate flag rather than raised.
    The computed xi is within about 4 eps (h m sum|lambda| + 1) of the real
    minimum: 8e-13 at h = 1, m = 143 and sum|lambda| near 6, so a xi near
    1e-8 has about 4 significant digits, as has solution_count's lower_iii.

    Past the inner sums, the ring and the exact rows share two buffers of
    the inner-sum size, written through ``out=`` with the same operations
    as the plain expressions, so a call makes no further large allocation.
    """
    m = problem.radius() if radius is None else int(radius)
    if m < 1:
        raise DomainError(f"enumeration radius {m} < 1 (raise omega or lower c_o)")
    n = problem.n_freq
    total = (2 * m + 1) ** n
    if total > ENUM_BUDGET:
        raise BudgetError(f"enumeration size (2*{m}+1)^{n} = {total} exceeds {ENUM_BUDGET}")
    lam = np.asarray(problem.lambdas, dtype=float)
    side = np.arange(-m, m + 1)
    inner = np.zeros(1)
    for lam_l in lam[1:]:
        inner = np.add.outer(inner, side * lam_l).ravel()

    # the ring and its floors, then each exact row's distances and sums
    ring = np.multiply(problem.h, inner)
    spare = np.floor(ring)
    ring -= spare
    ring.sort()
    shift = _frac(-problem.h * (side * lam[0]))
    pos = np.searchsorted(ring, shift)
    gap = np.minimum(nearest_int_dist(shift - ring[pos - 1]), nearest_int_dist(shift - ring[pos % ring.size]))
    gap[m] = math.inf  # row nu_1 = 0 is always evaluated exactly
    slack = 64.0 * np.finfo(float).eps * (problem.h * m * float(np.abs(lam).sum()) + 1.0)
    keep = gap <= gap.min() + 2.0 * slack
    keep[m] = True
    rows = np.flatnonzero(keep)

    best = math.inf
    best_vec = None
    sums, dists = spare, ring
    for nu1 in side[rows]:
        np.add(nu1 * lam[0], inner, out=sums)
        sums *= problem.h
        np.round(sums, out=dists)
        np.subtract(sums, dists, out=dists)
        np.abs(dists, out=dists)
        if nu1 == 0:
            dists[inner.size // 2] = math.inf  # the zero vector: the middle row of the symmetric grid
        i = int(np.argmin(dists))
        if dists[i] < best:
            best = float(dists[i])
            best_vec = (int(nu1), *(int(v) - m for v in np.unravel_index(i, (2 * m + 1,) * (n - 1))))
        if best == 0.0:  # later rows cannot beat zero under the strict rule
            break
    return XiReport(xi=best, argmin=best_vec, radius=m, degenerate=(best == 0.0))


@dataclass
class LatticeSearch:
    t_best: float
    achieved: float
    hits: np.ndarray  # all t in I with max_j ||t lambda_j - beta_j|| <= 1/omega
    m_best: int
    lattice_size: int


def _lattice_range(problem: LatticeProblem) -> tuple:
    lo, hi = problem.interval
    m_lo = max(0, int(math.ceil(lo / problem.h - 1e-12)))
    m_hi = int(math.floor(hi / problem.h + 1e-12))
    if m_hi < m_lo:
        raise DomainError(f"no lattice points h*m inside [{lo}, {hi}]")
    return m_lo, m_hi


def _candidates(size: int, step: int, alpha: float, phases: np.ndarray, w: float) -> np.ndarray:
    """The offsets o = r + step*i in [0, size) with ||alpha i - phases[r]||
    <= w, for 0 < alpha <= 1/2, phases in [0, 1] and 0 < w < 1/4; residue
    class r = 0, 1, ... in turn, each in increasing order.

    Class r meets the bound at the integers i of the intervals
    [k + phases[r] - w, k + phases[r] + w] / alpha, one for each integer k
    from -1 to alpha*len + w, where len is the largest class size (the
    rotation alpha i covers [0, alpha len)).  The intervals of a class are
    more than one apart, since (1 - 2w) / alpha > 1, so its offsets come
    out sorted and distinct.  The ends are rounded outward by ceil and
    floor; their own rounding, a few units in the last place of |k| + 2,
    moves an end by less than 3 u (alpha len + 4) / alpha (u = 2^-53),
    which the caller adds to w.
    """
    rows = np.arange(step)
    last = (size - 1 - rows) // step  # each class's largest i
    ks = np.arange(-1.0, math.floor(alpha * (last[0] + 1) + w) + 1.0)
    lo = np.ceil((ks + (phases[:, None] - w)) / alpha)
    hi = np.floor((ks + (phases[:, None] + w)) / alpha)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, last[:, None].astype(float), out=hi)
    counts = np.maximum(hi - lo + 1.0, 0.0).astype(np.int64).ravel()
    firsts = (lo * step + rows[:, None]).astype(np.int64).ravel()
    ends = np.cumsum(counts)
    out = np.repeat(firsts - step * (ends - counts), counts)
    out += np.arange(0, step * ends[-1], step)
    return out


def lattice_search(problem: LatticeProblem) -> LatticeSearch:
    """Scan t = h*m over the interval and minimize max_j ||t lambda_j - beta_j||.

    Returns the smallest minimizing t, the achieved distance, and the full
    list of t meeting the 1/omega target; the caller compares the achieved
    distance with 1/omega.  A miss contradicts the approximation theorem
    only when hi - lo > problem.length_threshold(xi(problem).xi); below
    that length it is legitimate.

    A point can be a hit, or improve on the best distance so far, only if
    its distance for one filter frequency is at most thr = max(1/omega,
    best).  Each block of points therefore finds the points within thr for
    the filter and tests the other frequencies only there.  Before a first
    best exists thr starts at 1/omega and widens (to the smallest candidate
    distance, or doubling when no point is within it) until it brackets the
    block minimum.  Every distance is the full scan's floating-point
    expression, nearest_int_dist(h*m*lambda_j - beta_j); a block's minimum
    goes to its smallest m and its hits are sorted, so the result equals a
    full scan's exactly, whichever frequency filters.

    Candidates.  With c = fl(h lambda_j), the filter phase of point m is
    h m lambda_j - beta_j = m (c - round(c)) - beta_j mod 1, a rotation.
    Along every q-th point it turns by alpha = ||q (c - round(c))||, and
    the filter is the slowest of these rotations: the frequency j and step
    q <= _MAX_STEP with the smallest alpha among those whose residue
    classes turn at least once per block (alpha * block >= q).  With s the
    sign of q (c - round(c)) minus its nearest integer, the points
    m = start + r + q i of a block are within thr only where
    ||alpha i - g_r|| <= thr, g_r = frac(s (beta_j - (c - round(c))
    (start + r))): the integers of one short interval per turn of each
    class (``_candidates``; the three-distance theorem describes their
    gaps).  Some q <= _MAX_STEP has ||q c|| <= 1/(_MAX_STEP + 1)
    (Dirichlet), so unless every rotation is too slow to use, a block lists
    at most about block/(_MAX_STEP + 1) intervals and 2 thr + e of its
    points.  Blocks hold _SEARCH_WINDOW points.

    Margin.  Let P = |c| m_hi + |beta_j| bound the phases and u = 2^-53 the
    unit roundoff.  The computed filter distance is the exact distance to
    the nearest integer of fl(fl(fl(h m) lambda_j) - beta_j) (removing its
    rounding is a Sterbenz subtraction), within 4 u P of the real phase.
    c - round(c) is exact and within u |c| of the real h lambda_j minus
    that integer, and its product by q rounds by u q |c|, so alpha i is off
    by at most 2 u P; g_r is within 4 u P + u of its real value.
    ``_candidates`` rounds its interval ends by less than 3 u (block + 4)
    in phase.  So every point whose computed filter distance is at most thr
    lies in the candidate intervals of half-width w = thr + e, with e =
    32 u (P + block + 4) covering all of these errors together three times
    over.  The candidates are evaluated whole: the points left out all have
    filter distances above thr, so the block minimum is found whenever it
    is at most thr, and a candidate farther than thr only ever reads as
    farther than thr.

    Every point.  A block evaluates the filter at all of its points, and
    the other frequencies where it is within thr, when the candidates would
    be a large share of it, 2 (thr + e) >= _SPARSE_SHARE: a wide target
    (omega <= 5), a thr widened that far before a first hit, or e grown
    near the 2^52 phase guard.  When no rotation turns once per block
    (h lambda_j an integer, or all its multiples nearly integers) or the
    target itself is that wide, the whole scan runs this way, on the first
    frequency, in blocks of _SCAN_CHUNK points.  Both kinds of block take
    the filter distance through one expression on their points t: the
    candidates, or every point of the block, of which those within thr go
    on to the other frequencies.  A widening thr recomputes the filter.
    """
    m_lo, m_hi = _lattice_range(problem)
    count = m_hi - m_lo + 1
    if count > ENUM_BUDGET:
        raise BudgetError(f"lattice scan size {count} exceeds {ENUM_BUDGET}")
    lam = np.asarray(problem.lambdas, dtype=float)
    bet = np.asarray(problem.betas, dtype=float)
    target = 1.0 / problem.omega

    # the slowest rotation (step q, frequency j) whose classes turn once per block
    window = max(1, min(count, _SEARCH_WINDOW))
    steps = problem.h * lam
    turns = steps - np.round(steps)
    qs = np.arange(1, _MAX_STEP + 1)[:, None]
    rotations = qs * turns
    rotations -= np.round(rotations)
    rates = np.abs(rotations)
    rates[rates * window < qs] = math.inf
    q, j = (int(v) for v in np.unravel_index(int(np.argmin(rates)), rates.shape))
    alpha = float(rates[q, j])
    sign = -1.0 if rotations[q, j] < 0.0 else 1.0
    classes = np.arange(q + 1)  # residue classes mod the step q + 1
    margin = 16.0 * np.finfo(float).eps * (abs(float(steps[j])) * m_hi + abs(float(bet[j])) + window + 4.0)
    sparse = alpha < math.inf and 2.0 * (target + margin) < _SPARSE_SHARE
    if not sparse:
        j = 0
    others = [(lam[i], bet[i]) for i in range(lam.size) if i != j]

    best = math.inf
    best_m = m_lo
    hit_chunks = []
    block = window if sparse else max(1, min(count, _SCAN_CHUNK))
    for start in range(m_lo, m_hi + 1, block):
        size = min(block, m_hi + 1 - start)
        thr = target if best == math.inf else max(target, best)
        while True:
            every = not (sparse and 2.0 * (thr + margin) < _SPARSE_SHARE)
            if every:
                t_cand = problem.h * np.arange(start, start + size)
            else:
                # a superset of the points within thr, evaluated whole
                phases = _frac(sign * (bet[j] - turns[j] * (start + classes)))
                near = _candidates(size, q + 1, alpha, phases, thr + margin)
                t_cand = problem.h * (near + start)
            dist = t_cand * lam[j]
            dist -= bet[j]
            dist -= np.round(dist)
            np.abs(dist, out=dist)
            if every:
                near = np.flatnonzero(dist <= thr)
                t_cand, dist = t_cand[near], dist[near]
            for lam_i, bet_i in others:
                dist = np.maximum(dist, nearest_int_dist(t_cand * lam_i - bet_i))
            lowest = dist.min(initial=math.inf)
            if lowest <= thr or thr >= best:
                break
            thr = float(lowest) if dist.size else 2.0 * thr
        if lowest < best:
            best = float(lowest)
            best_m = start + int(near[dist == lowest].min())
        hit_chunks.append(np.sort(t_cand[dist <= target]))
    return LatticeSearch(
        t_best=problem.h * best_m,
        achieved=best,
        hits=np.concatenate(hit_chunks),
        m_best=best_m,
        lattice_size=count,
    )


class SolutionCount(NamedTuple):
    count: int
    lower_ii: float  # (C / (omega sqrt(k)))^N * |I cap hN|
    lower_iii: float  # C^{N/2} / (h Xi)
    k: int


def solution_k(ratio: float) -> int:
    """Smallest j >= 1 with ratio <= 4^{2j-1} / sqrt(j)."""
    if ratio <= 0.0:
        raise DomainError(f"ratio={ratio} must be positive")
    j = 1
    while 4.0 ** (2 * j - 1) / math.sqrt(j) < ratio:
        j += 1
        if j > 64:
            raise DomainError(f"no admissible k below 64 for ratio={ratio}")
    return j


def solution_count(problem: LatticeProblem, search: LatticeSearch, xi_rep: XiReport, C: float = 1.0) -> SolutionCount:
    """Count the 1/omega approximants on the lattice and evaluate the two
    lower bounds with the supplied free constant.

    ``search`` and ``xi_rep`` are the caller's ``lattice_search(problem)``
    and ``xi(problem)``; this function runs neither scan.  The count and
    both bounds are returned; the caller compares them (calibration fits
    the largest C keeping both bounds below the count), because their
    constant is not pinned by the statement.  C must be positive; a bound
    past the float range reads inf.
    """
    _free_constant(C)
    n = problem.n_freq
    ratio = n * problem.omega / problem.c_o
    k = solution_k(ratio)
    scale = C / (problem.omega * math.sqrt(k))
    size = search.lattice_size
    lower_ii = _product(lambda: scale**n * size, n * _log(scale) + math.log(size))
    if xi_rep.xi > 0.0:
        hxi = problem.h * xi_rep.xi
        lower_iii = _product(lambda: C ** (n / 2.0) / hxi, n / 2.0 * math.log(C) - _log(hxi))
    else:
        lower_iii = math.inf
    return SolutionCount(int(search.hits.size), lower_ii, lower_iii, k)


def _turns(c: float, lam: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The (len(nu), N) matrix e^{i c nu_m lambda_k} of the exponential-sum scans."""
    return np.exp(1j * c * np.outer(nu.astype(float), lam))


def _rotation_table(lam: np.ndarray, c: float, step: int, M: int) -> np.ndarray:
    """The rotation table of ``_rotated_sums`` for scans of up to M rows:
    e^{i c lambda_k step j} for j < min(_ROTATION_ROWS, M), one row per j."""
    return _turns(c, lam, step * np.arange(min(_ROTATION_ROWS, M)))


def _rotated_sums(w: np.ndarray, lam: np.ndarray, c: float, table: np.ndarray, start: int, step: int, M: int) -> np.ndarray:
    """sum_k w_k e^{i c nu lambda_k} for the rows nu = start + step*m, m < M:
    the exact phases of the anchors nu_a = start + step R a, every R =
    min(M, len(table)) rows, weighted by w_k, times the first R rows of
    ``table`` (``_rotation_table``, of e^{i c lambda_k step j}, j < R) in
    one complex GEMM (row a R + j is nu_a + step j).  The caller builds the
    table once and passes it to every call of a scan; a call of fewer rows
    than the table reads its first M rows, the same values a table of M
    rows holds, so its GEMM is the one a table built for it would take.

    With u = 2^-53, W = sum|w_k| and Phi_a, Phi_t bounding the anchor and
    table phases, each sum is within u W (3.01 (Phi_a + Phi_t) + 1.44 N + 9)
    of the exact one: a phase fl(c fl(nu lambda_k)) rounds by 3.01 u of its
    size, libm's cexp by 2.83 u in modulus, the weights by u, the complex
    products by 2.24 u (sqrt(5) u) and the N-term sums by about 1.44 N u.
    The GEMM stays, and divergence with it on the BLAS kernel: at M = 2e5 and
    N = 3 it took 0.27-0.40 ms, np.einsum 1.74-1.85 ms, a term loop 4.1-4.3 ms
    (2 cores).
    """
    rows = min(len(table), M)
    anchors = _turns(c, lam, start + step * (rows * np.arange(-(-M // rows))))
    anchors *= w
    return (anchors @ table[:rows].T).ravel()[:M]


def _rotated_moduli(a: np.ndarray, lam: np.ndarray, c: float, table: np.ndarray, start: int, step: int, M: int) -> np.ndarray:
    """The moduli of ``_rotated_sums`` for the limsup rows nu = start +
    step*m, m < M (``limsup_records``)."""
    return np.abs(_rotated_sums(a, lam, c, table, start, step, M))


def _limsup_margin(a: np.ndarray, theta: float) -> float:
    """delta: the bound on the distance of ``_rotated_moduli`` from the full
    scan's moduli when theta bounds the phases (``limsup_records``)."""
    return 64.0 * np.finfo(float).eps * (float(a.sum()) + 2.0**-1022) * (theta + a.size + 2.0)


class LimsupRecords(NamedTuple):
    """The running maximum of a limsup scan as its step function: it rises
    to maxima[i] at row rows[i] and holds it up to the next row, or to the
    scan's length."""

    rows: np.ndarray  # ascending int64 rows m, row 0 first
    maxima: np.ndarray  # the running maximum from each row on, non-decreasing
    length: int  # M, the number of rows scanned


def limsup_records(
    alphas: Sequence[float],
    lambdas: Sequence[float],
    start: int,
    step: int,
    M: int,
    convention: str = "2pi",
) -> LimsupRecords:
    """The records of the running maximum of |sum_k alpha_k e^{i c nu
    lambda_k}| over the arithmetic progression nu = start + step*m, m =
    0..M-1: row 0 and each row where the running maximum rises, with the
    maximum there.

    ``convention`` picks the phase scaling c: "2pi" (c = 2 pi) or "2"
    (c = 2); both are exposed because the two scalings appear side by side
    and only differ by a relabeling of the frequencies.  The maxima are
    bounded by sum(alpha_k).  The phases must stay below 2^52 in size,
    Theta = c max|lambda_k| max(|start|, |start + step (M-1)|) < 2^52,
    where a float still has fractional bits to measure, and |nu| below
    2^62, as must step, so that the progression's int64 arithmetic cannot
    wrap.

    The records are those of a full scan, which takes the modulus of each
    row's sum of its N terms alpha_k e^{i c nu lambda_k}, added along the
    row (``(_turns(...) * alpha).sum(axis=1)``), and one running maximum,
    but only the rows that can hold a new maximum are evaluated exactly.

    Candidates.  The scan walks the rows in blocks of _SCAN_ROWS, a
    multiple of _ROTATION_ROWS, so a block's anchors are those of the whole
    range; one rotation table serves every block.  approx is the modulus of
    each row's ``_rotated_sums`` (exact phases every _ROTATION_ROWS rows
    turned through the table).  If every approx is within delta of the
    full scan's modulus exact, a row i with approx[i] < approx[j] - 2 delta
    for some j < i has exact[i] < approx[i] + delta < approx[j] - delta <=
    exact[j], so it cannot raise the running maximum.  The candidates are
    row 0 and the rows with approx[i] >= max(approx[:i]) - 2 delta (a NaN
    keeps a row); max(approx[:i]) carries from block to block as one float.
    The floors max(approx[:i]) - 2 delta never fall within a block, since
    rounding is monotone, so a block whose largest approx lies below its
    first floor has no candidate and is passed over whole.
    A block's complex sums take 64 KiB, below glibc's 128 KiB mmap
    threshold, so a call holds no M-length array but its candidate rows.

    Exact pass.  Each candidate row is summed by itself, as the full scan
    sums it.  A row's N terms are added in an order that depends on N
    alone, not on the row's place or on the other rows evaluated with it,
    so each value is the full scan's, bit for bit, and no BLAS kernel takes
    part.  The running maximum over the candidates, held across the rows
    left out, is the full scan's running maximum; the candidates where it
    rises are the records.

    Margin.  Let u = 2^-53 and A = sum(alpha_k).  The anchor phases are at
    most Theta in size and the table's 2 Theta (step j <= 2 max|nu|); a
    full-scan row rounds its one phase, cexp, weights and N-term sum as
    ``_rotated_sums`` does, with no complex product, and abs rounds by u on
    each side.  Together |approx - exact| <= u A (12.04 Theta + 2.88 N +
    16), and delta = 64 eps A (Theta + N + 2), eps = 2u, covers that ten
    times over, with the rounding of max(approx[:i]) - 2 delta besides.
    Below 2^-1022 a float rounds by up to 2^-1075 absolutely rather than
    relatively, so delta takes A + 2^-1022 in place of A.  When delta is
    not finite every row is a candidate.
    """
    a = np.asarray(alphas, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if a.size != lam.size:
        raise DomainError(f"{a.size} amplitudes for {lam.size} frequencies")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(lam))):
        raise DomainError("amplitudes and frequencies must be finite")
    if np.any(a < 0.0):
        raise DomainError("amplitudes must be nonnegative")
    if M < 1 or step < 1:
        raise DomainError(f"need M >= 1 and step >= 1, got M={M}, step={step}")
    if convention == "2pi":
        c = 2.0 * math.pi
    elif convention == "2":
        c = 2.0
    else:
        raise DomainError(f"unknown phase convention {convention!r}")
    if M * a.size > ENUM_BUDGET:
        raise BudgetError(f"progression scan size {M * a.size} exceeds {ENUM_BUDGET}")
    reach = max(abs(start), abs(start + step * (M - 1)))
    theta = c * float(np.abs(lam).max(initial=0.0)) * min(reach, 2.0**1023)
    _check_phases(theta)
    if not max(reach, step) < 2**62:
        raise DomainError("progression leaves int64 arithmetic (need step and |start + step*m| < 2^62)")

    table = _rotation_table(lam, c, step, M)
    shift = 2.0 * _limsup_margin(a, theta)
    top = -math.inf  # max(approx[:lo]); row 0 opens the running maximum
    candidates = []
    with np.errstate(over="ignore", invalid="ignore"):  # sums past the float range keep every row
        for lo in range(0, M, _SCAN_ROWS):
            approx = _rotated_moduli(a, lam, c, table, start + step * lo, step, min(_SCAN_ROWS, M - lo))
            if approx.max() < top - shift:  # every row lies below the block's first floor (a NaN reads False)
                continue
            prior = np.empty(approx.size + 1)  # prior[i] = max(approx[:lo + i])
            prior[0] = top
            prior[1:] = approx
            np.maximum.accumulate(prior, out=prior)
            top = prior[-1]
            prior -= shift
            candidates.append(lo + np.flatnonzero(~(approx < prior[:-1])))

    rows = np.concatenate(candidates)
    maxima = np.abs((_turns(c, lam, start + step * rows) * a).sum(axis=1))
    np.maximum.accumulate(maxima, out=maxima)
    rises = np.ones(rows.size, dtype=bool)
    np.not_equal(maxima[1:], maxima[:-1], out=rises[1:])
    return LimsupRecords(rows[rises], maxima[rises], M)


def limsup_exponential_sum(
    alphas: Sequence[float],
    lambdas: Sequence[float],
    start: int,
    step: int,
    M: int,
    convention: str = "2pi",
) -> tuple:
    """Running maximum of |sum_k alpha_k e^{i c nu lambda_k}| over the
    arithmetic progression nu = start + step*m, m = 0..M-1.

    Returns (running_max, final_max): the M-row expansion of
    ``limsup_records`` (each record's maximum repeated up to the next
    record) and its last value.  The running maximum is non-decreasing and
    bounded by sum(alpha_k).  The arguments, their checks and the equality
    with a full scan, bit for bit, are those of ``limsup_records``; only
    this expansion holds an M-length array.
    """
    rec = limsup_records(alphas, lambdas, start, step, M, convention)
    return np.repeat(rec.maxima, np.diff(rec.rows, append=rec.length)), float(rec.maxima[-1])


def divergence_partial_sums(spec: PolynomialSpec, a: float, js: Sequence[int]) -> list:
    """Partial sums S_J = (1/A) sum_{j=0}^{J} |sum_k a_k^2 cos(lambda_k j a)|
    for each requested J (ascending).

    Coefficients must be non-vanishing on the range (the sequence flag is
    required); linear independence of the frequencies is the caller's
    assertion.  S_J is non-decreasing in J and scale-invariant in the
    coefficients.  The phases a J lambda_k must stay below 2^52 in size,
    where a float still has fractional bits to measure.

    The term j is |Re| of sum_k a_k^2 e^{i a j lambda_k}, a row of
    ``_rotated_sums``, all of whose calls share one rotation table built
    for the call.  The terms are added in summation units, each ladder
    rung cut every _SUM_ROWS rows to bound the complex temporary: one
    ``np.sum`` per unit, and the unit sums in order.  A scan of (largest J
    + 1) * N values over ENUM_BUDGET raises BudgetError before any term.

    Error.  With u = 2^-53, A = sum a_k^2 and Theta = a J max|lambda_k|,
    every phase up to row J is at most Theta, so each term is within
    u A (6.02 Theta + 1.44 N + 9) of the exact |sum_k a_k^2 cos(j a
    lambda_k)| (Re and abs round nothing).  limsup's per-term margin
    delta = 64 eps (A + 2^-1022) (Theta + N + 2), eps = 2u, covers that
    twenty times, so A S_J is within (J + 1) delta of its exact value, the
    summation included while the units up to J number at most 300: np.sum
    rounds a unit's sum by at most 34 u of it, and each unit's addition and
    the division by A round by u of the total.
    """
    if a <= 0.0:
        raise DomainError(f"step a={a} must be positive")
    ladder = [int(j) for j in js]
    if not ladder:
        raise DomainError("J ladder is empty: give at least one J")
    if any(j < 0 for j in ladder) or sorted(ladder) != ladder:
        raise DomainError("J ladder must be a nondecreasing list of nonnegative integers")
    if not spec.coeffs.nonvanishing:
        raise DomainError("divergence sums require a non-vanishing coefficient sequence flag")
    if (ladder[-1] + 1) * spec.n_terms > ENUM_BUDGET:
        raise BudgetError(f"divergence scan size ({ladder[-1]} + 1)*{spec.n_terms} exceeds {ENUM_BUDGET}")
    a2 = variance(spec)
    aa = spec.coeff_values() ** 2
    lam = spec.angular_freqs()
    _check_phases(a * ladder[-1] * float(np.abs(lam).max(initial=0.0)))

    table = _rotation_table(lam, a, 1, ladder[-1] + 1)
    sums = []
    running = 0.0
    cursor = 0
    for j_stop in ladder:
        while cursor <= j_stop:
            stop = min(cursor + _SUM_ROWS, j_stop + 1)
            running += float(np.sum(np.abs(_rotated_sums(aa, lam, a, table, cursor, 1, stop - cursor).real)))
            cursor = stop
        sums.append(running / a2)
    return sums


class LatticeCorrelation(NamedTuple):
    max_offdiag_corr: float
    eta: float
    var_ratio_min: float
    accepted_ts: tuple


def lattice_correlation(
    spec: PolynomialSpec,
    omega: int,
    beta: float,
    c: float,
    sample_ts: Sequence[float],
) -> LatticeCorrelation:
    """Exact correlations of the cosine half-process across lattice sample
    points, against the cap eta = 1 - 2/omega and the variance floor eta*A.

    Admissibility: c in (0, 2/pi), (c/2) beta^2 < 1, omega > 12 pi /
    (c (pi beta)^2).  Sample points must pass the sine-form 1/omega filter
    max_k |sin(lambda_k t - beta)| <= 1/omega (t = a s passes it when s is
    a hit of a lattice search on frequencies a*lambda_k/pi with target
    beta/pi and precision omega' >= pi*omega, for any step a > 0); failing
    points are rejected.

    The largest off-diagonal correlation (-inf with one accepted point)
    and the smallest variance ratio are returned with eta; the caller
    compares each with eta.  Note the floor is structurally tight: the
    admissibility constraints force beta^2 > 6/omega while the floor needs
    sin(beta)^2 <= 2/omega, so for admissible inputs the computed variance
    ratio sits near cos(beta)^2 below eta.
    """
    if not 0.0 < c < 2.0 / math.pi:
        raise DomainError(f"c={c} outside (0, 2/pi)")
    if not (c / 2.0) * beta * beta < 1.0:
        raise DomainError(f"(c/2) beta^2 = {(c / 2.0) * beta * beta} must be below 1")
    curvature = c * (math.pi * beta) ** 2
    omega_floor = 12.0 * math.pi / curvature if curvature > 0.0 else math.inf
    if not omega > omega_floor:
        raise DomainError(f"omega={omega} must exceed 12 pi / (c (pi beta)^2) = {omega_floor:.4g}")
    lam = spec.angular_freqs()
    a2 = variance(spec)
    aa = spec.coeff_values() ** 2

    accepted = []
    for t in sample_ts:
        dev = np.abs(np.sin(lam * t - beta))
        if float(dev.max()) <= 1.0 / omega:
            accepted.append(float(t))
    if not accepted:
        raise DomainError("no sample point passes the 1/omega approximation filter")

    cosines = np.cos(np.outer(np.asarray(accepted), lam))  # (m, x)
    gram = (cosines * aa) @ cosines.T
    variances = np.diag(gram)
    denom = np.sqrt(np.outer(variances, variances))
    corr = gram / denom
    eta = 1.0 - 2.0 / omega
    m = len(accepted)
    max_off = float(corr[~np.eye(m, dtype=bool)].max(initial=-math.inf))
    return LatticeCorrelation(max_off, eta, float(variances.min() / a2), tuple(accepted))


def bound_cos_lattice(m: int, eta: float, kappa_arg: float, total_a2: Optional[float] = None) -> BoundReport:
    """Equicorrelated-comparison bound for the cosine half-process on lattice
    points: (1 - eta)^{-(m-1)/2} Phi(kappa / sqrt(1 + eta (m-1)))^m.

    When the coefficient mass sum(a_k^2) is supplied, the threshold the
    bound applies to, eta * sqrt(sum a_k^2) * kappa, is reported too.
    """
    if m < 2:
        raise DomainError(f"m={m} < 2")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    value = (1.0 - eta) ** (-(m - 1) / 2.0) * float(ndtr(kappa_arg / math.sqrt(1.0 + eta * (m - 1)))) ** m
    threshold = eta * math.sqrt(total_a2) * kappa_arg if total_a2 is not None else None
    return BoundReport(
        value=value,
        threshold=threshold,
        intermediates={"eta": eta, "m": m},
    )
