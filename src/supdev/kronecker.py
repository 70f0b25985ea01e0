"""Lattice-localized simultaneous approximation and exponential-sum scans.

Given frequencies lambda_1..lambda_N, the obstruction scale Xi is the
smallest distance to the nearest integer of h * sum(lambda_l nu_l) over
nonzero integer vectors with sup-norm at most floor(6 omega log(N omega /
C_o)).  When Xi > 0 and the scan interval is long enough, every target
vector is approximated to 1/omega by some lattice point t in I intersected
with h*N, and the number of such points admits explicit lower bounds.  The
same machinery drives the running-maximum law for |sum alpha_k e^{i c nu
lambda_k}| along arithmetic progressions and the divergence of the
normalized absolute-covariance series; the running-maximum scan evaluates
exactly only the product blocks that can hold a new maximum, which an
anchored-rotation approximation of every sum picks out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._normal import ndtr
from .bounds import BoundReport, _free_constant, _log, _product
from .errors import BudgetError, DomainError
from .mc import ordered_map
from .spectrum import PolynomialSpec, power_sum

__all__ = [
    "LatticeCorrelation",
    "LatticeProblem",
    "LatticeSearch",
    "SolutionCount",
    "XiReport",
    "bound_cos_lattice",
    "divergence_partial_sums",
    "lattice_correlation",
    "lattice_search",
    "limsup_exponential_sum",
    "nearest_int_dist",
    "solution_count",
    "xi",
]

ENUM_BUDGET = 10**8  # hard cap on enumeration sizes (desk scale)
_SCAN_CHUNK = 1 << 14  # lattice points per every-point lattice_search block: a few arrays stay cache-resident
_SEARCH_WINDOW = 1 << 17  # lattice points per candidate lattice_search block
_SPARSE_SHARE = 0.35  # candidate share of a block at which lattice_search evaluates every point
_MAX_STEP = 32  # largest step q of the rotations lattice_search filters on
_GEMV_VALUES = 1 << 11  # values per BLAS matrix-vector product, below OpenBLAS's threading size
_ROW_ALIGN = 64  # product blocks hold a whole multiple of this many rows
_PIECE_BLOCKS = 16  # product blocks per scan piece, the task a worker takes
_ROTATION_ROWS = 512  # rows per rotation table of the limsup approximate pass


def nearest_int_dist(u) -> np.ndarray:
    """Distance to the nearest integer, |u - round(u)| (round-half-to-even;
    exact ties are measure zero)."""
    u = np.asarray(u, dtype=float)
    return np.abs(u - np.round(u))


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
        phase = max(map(abs, self.lambdas)) * max(abs(lo), abs(hi)) + max(map(abs, self.betas))
        if not phase < 2.0**52:
            raise DomainError(f"phases up to {phase:.4g} leave a float no fractional bits (need < 2^52)")
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

    The vectors form rows nu_1 = -m..m that share the inner sums
    s = nu_2 lambda_2 + ... + nu_N lambda_N.  The values frac(h s) are sorted
    once; a row's approximate minimum is the circular gap from
    frac(-h nu_1 lambda_1) to its two sorted neighbours (searchsorted), so
    all rows cost (2m+1)^(N-1) log terms instead of (2m+1)^N.

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

    if n == 1:
        inner = np.zeros(1)
        combos = np.zeros((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*([side] * (n - 1)), indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
        inner = combos @ lam[1:]

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
            best_vec = (int(nu1), *map(int, combos[i])) if n > 1 else (int(nu1),)
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
    frequency, in blocks of _SCAN_CHUNK points.  The block arrays (m, t,
    the filter distance and its rounding) live in four buffers that every
    block reuses through ``out=``, so the cost of a block does not depend
    on how the allocator was left by earlier work.
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
    offsets = np.arange(block)
    ms_buf, ts_buf, first_buf, round_buf = np.empty_like(offsets), np.empty(block), np.empty(block), np.empty(block)
    for start in range(m_lo, m_hi + 1, block):
        size = min(block, m_hi + 1 - start)
        thr = target if best == math.inf else max(target, best)
        scanned = False
        while True:
            if sparse and 2.0 * (thr + margin) < _SPARSE_SHARE:
                # a superset of the points within thr, evaluated whole
                phases = _frac(sign * (bet[j] - turns[j] * (start + classes)))
                near = _candidates(size, q + 1, alpha, phases, thr + margin)
                t_cand = problem.h * (near + start)
                dist = t_cand * lam[j]
                dist -= bet[j]
                dist -= np.round(dist)
                np.abs(dist, out=dist)
            else:
                if not scanned:
                    ms = np.add(offsets[:size], start, out=ms_buf[:size])
                    ts = np.multiply(problem.h, ms, out=ts_buf[:size])
                    first = np.multiply(ts, lam[j], out=first_buf[:size])
                    first -= bet[j]
                    first -= np.round(first, out=round_buf[:size])
                    np.abs(first, out=first)
                    scanned = True
                near = np.flatnonzero(first <= thr)
                t_cand, dist = ts[near], first[near]
            for lam_i, bet_i in others:
                dist = np.maximum(dist, nearest_int_dist(t_cand * lam_i - bet_i))
            lowest = dist.min(initial=math.inf)
            if lowest <= thr or thr >= best:
                break
            thr = float(lowest) if dist.size else 2.0 * thr
        if lowest < best:
            best = float(lowest)
            best_m = start + int(near[dist == lowest].min())
        hits = t_cand[dist <= target]
        hit_chunks.append(np.sort(hits) if sparse else hits)
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


def _cuts(start: int, stop: int, size: int) -> list:
    """[start, stop) cut every ``size`` rows from ``start``; a one-row tail
    joins the cut before it."""
    edges = [*range(start, stop, size), stop]
    if len(edges) > 2 and stop - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _block_rows(n_freq: int) -> int:
    """Rows per matrix-vector product of a scan with n_freq frequencies."""
    return max(_ROW_ALIGN, _GEMV_VALUES // max(n_freq, 1) // _ROW_ALIGN * _ROW_ALIGN)


def _abs_products(
    rows: Callable, vector: np.ndarray, start: int, stop: int, out: np.ndarray, workers: int
) -> np.ndarray:
    """|rows(s, e) @ vector| for the rows [start, stop) of a scan, written
    into ``out`` (row ``start`` at ``out[0]``).

    ``rows(s, e)`` builds the matrix rows s..e-1.  The range is cut into
    pieces of _PIECE_BLOCKS product blocks, counted from ``start``, and
    ``workers`` threads of the shared pool (``mc.ordered_map``) each build a
    piece's matrix and compute its product one block at a time, small
    enough that OpenBLAS runs each product on the worker's own thread.  The
    row values must equal those of one product over the whole range.  numpy
    sends a one-row product to a dot kernel, which rounds differently from
    gemv, so a one-row tail joins the piece, and the block, before it.
    Every block but the last holds a whole multiple of _ROW_ALIGN rows and
    starts a whole number of blocks into the range, so a gemv kernel that
    handles leftover rows separately meets them at the range's end, as in
    one product.  The alignment is load-bearing: with OpenBLAS 0.3.31 (50 000
    rows, N = 2-4, real and complex) SkylakeX and Haswell kernels differ only
    on one-row products, but under Sandybridge, Nehalem and Prescott real
    N = 4 rows differ at every unaligned block size tried (41% of rows at
    block 2, 18% at 7, 2% at 63, 0.06% at 637; 64, 128 and 1000 match).
    The cuts depend only on the range and the vector's length, never on workers.
    """
    block = _block_rows(vector.size)

    def piece(cut):
        s, e = cut
        matrix = rows(s, e)
        for lo, hi in _cuts(0, e - s, block):
            np.abs(matrix[lo:hi] @ vector, out=out[s - start + lo : s - start + hi])

    ordered_map(piece, _cuts(start, stop, _PIECE_BLOCKS * block), workers)
    return out


def _turns(c: float, lam: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The (len(nu), N) matrix e^{i c nu_m lambda_k} of the limsup scan."""
    return np.exp(1j * c * np.outer(nu.astype(float), lam))


def _rotated_moduli(a: np.ndarray, lam: np.ndarray, c: float, theta: float, start: int, step: int, M: int) -> tuple:
    """(approx, delta): the approximate moduli of the limsup rows nu = start +
    step*m, m < M, from exact phases every _ROTATION_ROWS rows turned by one
    table, and the bound delta on their distance from the full scan's
    moduli when theta bounds the phases (``limsup_exponential_sum``)."""
    rows = min(_ROTATION_ROWS, M)
    anchors = _turns(c, lam, start + step * (rows * np.arange(-(-M // rows))))
    anchors *= a
    approx = np.abs(anchors @ _turns(c, lam, step * np.arange(rows)).T).ravel()[:M]
    return approx, 64.0 * np.finfo(float).eps * (float(a.sum()) + 2.0**-1022) * (theta + a.size + 2.0)


def limsup_exponential_sum(
    alphas: Sequence[float],
    lambdas: Sequence[float],
    start: int,
    step: int,
    M: int,
    convention: str = "2pi",
    workers: int = 1,
) -> tuple:
    """Running maximum of |sum_k alpha_k e^{i c nu lambda_k}| over the
    arithmetic progression nu = start + step*m, m = 0..M-1.

    ``convention`` picks the phase scaling c: "2pi" (c = 2 pi) or "2"
    (c = 2); both are exposed because the two scalings appear side by side
    and only differ by a relabeling of the frequencies.  Returns
    (running_max, final_max); the running maximum is non-decreasing and
    bounded by sum(alpha_k).  The phases must stay below 2^52 in size,
    Theta = c max|lambda_k| max(|start|, |start + step (M-1)|) < 2^52,
    where a float still has fractional bits to measure, and |nu| below
    2^62, as must step, so that the progression's int64 arithmetic cannot
    wrap.

    The result equals that of a full scan, which fills the moduli of all M
    sums through ``_abs_products`` and takes one running maximum, but only
    the product blocks that can hold a new maximum are evaluated exactly.

    Approximate pass.  Exact phases are taken at anchors nu_a = start +
    step R a, every R = _ROTATION_ROWS rows, and one R-row table holds
    e^{i c lambda_k step j}, j < R.  Since nu_a + step j is row a R + j, one
    complex GEMM of the weighted anchors alpha_k e^{i c nu_a lambda_k} by
    the table gives every row's sum, and approx its modulus.

    Candidates.  If every approx is within delta of the full scan's modulus
    exact, a row i with approx[i] < approx[j] - 2 delta for some j < i has
    exact[i] < approx[i] + delta < approx[j] - delta <= exact[j], so it
    cannot raise the running maximum.  The candidates are row 0 and the
    rows with approx[i] >= max(approx[:i]) - 2 delta (a NaN keeps a row).

    Exact pass.  The product blocks that hold a candidate, cut as the full
    scan cuts them (_block_rows(N) rows from row 0, a one-row tail joined
    to the block before it), are laid end to end and filled by ``workers``
    threads of the shared pool through ``_abs_products``.  Every block but
    the last holds exactly _block_rows(N) rows, so the joined range is cut
    into the same blocks and each of its values is the full scan's, bit for
    bit.  The running maximum over these rows, held across the rows left
    out, is the full scan's running maximum, for any worker count.

    Margin.  Let u = 2^-53 and A = sum(alpha_k).  Either pass computes a
    phase as fl(c fl(nu lambda_k)), nu rounded to a float, within 3.01 u of
    its size: at most Theta at an anchor or a full-scan row, 2 Theta in the
    table (step j <= 2 max|nu|).  libm's cexp is within 1 ulp per
    component, 2.83 u in modulus.  The amplitude weights round by u, the
    GEMM's complex products by 2.24 u (sqrt(5) u), the N-term sums by about
    1.44 N u and abs by 2 u, each relative to A.  Together |approx - exact|
    <= u A (12.04 Theta + 2.88 N + 16), and delta = 64 eps A (Theta + N +
    2), eps = 2u, covers that ten times over, with the rounding of
    max(approx[:i]) - 2 delta besides.  Below 2^-1022 a float rounds by up
    to 2^-1075 absolutely rather than relatively, so delta takes A +
    2^-1022 in place of A.  When delta is not finite every row is a
    candidate.
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
    if not theta < 2.0**52:
        raise DomainError(f"phases up to {theta:.4g} leave a float no fractional bits (need < 2^52)")
    if not max(reach, step) < 2**62:
        raise DomainError("progression leaves int64 arithmetic (need step and |start + step*m| < 2^62)")

    with np.errstate(over="ignore", invalid="ignore"):  # sums past the float range keep every row
        approx, delta = _rotated_moduli(a, lam, c, theta, start, step, M)
        prior = np.maximum.accumulate(approx)
        prior -= 2.0 * delta
    keep = np.ones(M, dtype=bool)  # row 0 opens the running maximum
    keep[1:] = ~(approx[1:] < prior[:-1])

    cuts = _cuts(0, M, _block_rows(a.size))
    hit = np.logical_or.reduceat(keep, [s for s, _ in cuts])
    exact_rows = np.concatenate([np.arange(*cut) for cut, h in zip(cuts, hit) if h])
    exact = np.empty(exact_rows.size)
    _abs_products(lambda s, e: _turns(c, lam, start + step * exact_rows[s:e]), a, 0, exact.size, exact, workers)
    np.maximum.accumulate(exact, out=exact)
    running = np.repeat(exact, np.diff(exact_rows, append=M))
    return running, float(running[-1])


def divergence_partial_sums(spec: PolynomialSpec, a: float, js: Sequence[int], workers: int = 1) -> list:
    """Partial sums S_J = (1/A) sum_{j=0}^{J} |sum_k a_k^2 cos(lambda_k j a)|
    for each requested J (ascending).

    Coefficients must be non-vanishing on the range (the sequence flag is
    required); linear independence of the frequencies is the caller's
    assertion.  S_J is non-decreasing in J and scale-invariant in the
    coefficients.  The phases a J lambda_k must stay below 2^52 in size,
    where a float still has fractional bits to measure.

    The terms j = 0..J are added in summation units: each ladder rung,
    cut every 2^22/N rows, which bounds the one reused buffer.  ``workers``
    threads of the shared pool fill a unit's |cos(...) @ a^2| values
    (``_abs_products``); each unit is then summed with one ``np.sum`` over
    its values, and the unit sums are added in order.  Neither the units
    nor the values depend on the worker count, so S_J is bit-identical for
    any worker count.  A scan of (largest J + 1) * N values over
    ENUM_BUDGET raises BudgetError before any term is added.
    """
    if a <= 0.0:
        raise DomainError(f"step a={a} must be positive")
    ladder = [int(j) for j in js]
    if not ladder or any(j < 0 for j in ladder) or sorted(ladder) != ladder:
        raise DomainError("J ladder must be a nondecreasing list of nonnegative integers")
    if not spec.coeffs.nonvanishing:
        raise DomainError("divergence sums require a non-vanishing coefficient sequence flag")
    if (ladder[-1] + 1) * spec.n_terms > ENUM_BUDGET:
        raise BudgetError(f"divergence scan size ({ladder[-1]} + 1)*{spec.n_terms} exceeds {ENUM_BUDGET}")
    a2 = power_sum(spec, 2)
    if a2 <= 0.0:
        raise DomainError("A(x) must be positive")
    aa = spec.coeff_values() ** 2
    lam = spec.angular_freqs()
    phase = a * ladder[-1] * float(np.abs(lam).max(initial=0.0))
    if not phase < 2.0**52:
        raise DomainError(f"phases up to {phase:.4g} leave a float no fractional bits (need < 2^52)")

    def rows(s, e):
        return np.cos(np.outer(np.arange(s, e, dtype=float) * a, lam))

    chunk = max(1, (1 << 22) // max(lam.size, 1))
    values = np.empty(min(chunk, ladder[-1] + 1))
    sums = []
    running = 0.0
    cursor = 0
    for j_stop in ladder:
        while cursor <= j_stop:
            stop = min(cursor + chunk, j_stop + 1)
            running += float(np.sum(_abs_products(rows, aa, cursor, stop, values[: stop - cursor], workers)))
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
    a: float,
    omega: int,
    beta: float,
    c: float,
    sample_ts: Sequence[float],
) -> LatticeCorrelation:
    """Exact correlations of the cosine half-process across lattice sample
    points, against the cap eta = 1 - 2/omega and the variance floor eta*A.

    Admissibility: c in (0, 2/pi), (c/2) beta^2 < 1, omega > 12 pi /
    (c (pi beta)^2).  Sample points must pass the sine-form 1/omega filter
    max_k |sin(lambda_k t - beta)| <= 1/omega (points produced by a lattice
    search on frequencies a*lambda_k/pi with target beta/pi and precision
    omega' >= pi*omega pass it); failing points are rejected.

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
    a2 = power_sum(spec, 2)
    if a2 <= 0.0:
        raise DomainError("A(x) must be positive")
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
    if m > 1:
        off = corr[~np.eye(m, dtype=bool)]
        max_off = float(off.max())
    else:
        max_off = -math.inf
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
