"""Seeded Monte Carlo engine for path and vector suprema.

Reproducibility contract: a Philox stream keyed by the 64-bit seed is laid
out as a fixed table of raw 64-bit draws; replication ``r`` owns the rows
``[r * pad, (r + 1) * pad)`` where ``pad`` is the per-replication draw count
rounded up to the 4-draw Philox block.  Uniforms are ``((raw >> 11) + 0.5) *
2^-53`` (strictly inside (0, 1)), computed as ``Generator(Philox).random() +
2^-54``: ``random()`` reads the same raw stream and returns (raw >> 11) *
2^-53, and scaling by a power of two commutes with rounding (no value is
subnormal), so the two forms agree bit for bit.  Normals go through the
inverse CDF, so every replication consumes a fixed, known number of draws.
The inverse CDF is ``scipy.special.ndtri``, which ``_normal`` imports at
the first draw: importing this module loads no scipy.  Path draws come in
the per-term order (g_y, g'_y, g_{y+1}, ...), and the design matrix has
rows interleaved the same way (a_k cos(w_k u), a_k sin(w_k u)), so a chunk of
paths is one GEMM of its draws against that matrix.  The replication range
is split into near-equal chunks (at most 2^18 output values each), in a
count that is a multiple of 4 where the 64-row floor allows, so 1, 2 or 4
workers get equal shares; the bounds depend only on the replication count
and the output width, never on the worker count.  Workers take whole
chunks, counts add up in chunk order and a mean sums all replications at
once, which makes results bit-identical for any worker count.

Every estimator runs through one per-replication map, ``_map_projected``: a
chunk's draws are projected through one matrix (the design matrix for a
path, its difference for a coupled pair, F^T for a vector X = F z, the 2x2
identity for the Gebelein pair), and one statistic turns each projected
block into one value per replication.  Every sup estimator keeps the grid
maximum (or the maximum of |.|) of each replication, and a probability
counts the maxima <= theta.  A path sup probability passes its theta into
the pass as a cap, above which a maximum may read +inf (below).  The
decoupling box test keeps a flag and the Gebelein pair a product.
Several matrices of one shape can share a chunk's draws, one GEMM each (a
single GEMM against the concatenated matrices would round differently):
``mc_sup_probs`` estimates a process and its rational-frequency companion
on one draw table, and ``mc_sup_prob`` is its one-spec case.  Estimates
count in chunk order, or sum the concatenated chunk values.  The map rejects
reps < 1 before any draw, and ``normal_draws`` rejects seeds outside
[0, 2^64) and negative replication ranges or widths.

Sup probabilities project the folded half grid.  A grid is an arithmetic
progression, so its nodes are c -+ s_j about its midpoint c, and
X(c -+ s) = C(s) -+ S(s) with C(s) = sum a_k h_k cos(w_k s) and
S(s) = sum a_k h'_k sin(w_k s), where (h_k, h'_k) are the replication's
(g_k, g'_k) turned by the angle w_k c.  A chunk turns its draws (O(m) per
replication) and runs two (rows, m) @ (m, ceil(N/2)) GEMMs, against the cos
and sin rows of the half grid's design matrix read as views; the grid
maximum is max_j (C_j + |S_j|).  That halves the projection flops and the
design-matrix entries.  The chunk bounds and the design budget stay those
of the full grid.  The maxima equal the full projection's only to rounding
(a few ulps of the path scale), so the counts at a threshold are those of
``sample_path``'s maxima unless a maximum lies within that rounding of
theta.  Means, coupled differences (two frequency sets, nothing to save)
and ``sample_path`` keep the interleaved design matrix and its bytes.

A sup probability is asked mostly at thresholds below the typical
supremum, where most paths pass theta somewhere.  So ``mc_sup_probs``
passes each theta as its fold's cap, and a chunk first projects onto a
screen, every _SCREEN_STRIDE-th half-grid column (a sixteenth of the
flops).  A replication whose screened maximum exceeds the cap by more than
a rounding margin has a grid maximum above it too and reads +inf; only the
others run the two full GEMMs.  The counts at every theta <= cap are those
of the exact maxima.  ``_grid_maxima`` without caps gives every maximum.

Design matrices are filled on the worker pool too, in blocks of whole
terms of a fixed number of values; each element is computed on its own, so
the matrix bytes depend on neither the blocks nor the worker count.

Thread pools are kept per worker count and reused across calls, and this
module is the only one that builds them.  ``ordered_map`` runs a function
over a list of tasks on the cached pool and returns the results in task
order; ``_map_projected`` uses it for chunks of replications and
``_design_matrix`` for blocks of terms, and no other module uses it (the
lattice kernels in ``kronecker`` run on the calling thread).  Callers cut
their tasks without regard to the worker count and merge results in task
order, which keeps every result bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._normal import ndtri
from .errors import BudgetError, DomainError, FactorizationError
from .spectrum import PolynomialSpec, node_floor

__all__ = [
    "CHUNK_REPS",
    "Z95",
    "CovarianceSpec",
    "GridSpec",
    "McEstimate",
    "mc_expected_sup_diff",
    "mc_expected_sup_path",
    "mc_expected_sup_vector",
    "mc_sup_prob",
    "mc_sup_probs",
    "mc_vector_sup_prob",
    "normal_draws",
    "ordered_map",
    "sample_path",
    "sup_diff_samples",
    "wilson_half_width",
]

Z95 = 1.959963984540054  # ndtri(0.975)
CHUNK_REPS = 8192  # most replications in one chunk; chunk boundaries never depend on workers
_DESIGN_BLOCK = 1 << 14  # values per design-matrix fill task: a fixed size, never the worker count
GRID_BUDGET = 1 << 25  # hard cap on grid nodes and on design-matrix entries (256 MiB of floats)
_COLUMN_MAX_WIDTH = 32  # below this width a column loop beats max(axis=1) on 8192-row chunks
_SCREEN_STRIDE = 16  # a capped sup probability screens every 16th half-grid column first


def normal_draws(seed: int, rep_start: int, n_reps: int, draws_per_rep: int) -> np.ndarray:
    """Standard normals for replications [rep_start, rep_start + n_reps).

    Shape (n_reps, draws_per_rep), C-contiguous.  The draw table depends
    only on the seed, so any partition of the replication range reproduces
    the same values.  A seed outside [0, 2^64) or a negative start, count
    or width is a domain error before any draw.

    The uniforms come from ``Generator(Philox).random()``, which reads the
    same raw 64-bit stream as ``random_raw`` and returns k * 2^-53 with
    k = raw >> 11, in one pass and one (n_reps, pad) array.  Adding 2^-54
    gives the contract's ((raw >> 11) + 0.5) * 2^-53 bit for bit: scaling by
    a power of two commutes with rounding and no value is subnormal, so
    fl(k * 2^-53 + 2^-54) = fl(k + 1/2) * 2^-53, also for k >= 2^52, where
    k + 1/2 rounds to even.  The offset copies the leading draws_per_rep
    columns into the returned array (in place when the width needs no
    padding), and ``ndtri`` runs on it in place.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    if rep_start < 0 or n_reps < 0 or draws_per_rep < 0:
        raise DomainError(
            f"draw range needs rep_start, n_reps and draws_per_rep >= 0, got {rep_start}, {n_reps}, {draws_per_rep}"
        )
    pad = 4 * ((draws_per_rep + 3) // 4)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(rep_start * pad // 4)
    u = np.random.Generator(bg).random(n_reps * pad).reshape(n_reps, pad)
    z = u if pad == draws_per_rep else np.empty((n_reps, draws_per_rep))
    np.add(u[:, :draws_per_rep], 2.0**-54, out=z)
    del u
    return ndtri(z, out=z)


def wilson_half_width(successes: int, reps: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if reps < 1:
        raise DomainError("wilson_half_width needs reps >= 1")
    p = successes / reps
    z2n = Z95 * Z95 / reps
    return Z95 * math.sqrt(p * (1.0 - p) / reps + z2n / (4.0 * reps)) / (1.0 + z2n)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with replication count, 95% half-width and seed."""

    estimate: float
    reps: int
    half_width: float
    seed: int
    kind: str  # "probability" (Wilson interval) | "mean" (CLT interval)

    def __post_init__(self):
        if self.half_width < 0.0:
            raise DomainError("half_width must be nonnegative")
        if self.kind == "probability" and not 0.0 <= self.estimate <= 1.0:
            raise DomainError(f"probability estimate {self.estimate} outside [0, 1]")

    @property
    def interval(self) -> tuple:
        """(lo, hi) of the 95% interval.  A mean's is the estimate +- the
        half-width; a probability's is the Wilson score interval, the
        half-width about the centre (p + z^2/2n) / (1 + z^2/n), kept inside
        [0, 1] and around p against rounding."""
        if self.kind == "mean":
            return self.estimate - self.half_width, self.estimate + self.half_width
        p, z2n = self.estimate, Z95 * Z95 / self.reps
        centre = (p + z2n / 2.0) / (1.0 + z2n)
        return max(0.0, min(p, centre - self.half_width)), min(1.0, max(p, centre + self.half_width))


class CovarianceSpec:
    """Covariance matrix of a finite Gaussian vector.

    Each constructor builds its matrix once: explicit(matrix),
    block(N, k, u, lam) (N diagonal k x k blocks with off-diagonal u, value
    lam elsewhere), equicorrelated(n, lam) = block(1, n, lam, lam) and
    stationary(gamma(0..n-1)) (the Toeplitz matrix gamma(|i - j|), built by
    numpy indexing; it holds the values ``scipy.linalg.toeplitz`` copies).
    The Cholesky factor is computed on first use; positive semi-definiteness
    is verified by that factorization with a single jitter retry.  The
    block and stationary constructors refuse a dimension n with n^2 >
    GRID_BUDGET before allocating anything (``check_dimension``).
    """

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix
        self._factor: Optional[np.ndarray] = None

    @staticmethod
    def check_dimension(n: int) -> None:
        """Raise BudgetError when an n x n matrix would exceed GRID_BUDGET entries."""
        if n * n > GRID_BUDGET:
            raise BudgetError(f"covariance of dimension {n} ({n * n} entries) exceeds {GRID_BUDGET}")

    @classmethod
    def explicit(cls, matrix) -> "CovarianceSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("explicit covariance must be a square matrix")
        if not np.allclose(m, m.T, atol=1e-12):
            raise DomainError("explicit covariance must be symmetric")
        return cls(m)

    @classmethod
    def equicorrelated(cls, n: int, lam: float) -> "CovarianceSpec":
        if n < 1:
            raise DomainError(f"dimension n={n} < 1")
        if n > 1 and not -1.0 / (n - 1) < lam < 1.0:
            raise DomainError(f"equicorrelated lam={lam} outside (-1/(n-1), 1) for n={n}")
        return cls.block(1, n, lam, lam)

    @classmethod
    def block(cls, N: int, k: int, u: float, lam: float) -> "CovarianceSpec":
        if N < 1 or k < 1:
            raise DomainError(f"block covariance needs N >= 1 and k >= 1, got N={N}, k={k}")
        cls.check_dimension(N * k)
        m = np.full((N * k, N * k), float(lam))
        for j in range(N):
            sl = slice(j * k, (j + 1) * k)
            m[sl, sl] = float(u)
        np.fill_diagonal(m, 1.0)
        return cls(m)

    @classmethod
    def stationary(cls, gammas: Sequence[float]) -> "CovarianceSpec":
        g = np.asarray(gammas, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise DomainError("stationary covariance needs gamma(0..n-1)")
        if g[0] <= 0.0:
            raise DomainError("stationary covariance needs gamma(0) > 0")
        cls.check_dimension(g.size)
        idx = np.arange(g.size)
        return cls(g[np.abs(idx[:, None] - idx[None, :])])

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def matrix(self) -> np.ndarray:
        return self._matrix

    def factor(self) -> np.ndarray:
        """Lower-triangular square root; one jitter retry, then a loud failure."""
        if self._factor is None:
            m = self.matrix()
            try:
                self._factor = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * np.trace(m) / self.n
                try:
                    self._factor = np.linalg.cholesky(m + jitter * np.eye(self.n))
                except np.linalg.LinAlgError:
                    smallest = float(np.linalg.eigvalsh(m)[0])
                    raise FactorizationError(
                        f"covariance not PSD even after jitter {jitter:.3e}; "
                        f"smallest eigenvalue ~ {smallest:.3e}"
                    ) from None
        return self._factor


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: either n uniform nodes on [t0, t1] or a step lattice.

    The lattice form covers the cyclic rule nodes j/n, j = 0..z.  Grid
    suprema lower-bound continuous-suprema events: the estimated quantity is
    always P{sup over the GRID <= theta} >= P{sup over the interval <= theta}.
    """

    mode: str  # "uniform" | "lattice"
    t0: float = 0.0
    t1: float = 1.0
    n: int = 0
    step: float = 0.0
    count: int = 0
    start: float = 0.0

    @classmethod
    def uniform(cls, t0: float, t1: float, n: int) -> "GridSpec":
        _require_finite(t0=t0, t1=t1, span=t1 - t0)
        if t1 < t0:
            raise DomainError(f"interval [{t0}, {t1}] reversed")
        if n < 1:
            raise DomainError(f"grid needs n >= 1 nodes, got {n}")
        return cls(mode="uniform", t0=float(t0), t1=float(t1), n=int(n))

    @classmethod
    def lattice(cls, step: float, count: int, start: float = 0.0) -> "GridSpec":
        _require_finite(step=step, start=start)
        if step <= 0.0 or count < 1:
            raise DomainError(f"lattice needs step > 0 and count >= 1, got {step}, {count}")
        _require_finite(last=start + step * (count - 1))
        return cls(mode="lattice", step=float(step), count=int(count), start=float(start))

    @classmethod
    def dense(cls, t0: float, t1: float, per_unit: int = 1024) -> "GridSpec":
        """Default density for continuous-supremum surrogates on [t0, t1]:
        per_unit nodes per unit length (override for high frequencies)."""
        if per_unit < 1:
            raise DomainError(f"per_unit={per_unit} must be at least 1")
        _require_finite(t0=t0, t1=t1, span=t1 - t0)
        n = int(math.ceil((t1 - t0) * per_unit)) + 1
        return cls.uniform(t0, t1, n)

    @classmethod
    def cyclic_rule(cls, spec: PolynomialSpec, eps: float, n: Optional[int] = None) -> "GridSpec":
        """Nodes j/n for j = 0..ceil(n*eps), n >= max(2 pi sum j_k a_k^2, 1/eps)."""
        if spec.freqs.kind != "integer":
            raise DomainError("the cyclic grid rule requires an integer-frequency spec")
        if not 0.0 < eps <= 1.0:
            raise DomainError(f"eps={eps} outside (0, 1]")
        floor_n = max(node_floor(spec), 1.0 / eps)
        _require_finite(n=floor_n if n is None else n)
        n_eff = int(math.ceil(floor_n)) if n is None else int(n)
        if n_eff < floor_n:
            raise DomainError(f"n={n_eff} below the rule floor {floor_n:.3f}")
        z = math.ceil(n_eff * eps)
        return cls.lattice(step=1.0 / n_eff, count=z + 1, start=0.0)

    @property
    def size(self) -> int:
        return self.n if self.mode == "uniform" else self.count

    def nodes(self) -> np.ndarray:
        if self.size > GRID_BUDGET:
            raise BudgetError(f"grid of {self.size} nodes exceeds {GRID_BUDGET}")
        if self.mode == "uniform":
            return np.linspace(self.t0, self.t1, self.n)
        return self.start + self.step * np.arange(self.count)

    def fold(self) -> tuple:
        """(c, s): the midpoint c and offsets s_j >= 0, j < ceil(N/2), such
        that the nodes are c - s_j and c + s_j.

        The nodes are an arithmetic progression, so node j and node N-1-j
        lie at c -+ s_j with c = (first + last)/2 and s_j half their
        distance; an odd grid's middle node is c itself (s = 0).
        """
        nodes = self.nodes()
        half = (nodes.size + 1) // 2
        return 0.5 * (nodes[0] + nodes[-1]), 0.5 * (nodes[::-1][:half] - nodes[:half])


def _require_finite(**values) -> None:
    """Refuse a grid whose endpoints, step or start are NaN or infinite."""
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise DomainError(f"grid {name}={value} is not finite")


def _design_matrix(
    spec: PolynomialSpec, nodes: np.ndarray, workers: int = 1, minus: Optional[PolynomialSpec] = None
) -> np.ndarray:
    """(2m, nodes) matrix with rows 2k, 2k+1 = a_k cos(w_k u), a_k sin(w_k u).

    The row order matches the draw order of ``normal_draws(seed, s, n, 2m)``,
    so ``draws @ matrix`` gives the paths in one GEMM.  With ``minus`` (a
    spec with the same term count) the matrix is the difference D_spec -
    D_minus, subtracted block by block.

    The matrix is filled as one (m, 2, nodes) array in blocks of whole terms
    of about _DESIGN_BLOCK values, on the worker pool; each block writes its
    cosines and sines straight into its interleaved rows and scales them by
    a_k in place.  Every element is the same expression as a_k * cos(w_k u)
    evaluated on its own, so the bytes depend on neither the block size nor
    the worker count.  The pool is kept for speed, not for the bytes: a
    serial fill gave the same path-sweep digests but lost all 8 alternating
    10 s path-sweep benchmark pairs (2 cores; cases_per_s 107.2 -> 100.0,
    case_ms_p50 8.18 -> 8.63 ms, case_ms_p90 16.7 -> 18.0 ms).  Two whole
    fills and ``-=`` for ``minus`` gave the same bytes, but slower at workers
    = 2 on 2 cores: 2.11 -> 3.21 ms at 577 nodes, 5.52 -> 7.62 ms at 961, and
    399-478 -> 447-504 ms on the 40 coupled sup-difference cases.
    """
    m = spec.n_terms
    _check_design_budget(m, nodes.size)
    out = np.empty((m, 2, nodes.size))
    rows = max(1, _DESIGN_BLOCK // (2 * max(nodes.size, 1)))
    a, w = spec.coeff_values(), spec.angular_freqs()
    if minus is not None:
        a_minus, w_minus = minus.coeff_values(), minus.angular_freqs()

    def terms(a, w, sl, dst):
        """dst[k] = (a_k cos(w_k u), a_k sin(w_k u)) for the terms in sl."""
        phase = np.multiply.outer(w[sl], nodes)
        np.cos(phase, out=dst[:, 0])
        np.sin(phase, out=dst[:, 1])
        dst *= a[sl, None, None]

    def fill(start):
        sl = slice(start, min(start + rows, m))
        terms(a, w, sl, out[sl])
        if minus is not None:
            other = np.empty_like(out[sl])
            terms(a_minus, w_minus, sl, other)
            out[sl] -= other

    ordered_map(fill, range(0, m, rows), workers)
    return out.reshape(2 * m, nodes.size)


def _check_design_budget(m: int, n_nodes: int) -> None:
    """Raise BudgetError when a design matrix of m terms on n_nodes nodes
    would exceed GRID_BUDGET entries."""
    if 2 * m * n_nodes > GRID_BUDGET:
        raise BudgetError(f"design matrix 2*{m} x {n_nodes} exceeds {GRID_BUDGET} entries")


class _Fold(NamedTuple):
    """A spec's paths on a grid, folded about the grid's midpoint c.

    With the grid's nodes at c -+ s_j (``GridSpec.fold``), X(c -+ s_j) =
    C_j -+ S_j, where C = h @ cos_rows and S = h' @ sin_rows and each
    replication's draws are turned by w_k c:
    h_k = g_k cos(w_k c) + g'_k sin(w_k c), h'_k = g'_k cos(w_k c) - g_k sin(w_k c).

    The screen is every _SCREEN_STRIDE-th half-grid column of the same rows,
    copied contiguous.  A finite ``cap`` lets ``_fold_maxima`` report +inf
    for a replication whose screened maximum already lies above it.
    """

    cos_rows: np.ndarray  # (m, ceil(N/2)) a_k cos(w_k s_j): the even rows of the half-grid design matrix
    sin_rows: np.ndarray  # (m, ceil(N/2)) a_k sin(w_k s_j): its odd rows
    turn_cos: np.ndarray  # (m,) cos(w_k c)
    turn_sin: np.ndarray  # (m,) sin(w_k c)
    shape: tuple  # (2m, N): draws per replication and the grid nodes it stands for
    cos_screen: np.ndarray  # cos_rows[:, ::_SCREEN_STRIDE], contiguous
    sin_screen: np.ndarray  # sin_rows[:, ::_SCREEN_STRIDE], contiguous
    abs_coeffs: np.ndarray  # (m,) |a_k|, which bounds every entry of row k
    cap: float = math.inf  # maxima above it may read +inf


def _fold(spec: PolynomialSpec, grid: GridSpec, workers: int, cap: float = math.inf) -> _Fold:
    """The folded projection of ``spec`` on ``grid``: half the design-matrix
    entries of the full grid, read as views, and its screen.  The budgets
    stay the full grid's: the node count's first, then 2*m*N before any
    matrix entry is allocated."""
    centre, offsets = grid.fold()
    _check_design_budget(spec.n_terms, grid.size)
    design = _design_matrix(spec, offsets, workers)
    phase = spec.angular_freqs() * centre
    cos_rows, sin_rows = design[0::2], design[1::2]
    return _Fold(
        cos_rows,
        sin_rows,
        np.cos(phase),
        np.sin(phase),
        (2 * spec.n_terms, grid.size),
        np.ascontiguousarray(cos_rows[:, ::_SCREEN_STRIDE]),
        np.ascontiguousarray(sin_rows[:, ::_SCREEN_STRIDE]),
        np.abs(spec.coeff_values()),
        cap,
    )


def _half_grid_max(h: np.ndarray, h_prime: np.ndarray, cos_rows: np.ndarray, sin_rows: np.ndarray) -> np.ndarray:
    """Row maxima of C + |S| = h @ cos_rows + |h' @ sin_rows|, two GEMMs:
    the larger of X(c - s_j) and X(c + s_j) at each column j."""
    block = h @ cos_rows
    odd = h_prime @ sin_rows
    block += np.abs(odd, out=odd)
    return _row_max(block)


def _fold_maxima(draws: np.ndarray, fold: _Fold) -> np.ndarray:
    """The grid maximum of each replication's path, or +inf where it lies
    above ``fold.cap`` (equal to the row maxima of ``draws @ D`` up to
    rounding).

    The draws are turned once.  With a finite cap the screen's columns go
    first; a row whose screened maximum minus its margin
    8 m eps sum_k |a_k| (|h_k| + |h'_k|) exceeds the cap reads +inf, and
    only the other rows run the two full half-grid GEMMs.  A screened
    column and its full-grid twin are two BLAS evaluations of the same
    length-m dot products, each within gamma_m sum_k |a_k h_k| of the exact
    value, gamma_m ~ m eps / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1).  With the final addition the two values of C + |S|
    at a node differ by at most (m + 1) eps sum_k |a_k| (|h_k| + |h'_k|),
    a quarter of the margin or less, so a row read as +inf has a full-grid
    maximum above the cap.  With cap = +inf the screen is skipped and every
    row runs the full GEMMs.
    """
    g, g_prime = draws[:, 0::2], draws[:, 1::2]
    h = g * fold.turn_cos
    h += g_prime * fold.turn_sin
    h_prime = g_prime * fold.turn_cos
    h_prime -= g * fold.turn_sin
    if fold.cap == math.inf:
        return _half_grid_max(h, h_prime, fold.cos_rows, fold.sin_rows)
    margin = np.abs(h) + np.abs(h_prime)
    margin = margin @ fold.abs_coeffs
    margin *= 8.0 * h.shape[1] * np.finfo(float).eps
    maxima = _half_grid_max(h, h_prime, fold.cos_screen, fold.sin_screen)
    maxima -= margin
    open_rows = np.flatnonzero(~(maxima > fold.cap))
    maxima.fill(math.inf)
    maxima[open_rows] = _half_grid_max(h[open_rows], h_prime[open_rows], fold.cos_rows, fold.sin_rows)
    return maxima


def _chunk_bounds(reps: int, nodes: int) -> list:
    """Fixed chunking of the replication range (independent of workers).

    A chunk holds at most ``per`` replications: 2^18 output values (2 MiB
    of float64, one core's L2 cache), kept between 64 and CHUNK_REPS rows,
    so outputs up to 32 wide allow CHUNK_REPS-row chunks.  The range is cut
    into near-equal chunks (sizes differ by at most one row), and their
    count is rounded up to a multiple of 4 unless that would leave a chunk
    under 64 rows, so 1, 2 or 4 workers get equal shares.  The count never
    falls below ceil(reps / per), which keeps every chunk within the cap.
    The boundaries depend only on (reps, nodes).
    """
    per = CHUNK_REPS
    if nodes > 0:
        per = max(64, min(CHUNK_REPS, (1 << 18) // nodes))
    count = max(-(-reps // per), min(4 * -(-reps // (4 * per)), reps // 64))
    return [(reps * i // count, reps * (i + 1) // count) for i in range(count)]


@lru_cache(maxsize=4)
def _executor(workers: int) -> ThreadPoolExecutor:
    """One pool per worker count, reused across calls; an evicted pool's
    idle threads exit when it is garbage-collected."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):
    # A forked child inherits the cached pools but not their threads, so a
    # pool reused there would wait forever; the child starts fresh pools.
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _map_projected(
    matrices: Sequence, stat: Callable, seed: int, reps: int, workers: int, project: Callable = np.matmul
) -> list:
    """``stat(project(draws, matrix))`` for each matrix and every chunk of
    replications, in chunk order: one list per matrix.

    Each chunk's draws are generated once and projected through every
    matrix in turn, by default one GEMM per matrix, so coupled estimates
    read the same draws; the matrices must share their shape (width,
    outputs), which fixes the draws per replication and the chunk bounds.
    ``stat`` maps a chunk's projected block to one value per replication;
    it owns its argument and may overwrite it.  A ``_Fold`` with
    ``project=_fold_maxima`` stands for its full grid; that kernel returns
    the row maxima itself (one above the fold's cap may read +inf), so its
    ``stat`` is the identity.  The chunks are those of ``_chunk_bounds``: near-equal, a
    multiple of 4 where the range allows, so the pool's workers get equal
    shares.  reps < 1 is refused before any draw.
    """
    if reps < 1:
        raise DomainError(f"Monte Carlo estimates need reps >= 1, got {reps}")
    width, outputs = matrices[0].shape
    if any(matrix.shape != (width, outputs) for matrix in matrices):
        raise DomainError("projected matrices must share their shape")

    def run(chunk):
        s, e = chunk
        draws = normal_draws(seed, s, e - s, width)
        *rest, last = matrices
        values = [stat(project(draws, matrix)) for matrix in rest]
        block = project(draws, last)
        # free the draws before the last statistic allocates; holding them
        # cost one-matrix maps 8-9% at workers=1 (2-core Xeon)
        del draws
        return values + [stat(block)]

    chunks = ordered_map(run, _chunk_bounds(reps, outputs), workers)
    return [[parts[i] for parts in chunks] for i in range(len(matrices))]


def ordered_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, on the cached pool when there are
    several workers and several items.  Results come back in item order
    whatever order the workers finish in, so a caller that merges them in
    that order gets the same answer for any worker count."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return list(_executor(workers).map(fn, items))


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)``; narrow arrays go column by column, which avoids
    numpy's per-row overhead on a short reduction axis."""
    if x.shape[1] >= _COLUMN_MAX_WIDTH:
        return x.max(axis=1)
    m = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j], out=m)
    return m


def _abs_row_max(x: np.ndarray) -> np.ndarray:
    """``_row_max(|x|)``, taking the absolute value in place."""
    return _row_max(np.abs(x, out=x))


def sample_path(spec: PolynomialSpec, grid: GridSpec, seed: int, reps: int = 1, rep_start: int = 0) -> np.ndarray:
    """Sample paths on the grid, shape (reps, n_nodes).

    The Gaussians are read from the seed's draw table in a fixed per-k
    interleaved order (g_y, g'_y, g_{y+1}, ...), independent of the grid, so
    two specs sharing a range and seed consume identical (g, g') pairs.
    """
    return normal_draws(seed, rep_start, reps, 2 * spec.n_terms) @ _design_matrix(spec, grid.nodes())


def _check_threshold(theta: float) -> None:
    """NaN would count no replication (max <= NaN is false); -+inf are valid."""
    if math.isnan(theta):
        raise DomainError(f"threshold theta={theta} is NaN")


def _grid_maxima(
    specs: Sequence[PolynomialSpec],
    grid: GridSpec,
    seed: int,
    reps: int,
    workers: int,
    caps: Optional[Sequence[float]] = None,
) -> list:
    """Each spec's per-chunk grid maxima of its paths, on one draw table:
    the folded projection, one list of chunk arrays per spec.

    A maximum above its spec's cap may read +inf, so the count of maxima
    <= theta is exact at every theta <= cap.  With ``caps=None`` every
    maximum is exact."""
    caps = [math.inf] * len(specs) if caps is None else caps
    folds = [_fold(spec, grid, workers, cap) for spec, cap in zip(specs, caps)]
    return _map_projected(folds, np.asarray, seed, reps, workers, project=_fold_maxima)


def _prob_estimate(parts: list, reps: int, seed: int, theta: Optional[float] = None) -> McEstimate:
    """Share of replications whose value is <= theta, over per-chunk arrays
    (whose flag is set, when theta is None)."""
    count = sum(int(np.count_nonzero(values if theta is None else values <= theta)) for values in parts)
    return McEstimate(
        estimate=count / reps,
        reps=reps,
        half_width=wilson_half_width(count, reps),
        seed=seed,
        kind="probability",
    )


def _mean_estimate(parts: list, reps: int, seed: int) -> McEstimate:
    """Mean of per-replication values, summed over all replications at
    once, so it does not depend on how they were split into parts."""
    values = np.concatenate(parts)
    total = float(values.sum())
    total_sq = float((values * values).sum())
    mean = total / reps
    var = max(0.0, (total_sq - total * total / reps) / max(reps - 1, 1))
    return McEstimate(
        estimate=mean,
        reps=reps,
        half_width=Z95 * math.sqrt(var / reps),
        seed=seed,
        kind="mean",
    )


def mc_sup_probs(
    specs: Sequence[PolynomialSpec],
    grid: GridSpec,
    thetas: Sequence[float],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list:
    """P{max over grid nodes <= theta} for each (spec, theta) pair, on one
    draw table.

    The specs must share their term count.  Each chunk's draws are made once
    and projected through every spec's grid folded about its midpoint
    (``_Fold``), so X and a companion built from the same (g_k, g'_k) are
    estimated on the same paths, and each estimate equals the one
    ``mc_sup_prob`` gives for its spec alone.  A NaN theta is refused before
    any draw; -+inf give 0 and 1.
    """
    if not specs or len(specs) != len(thetas):
        raise DomainError(f"need specs and one threshold per spec, got {len(specs)} specs, {len(thetas)} thresholds")
    if len({spec.n_terms for spec in specs}) > 1:
        raise DomainError("specs on one draw table must share their term count")
    for theta in thetas:
        _check_threshold(theta)
    maxima = _grid_maxima(specs, grid, seed, reps, workers, caps=thetas)
    return [_prob_estimate(parts, reps, seed, theta) for parts, theta in zip(maxima, thetas)]


def mc_sup_prob(
    spec: PolynomialSpec,
    grid: GridSpec,
    theta: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """P{max over grid nodes <= theta} with a Wilson interval."""
    return mc_sup_probs([spec], grid, [theta], reps, seed, workers)[0]


def mc_vector_sup_prob(
    cov: CovarianceSpec,
    theta: float,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """P{max_i X_i <= theta} (or max |X_i| with absolute=True) for X = F z."""
    _check_threshold(theta)
    [maxima] = _map_projected([cov.factor().T], _abs_row_max if absolute else _row_max, seed, reps, workers)
    return _prob_estimate(maxima, reps, seed, theta)


def mc_expected_sup_path(
    spec: PolynomialSpec,
    grid: GridSpec,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """Mean grid supremum of the path (its absolute value with absolute=True)."""
    matrix = _design_matrix(spec, grid.nodes(), workers)
    [sups] = _map_projected([matrix], _abs_row_max if absolute else _row_max, seed, reps, workers)
    return _mean_estimate(sups, reps, seed)


def sup_diff_samples(
    spec_a: PolynomialSpec,
    spec_b: PolynomialSpec,
    grid: GridSpec,
    reps: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Per-replication sup |X_a - X_b| over the grid, coupled through the seed.

    Both specs must share the index range; the coupled difference is
    evaluated through the differenced design matrix D_a - D_b, formed block
    by block while it is filled, so identical specs give exact zeros.
    """
    if (spec_a.y, spec_a.x) != (spec_b.y, spec_b.x):
        raise DomainError("coupled specs must share the index range [y, x]")
    dmat = _design_matrix(spec_a, grid.nodes(), workers, minus=spec_b)
    [parts] = _map_projected([dmat], _abs_row_max, seed, reps, workers)
    return np.concatenate(parts)


def mc_expected_sup_diff(
    spec_a: PolynomialSpec,
    spec_b: PolynomialSpec,
    grid: GridSpec,
    reps: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Mean of sup |X_a - X_b| over the grid for the coupled pair."""
    return _mean_estimate([sup_diff_samples(spec_a, spec_b, grid, reps, seed, workers)], reps, seed)


def mc_expected_sup_vector(
    cov: CovarianceSpec,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """Mean of max_i X_i (or max |X_i|) for the Gaussian vector X = F z."""
    [sups] = _map_projected([cov.factor().T], _abs_row_max if absolute else _row_max, seed, reps, workers)
    return _mean_estimate(sups, reps, seed)
