"""Seeded Monte Carlo engine for path and vector suprema.

Reproducibility contract: a Philox stream keyed by the 64-bit seed is laid
out as a fixed table of raw 64-bit draws; replication ``r`` owns the rows
``[r * pad, (r + 1) * pad)`` where ``pad`` is the per-replication draw count
rounded up to the 4-draw Philox block.  Uniforms are ``((raw >> 11) + 0.5) *
2^-53``, computed as ``Generator(Philox).random() + 2^-54`` (``_uniforms``
then ``_normals``): ``random()`` reads the same raw stream and returns
(raw >> 11) * 2^-53, and scaling by a power of two commutes with rounding
(no value is subnormal), so the two forms agree bit for bit.  They lie in
(0, 1], not strictly inside it: for raw >> 11 = 2^53 - 1, (2^53 - 1) + 1/2
rounds to 2^53, so u = 1 and its normal is +inf, with probability 2^-53
per draw.  The draws keep those bytes; no clamp is applied.  Normals go
through the inverse CDF, so every replication consumes a fixed, known
number of draws.  The inverse CDF is ``scipy.special.ndtri``, which
``_normal`` imports at the first draw: importing this module loads no
scipy.  Path draws come in
the per-term order (g_y, g'_y, g_{y+1}, ...), and the design matrix has
rows interleaved the same way (a_k cos(w_k u), a_k sin(w_k u)), so a chunk of
paths is one GEMM of its draws against that matrix.  The replication range
is split into near-equal chunks (at most 2^18 output values each), in a
count that is a multiple of 4 where the 64-row floor allows, so 1, 2 or 4
workers get equal shares; the bounds depend only on the replication count
and the output width, never on the worker count.  Workers take whole
chunks, counts add up in chunk order and a mean sums all replications at
once, which makes results bit-identical for any worker count.

Every estimator runs through one chunk map, ``_map_chunks``, which cuts
the replication range and returns the chunks' values in chunk order.  Most
run ``_map_projected`` on it: a chunk's draws are projected through one
matrix (the design matrix for a path, its difference for a coupled pair,
F^T for a vector X = F z, the 2x2 identity for the Gebelein pair), and one
statistic turns each projected block into one value per replication.
Every sup estimator keeps the grid maximum (or the maximum of |.|) of each
replication, and a probability counts the maxima <= theta.  A path sup
probability runs ``_chunk_maxima`` instead, with its theta as a cap above
which a maximum may read +inf (below).  The decoupling box test keeps a
flag and the Gebelein pair a product.
Several matrices of one shape can share a chunk's draws, one GEMM each (a
single GEMM against the concatenated matrices would round differently):
``mc_sup_probs`` estimates a process and its rational-frequency companion
on one draw table, and ``mc_sup_prob`` is its one-spec case.  Estimates
count in chunk order, or sum the concatenated chunk values.  The map rejects
reps < 1 before any draw, and ``_uniforms`` rejects seeds outside
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
passes each theta as its fold's cap, and a replication whose grid maximum
is shown to lie above the cap reads +inf; the counts at every theta <= cap
are those of the exact maxima.  Two screens show it, both on every
_SCREEN_STRIDE-th half-grid column (a sixteenth of the flops).  The first
needs no normal: each uniform's bin in a table of 2^_TABLE_BITS quantiles
brackets its normal, and a replication whose screened maximum on the
bracket midpoints exceeds the cap by more than the brackets' reach and a
rounding margin is settled before ``ndtri`` runs.  Only the rows that some
fold leaves open get their normals, and each fold runs its exact pass on
them: the second screen, on the exact normals with its own rounding
margin, then the two full GEMMs for the rows still open.  A chunk first
brackets its first eighth of rows and goes on only where most of them
settle, so a chunk at a high P{max <= theta} draws every row as before and
drops the screens that would not pay.  ``_grid_maxima`` without caps gives
every maximum.

Design matrices are filled on the worker pool too, in blocks of whole
terms of a fixed number of values; each element is computed on its own, so
the matrix bytes depend on neither the blocks nor the worker count.

Thread pools are kept per worker count and reused across calls, and this
module is the only one that builds them.  ``ordered_map`` runs a function
over a list of tasks on the cached pool and returns the results in task
order; ``_map_chunks`` uses it for chunks of replications and
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
_TABLE_BITS = 12  # it brackets each normal in one of 2^12 equal-probability bins before any ndtri
_BRACKET_BLOCK = 1 << 17  # most bracketed draws read at once: large enough for numpy to drop the GIL
_PILOT_DIVISOR = 8  # a capped chunk brackets its first ceil(rows / 8) rows first;
_BRACKET_SHARE = 0.75  # it brackets the rest where this share of those settles in every fold,
_SCREEN_SHARE = 0.125  # and a fold screens its open rows where this share settles in it


def normal_draws(seed: int, rep_start: int, n_reps: int, draws_per_rep: int) -> np.ndarray:
    """Standard normals for replications [rep_start, rep_start + n_reps).

    Shape (n_reps, draws_per_rep), C-contiguous.  The draw table depends
    only on the seed, so any partition of the replication range reproduces
    the same values.  A seed outside [0, 2^64) or a negative start, count
    or width is a domain error before any draw.  The normals are
    ``ndtri(u + 2^-54)`` of the ``_uniforms`` block, one (n_reps, pad)
    array, and ``_normals`` turns it into them.
    """
    return _normals(_uniforms(seed, rep_start, n_reps, draws_per_rep), draws_per_rep)


def _uniforms(seed: int, start: int, n: int, width: int) -> np.ndarray:
    """The (n, pad) block of ``Generator(Philox).random()`` values of
    replications [start, start + n), pad = width rounded up to 4.

    ``random()`` reads the same raw 64-bit stream as ``random_raw`` and
    returns k * 2^-53 with k = raw >> 11, in one pass and one array.  A
    seed outside [0, 2^64) or a negative start, count or width is a domain
    error before any draw.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    if start < 0 or n < 0 or width < 0:
        raise DomainError(f"draw range needs rep_start, n_reps and draws_per_rep >= 0, got {start}, {n}, {width}")
    pad = 4 * ((width + 3) // 4)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(start * pad // 4)
    return np.random.Generator(bg).random(n * pad).reshape(n, pad)


def _normals(u: np.ndarray, width: int) -> np.ndarray:
    """ndtri(u + 2^-54) of the leading ``width`` columns of a block of
    ``_uniforms`` rows, which it consumes: the offset writes into ``u``
    itself when the width needs no padding, else into a new contiguous
    array, and ``ndtri`` runs on the result in place.

    Adding 2^-54 gives the contract's ((raw >> 11) + 0.5) * 2^-53 bit for
    bit: scaling by a power of two commutes with rounding and no value is
    subnormal, so fl(k * 2^-53 + 2^-54) = fl(k + 1/2) * 2^-53, also for
    k >= 2^52, where k + 1/2 rounds to even.
    """
    z = u if u.shape[1] == width else np.empty((u.shape[0], width))
    np.add(u[:, :width], 2.0**-54, out=z)
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
    copied contiguous.  ``_fold_maxima`` and ``_bracket_settled`` use it to
    find replications whose maximum lies above a cap without the full grid.
    """

    cos_rows: np.ndarray  # (m, ceil(N/2)) a_k cos(w_k s_j): the even rows of the half-grid design matrix
    sin_rows: np.ndarray  # (m, ceil(N/2)) a_k sin(w_k s_j): its odd rows
    turn_cos: np.ndarray  # (m,) cos(w_k c)
    turn_sin: np.ndarray  # (m,) sin(w_k c)
    shape: tuple  # (2m, N): draws per replication and the grid nodes it stands for
    cos_screen: np.ndarray  # cos_rows[:, ::_SCREEN_STRIDE], contiguous
    sin_screen: np.ndarray  # sin_rows[:, ::_SCREEN_STRIDE], contiguous
    abs_coeffs: np.ndarray  # (m,) |a_k|, which bounds every entry of row k


def _fold(spec: PolynomialSpec, grid: GridSpec, workers: int) -> _Fold:
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
    )


def _half_grid_max(h: np.ndarray, h_prime: np.ndarray, cos_rows: np.ndarray, sin_rows: np.ndarray) -> np.ndarray:
    """Row maxima of C + |S| = h @ cos_rows + |h' @ sin_rows|, two GEMMs:
    the larger of X(c - s_j) and X(c + s_j) at each column j."""
    block = h @ cos_rows
    odd = h_prime @ sin_rows
    block += np.abs(odd, out=odd)
    return _row_max(block)


def _fold_maxima(draws: np.ndarray, fold: _Fold, cap: float = math.inf) -> np.ndarray:
    """The grid maximum of each replication's path, or +inf where it lies
    above ``cap`` (equal to the row maxima of ``draws @ D`` up to rounding).

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

    ``_bracket_settled`` screens before any normal exists.  Each draw z lies
    within delta of its bracket's midpoint g^ (``_bracket_table``).  The
    folded value at a node is the path there rewritten, linear in the
    draws; in exact arithmetic on the stored design entries and turns, whose
    (cos, sin) pairs have Euclidean norms |a_k| and 1 to an ulp, the values
    from z and from g^ differ by at most E = sum_k |a_k| (delta_k + delta'_k)
    (Cauchy-Schwarz, term by term).  Rounding adds at most
    (m + 5)/2 eps sum_k |a_k| (|h_k| + |h'_k|) to the exact pass (two
    roundings in each turn, the dot products, the final addition), where
    |h_k| + |h'_k| <= sqrt(2) (|z_k| + |z'_k|), and at most
    (2m + 3) eps sum_k |a_k| (|g^_k| + |g^'_k|) to the bracketed screen,
    whose 2m-long dot products read the turn folded into its matrix.  As
    |z_k| <= |g^_k| + delta_k <= R, R the largest |g^| + delta of a finite
    bracket, each of these sums is at most 2 R sum_k |a_k|.  So a row whose
    bracketed screen maximum exceeds the cap by E + 16 (m + 1) eps R
    sum_k |a_k|, which also covers the rounding of E and of the
    subtraction, has every computed full-grid maximum above the cap.
    """
    g, g_prime = draws[:, 0::2], draws[:, 1::2]
    h = g * fold.turn_cos
    h += g_prime * fold.turn_sin
    h_prime = g_prime * fold.turn_cos
    h_prime -= g * fold.turn_sin
    if cap == math.inf:
        return _half_grid_max(h, h_prime, fold.cos_rows, fold.sin_rows)
    margin = np.abs(h) + np.abs(h_prime)
    margin = margin @ fold.abs_coeffs
    margin *= 8.0 * h.shape[1] * np.finfo(float).eps
    maxima = _half_grid_max(h, h_prime, fold.cos_screen, fold.sin_screen)
    maxima -= margin
    open_rows = np.flatnonzero(~(maxima > cap))
    maxima.fill(math.inf)
    maxima[open_rows] = _half_grid_max(h[open_rows], h_prime[open_rows], fold.cos_rows, fold.sin_rows)
    return maxima


class _Bracket(NamedTuple):
    """What a capped call needs to screen replications on bracketed draws,
    built once per ``_grid_maxima`` call (``_bracket``).

    A draw z = ndtri(v), v = u + 2^-54, lies in the bracket of its bin
    i = floor(v 2^_TABLE_BITS): |z - mid[i]| <= half[i].  The screens of
    all folds are stacked column-wise and read the draws themselves, each
    fold's turn folded in, so one GEMM per block serves every fold.
    """

    mid: np.ndarray  # (2^B + 1,) bracket midpoints; bin 2^B holds v = 1 alone and is infinite
    half: np.ndarray  # (2^B + 1,) bracket half-widths, rounded up
    screen: np.ndarray  # (2m, sum of 2 S_f): draws @ screen = [C | S] of each fold on its S_f screen columns
    weights: np.ndarray  # (2m, folds): |a_k| for both draws of term k, per fold
    margins: np.ndarray  # (folds,) rounding margin 16 (m + 1) eps R sum_k |a_k|


def _bracket_table() -> tuple:
    """(mid, half): the midpoint and half-width of each bin's bracket of
    normals, indexed by the bin i = floor(v 2^_TABLE_BITS) of the offset
    uniform v = u + 2^-54.

    With B = _TABLE_BITS, the edges are T_i = ndtri(i 2^-B) for 0 < i < 2^B,
    T_0 = ndtri(2^-54), the smallest offset uniform, and T_top =
    ndtri(1 - 2^-52), the largest one below 1.  A v in bin i lies in
    [i 2^-B, (i + 1) 2^-B) and above 2^-54, so ndtri(v) lies in
    [T_i, T_{i+1}], the top bin's in [T_(2^B - 1), T_top].  Each edge is
    moved outward by |T| 2^-50, 4 to 8 ulps, as floating-point ``ndtri`` is
    not proven monotone (the edge T = 0 at v = 1/2 needs none: ``ndtri``
    keeps the sign of v - 1/2), and each half-width is rounded up.  Bin 2^B
    holds v = 1 alone, whose normal is +inf; its bracket is infinite, so no
    row with such a draw settles on brackets.  4097 ``ndtri`` values.
    """
    n = 1 << _TABLE_BITS
    edges = np.arange(n + 1) * 2.0**-_TABLE_BITS
    edges[0], edges[n] = 2.0**-54, 1.0 - 2.0**-52
    edges = ndtri(edges)
    widen = np.abs(edges) * 2.0**-50
    lo, hi = edges[:-1] - widen[:-1], edges[1:] + widen[1:]
    mid, half = np.full(n + 1, math.inf), np.full(n + 1, math.inf)
    np.add(lo, hi, out=mid[:n])
    mid[:n] *= 0.5
    np.maximum(hi - mid[:n], mid[:n] - lo, out=half[:n])
    half[:n] *= 1.0 + 2.0**-50  # rounded up past the rounding of the differences
    return mid, half


def _bracket(folds: Sequence[_Fold]) -> _Bracket:
    """The bracket table and the folds' draw screens, weights and margins.

    Fold f's screen turns the draws as it projects them: with h_k = g_k c_k
    + g'_k s_k and h'_k = g'_k c_k - g_k s_k (c_k, s_k the turn), row 2k
    holds g_k's coefficients and row 2k + 1 those of g'_k, so draws @ screen
    gives C and S on the screen columns.  R is the largest |mid| + half of a
    finite bracket, so sum_k |a_k| (|g^_k| + |g^'_k| + delta_k + delta'_k)
    <= 2 R sum_k |a_k| for every row.
    """
    mid, half = _bracket_table()
    reach = float(np.max(np.abs(mid[:-1]) + half[:-1]))
    m, screen = folds[0].shape[0] // 2, folds[0].cos_screen.shape[1]
    screens = np.empty((m, 2, len(folds), 2, screen))
    for f, fold in enumerate(folds):
        turn_cos, turn_sin = fold.turn_cos[:, None], fold.turn_sin[:, None]
        np.multiply(fold.cos_screen, turn_cos, out=screens[:, 0, f, 0])
        np.multiply(fold.sin_screen, -turn_sin, out=screens[:, 0, f, 1])
        np.multiply(fold.cos_screen, turn_sin, out=screens[:, 1, f, 0])
        np.multiply(fold.sin_screen, turn_cos, out=screens[:, 1, f, 1])
    coeffs = np.stack([fold.abs_coeffs for fold in folds], axis=1)
    return _Bracket(
        mid,
        half,
        screens.reshape(2 * m, 2 * len(folds) * screen),
        np.repeat(coeffs, 2, axis=0),
        16.0 * (m + 1) * np.finfo(float).eps * reach * coeffs.sum(axis=0),
    )


def _bracket_settled(u: np.ndarray, bracket: _Bracket, caps: Sequence[float]) -> list:
    """For each fold, which rows of the uniform block ``u`` have a grid
    maximum above the fold's cap, decided on bracketed draws alone.

    Each draw is replaced by its bracket's midpoint g^ and projected onto
    the screen columns; a row settles where its screened maximum minus
    E = sum_k |a_k| (delta_k + delta'_k) and the fold's rounding margin
    exceeds the cap (the argument is in ``_fold_maxima``).  The draws are
    read in near-equal column blocks of at most _BRACKET_BLOCK values,
    through two reused buffers: the bins, and their midpoints, then their
    half-widths.
    """
    rows, width = u.shape[0], bracket.screen.shape[0]
    totals = np.zeros((rows, bracket.screen.shape[1]))
    slacks = np.zeros((rows, len(caps)))
    blocks = max(1, -(-rows * width // _BRACKET_BLOCK))
    step = max(1, -(-width // blocks))
    values, bins = np.empty((rows, min(step, width))), np.empty((rows, min(step, width)), dtype=np.intp)
    for start in range(0, width, step):
        draws = slice(start, min(start + step, width))
        block, index = values[:, : draws.stop - start], bins[:, : draws.stop - start]
        np.add(u[:, draws], 2.0**-54, out=block)
        np.multiply(block, 2.0**_TABLE_BITS, out=index, casting="unsafe")  # floor(v 2^B), v = u + 2^-54
        # every bin lies in [0, 2^B]; "clip" writes straight into the buffer,
        # where the default mode would check the indices through a copy
        np.take(bracket.mid, index, out=block, mode="clip")
        totals += block @ bracket.screen[draws]
        np.take(bracket.half, index, out=block, mode="clip")
        slacks += block @ bracket.weights[draws]
    slacks += bracket.margins
    settled, screen = [], totals.shape[1] // (2 * len(caps))  # every fold has the grid's screen columns
    for f, cap in enumerate(caps):
        maxima = totals[:, 2 * f * screen : (2 * f + 1) * screen]
        maxima += np.abs(totals[:, (2 * f + 1) * screen : (2 * f + 2) * screen])
        maxima = maxima.max(axis=1)
        maxima -= slacks[:, f]
        settled.append(maxima > cap)
    return settled


def _chunk_maxima(
    seed: int, start: int, end: int, folds: Sequence[_Fold], caps: Sequence[float], bracket: Optional[_Bracket]
) -> list:
    """Each fold's grid maxima on replications [start, end), one array per
    fold; a maximum above the fold's cap may read +inf.

    Without a bracket every row is drawn and runs the full GEMMs.  With one,
    the first ceil(rows/_PILOT_DIVISOR) rows are bracketed first
    (``_bracket_settled``).  A fold screens its exact pass (``_fold_maxima``
    with its cap) only where at least _SCREEN_SHARE of them settled in it.
    Where fewer than _BRACKET_SHARE of them settled in every fold, every
    row is drawn and runs the exact pass, the first rows included.
    Otherwise the other rows are bracketed too, only rows that some fold
    leaves open get their normals (``ndtri`` of their uniforms, the values
    of ``normal_draws``), and each fold runs its exact pass on its own open
    rows.  The choices depend only on the chunk's rows, so the maxima are
    the same for any worker count.
    """
    width, rows = folds[0].shape[0], end - start
    u = _uniforms(seed, start, rows, width)
    if bracket is None:
        draws = _normals(u, width)
        return [_fold_maxima(draws, fold) for fold in folds]
    pilot = -(-rows // _PILOT_DIVISOR)
    heads = _bracket_settled(u[:pilot], bracket, caps)
    shares = [np.count_nonzero(head) / pilot for head in heads]
    screen_caps = [cap if share >= _SCREEN_SHARE else math.inf for cap, share in zip(caps, shares)]
    if np.count_nonzero(np.logical_and.reduce(heads)) < _BRACKET_SHARE * pilot:
        draws = _normals(u, width)
        return [_fold_maxima(draws, fold, cap) for fold, cap in zip(folds, screen_caps)]
    tails = _bracket_settled(u[pilot:], bracket, caps)
    settled = [np.concatenate([head, tail]) for head, tail in zip(heads, tails)]
    drawn = np.flatnonzero(~np.logical_and.reduce(settled))
    draws = _normals(u[drawn], width)
    del u
    maxima = []
    for fold, cap, done in zip(folds, screen_caps, settled):
        open_rows = np.flatnonzero(~done)
        values = np.full(rows, math.inf)
        if open_rows.size:
            picked = draws if open_rows.size == drawn.size else draws[np.searchsorted(drawn, open_rows)]
            values[open_rows] = _fold_maxima(picked, fold, cap)
        maxima.append(values)
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


def _map_chunks(chunk: Callable, reps: int, outputs: int, workers: int, count: int) -> list:
    """``chunk(start, end)``, a list of ``count`` values, for every chunk of
    replications in chunk order: one list per value.

    The chunks are those of ``_chunk_bounds(reps, outputs)``: near-equal, a
    multiple of 4 where the range allows, so the pool's workers get equal
    shares.  reps < 1 is refused before any draw.
    """
    if reps < 1:
        raise DomainError(f"Monte Carlo estimates need reps >= 1, got {reps}")
    parts = ordered_map(lambda bounds: chunk(*bounds), _chunk_bounds(reps, outputs), workers)
    return [[values[i] for values in parts] for i in range(count)]


def _map_projected(matrices: Sequence, stat: Callable, seed: int, reps: int, workers: int) -> list:
    """``stat(draws @ matrix)`` for each matrix and every chunk of
    replications, in chunk order: one list per matrix.

    Each chunk's draws are generated once and projected through every
    matrix in turn, one GEMM per matrix, so coupled estimates read the same
    draws; the matrices must share their shape (width, outputs), which
    fixes the draws per replication and the chunk bounds (``_map_chunks``).
    ``stat`` maps a chunk's projected block to one value per replication;
    it owns its argument and may overwrite it.
    """
    width, outputs = matrices[0].shape
    if any(matrix.shape != (width, outputs) for matrix in matrices):
        raise DomainError("projected matrices must share their shape")

    def run(start, end):
        draws = normal_draws(seed, start, end - start, width)
        *rest, last = matrices
        values = [stat(draws @ matrix) for matrix in rest]
        block = draws @ last
        # free the draws before the last statistic allocates; holding them
        # cost one-matrix maps 8-9% at workers=1 (2-core Xeon)
        del draws
        return values + [stat(block)]

    return _map_chunks(run, reps, outputs, workers, len(matrices))


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
    maximum is exact.  The bracket (``_bracket``) is built here, once per
    call, when some cap is finite; the chunks run ``_chunk_maxima``."""
    caps = [math.inf] * len(specs) if caps is None else list(caps)
    folds = [_fold(spec, grid, workers) for spec in specs]
    outputs = folds[0].shape[1]
    bracket = _bracket(folds) if min(caps) < math.inf else None
    return _map_chunks(
        lambda start, end: _chunk_maxima(seed, start, end, folds, caps, bracket), reps, outputs, workers, len(folds)
    )


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
