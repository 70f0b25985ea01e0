"""Seeded Monte Carlo engine for path and vector suprema.

Reproducibility contract: a Philox stream keyed by the 64-bit seed is laid
out as a fixed table of raw 64-bit draws; replication ``r`` owns the rows
``[r * pad, (r + 1) * pad)`` where ``pad`` is the per-replication draw count
rounded up to the 4-draw Philox block.  Uniforms are ``((raw >> 11) + 0.5) *
2^-53`` (strictly inside (0, 1)) and normals go through the inverse CDF, so
every replication consumes a fixed, known number of draws.  The inverse CDF
is ``scipy.special.ndtri``, which ``_normal`` imports at the first draw:
importing this module loads no scipy.  Path draws come
in the per-term order (g_y, g'_y, g_{y+1}, ...), and the design matrix has
rows interleaved the same way (a_k cos(w_k u), a_k sin(w_k u)), so a chunk of
paths is one GEMM of its draws against that matrix.  The replication range
is split into chunks whose size depends only on the replication count and
the output width (at most 2^18 output values per chunk), never on the
worker count; workers take whole chunks and counts/sums merge in chunk
order, which makes results bit-identical for any worker count.

Every estimator runs through one per-replication map, ``_map_projected``: a
chunk's draws are projected through one matrix (the design matrix for a
path, its difference for a coupled pair, F^T for a vector X = F z, the 2x2
identity for the Gebelein pair), and a statistic turns the projected block
into one value per replication (a maximum, a flag, a product).  Several
matrices of one shape can share a chunk's draws, one GEMM each (a single
GEMM against the concatenated matrices would round differently):
``mc_sup_probs`` estimates a process and its rational-frequency companion
on one draw table, and ``mc_sup_prob`` is its one-spec case.  Estimates
count flags, or add chunk sums in chunk order; both reducers reject
reps < 1, and ``normal_draws`` rejects seeds outside [0, 2^64).

Design matrices are filled on the worker pool too, in blocks of whole
terms of a fixed number of values; each element is computed on its own, so
the matrix bytes depend on neither the blocks nor the worker count.

Thread pools are kept per worker count and reused across calls, and this
module is the only one that builds them.  ``ordered_map`` runs a function
over a list of tasks on the cached pool and returns the results in task
order; ``_map_projected`` uses it for chunks of replications,
``_design_matrix`` for blocks of terms, and the exponential-sum scans in
``kronecker`` for their pieces.  Callers
cut their tasks without regard to the worker count and merge results in
task order, which keeps every result bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

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
CHUNK_REPS = 8192  # fixed chunk size: chunk boundaries never depend on workers
_DESIGN_BLOCK = 1 << 14  # values per design-matrix fill task: a fixed size, never the worker count
GRID_BUDGET = 1 << 25  # hard cap on grid nodes and on design-matrix entries (256 MiB of floats)
_COLUMN_MAX_WIDTH = 32  # below this width a column loop beats max(axis=1) on 8192-row chunks


def normal_draws(seed: int, rep_start: int, n_reps: int, draws_per_rep: int) -> np.ndarray:
    """Standard normals for replications [rep_start, rep_start + n_reps).

    Shape (n_reps, draws_per_rep).  The draw table depends only on the seed,
    so any partition of the replication range reproduces the same values.
    """
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    if draws_per_rep == 0 or n_reps == 0:
        return np.zeros((n_reps, draws_per_rep))
    pad = 4 * ((draws_per_rep + 3) // 4)
    bg = np.random.Philox(key=np.uint64(seed))
    bg.advance(rep_start * pad // 4)
    raw = bg.random_raw(n_reps * pad).reshape(n_reps, pad)[:, :draws_per_rep]
    u = (raw >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def wilson_half_width(successes: int, reps: int, z: float = Z95) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if reps < 1:
        raise DomainError("wilson_half_width needs reps >= 1")
    p = successes / reps
    z2n = z * z / reps
    return z * math.sqrt(p * (1.0 - p) / reps + z2n / (4.0 * reps)) / (1.0 + z2n)


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
        if t1 < t0:
            raise DomainError(f"interval [{t0}, {t1}] reversed")
        if n < 1:
            raise DomainError(f"grid needs n >= 1 nodes, got {n}")
        return cls(mode="uniform", t0=float(t0), t1=float(t1), n=int(n))

    @classmethod
    def lattice(cls, step: float, count: int, start: float = 0.0) -> "GridSpec":
        if step <= 0.0 or count < 1:
            raise DomainError(f"lattice needs step > 0 and count >= 1, got {step}, {count}")
        return cls(mode="lattice", step=float(step), count=int(count), start=float(start))

    @classmethod
    def dense(cls, t0: float, t1: float, per_unit: int = 1024) -> "GridSpec":
        """Default density for continuous-supremum surrogates on [t0, t1]:
        per_unit nodes per unit length (override for high frequencies)."""
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
        n_eff = int(math.ceil(floor_n)) if n is None else int(n)
        if n_eff < floor_n:
            raise DomainError(f"n={n_eff} below the rule floor {floor_n:.3f}")
        z = math.ceil(n_eff * eps)
        return cls.lattice(step=1.0 / n_eff, count=z + 1, start=0.0)

    def nodes(self) -> np.ndarray:
        size = self.n if self.mode == "uniform" else self.count
        if size > GRID_BUDGET:
            raise BudgetError(f"grid of {size} nodes exceeds {GRID_BUDGET}")
        if self.mode == "uniform":
            return np.linspace(self.t0, self.t1, self.n)
        return self.start + self.step * np.arange(self.count)


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
    the worker count.
    """
    m = spec.n_terms
    if 2 * m * nodes.size > GRID_BUDGET:
        raise BudgetError(f"design matrix 2*{m} x {nodes.size} exceeds {GRID_BUDGET} entries")
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


def _chunk_bounds(reps: int, nodes: int) -> list:
    """Fixed chunking of the replication range (independent of workers).

    A chunk holds at most 2^18 output values (2 MiB of float64, one core's
    L2 cache) and between 64 and CHUNK_REPS replications, so outputs up to
    32 wide keep CHUNK_REPS-row chunks.  The boundaries depend only on
    (reps, nodes).
    """
    per = CHUNK_REPS
    if nodes > 0:
        per = max(64, min(CHUNK_REPS, (1 << 18) // nodes))
    return [(s, min(s + per, reps)) for s in range(0, reps, per)]


@lru_cache(maxsize=4)
def _executor(workers: int) -> ThreadPoolExecutor:
    """One pool per worker count, reused across calls; an evicted pool's
    idle threads exit when it is garbage-collected."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):
    # A forked child inherits the cached pools but not their threads, so a
    # pool reused there would wait forever; the child starts fresh pools.
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _map_projected(projections: Sequence, seed: int, reps: int, workers: int) -> list:
    """For each ``(matrix, stat)`` pair, ``stat(draws @ matrix)`` for every
    chunk of replications, in chunk order: one list per pair.

    Each chunk's draws are generated once and projected through every
    matrix in turn, one GEMM per matrix, so coupled estimates read the same
    draws; the matrices must share their shape.  ``stat`` maps a chunk's
    (rows, outputs) block to one value per replication; it owns its
    argument and may overwrite it.
    """
    width, outputs = projections[0][0].shape
    if any(matrix.shape != (width, outputs) for matrix, _ in projections):
        raise DomainError("projected matrices must share their shape")

    def run(chunk):
        s, e = chunk
        draws = normal_draws(seed, s, e - s, width)
        *rest, (last_matrix, last_stat) = projections
        values = [stat(draws @ matrix) for matrix, stat in rest]
        block = draws @ last_matrix
        # free the draws before the last statistic allocates; holding them
        # cost one-matrix maps 8-9% at workers=1 (2-core Xeon)
        del draws
        return values + [last_stat(block)]

    chunks = ordered_map(run, _chunk_bounds(reps, outputs), workers)
    return [[parts[i] for parts in chunks] for i in range(len(projections))]


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


def _prob_estimate(parts: list, reps: int, seed: int) -> McEstimate:
    """Share of replications whose flag is set, over per-chunk flag arrays."""
    if reps < 1:
        raise DomainError(f"Monte Carlo estimates need reps >= 1, got {reps}")
    count = sum(int(np.count_nonzero(flags)) for flags in parts)
    return McEstimate(
        estimate=count / reps,
        reps=reps,
        half_width=wilson_half_width(count, reps),
        seed=seed,
        kind="probability",
    )


def _mean_estimate(parts: list, reps: int, seed: int) -> McEstimate:
    """Mean of per-replication values; chunk sums are added in chunk order."""
    if reps < 1:
        raise DomainError(f"Monte Carlo estimates need reps >= 1, got {reps}")
    total = sum(float(values.sum()) for values in parts)
    total_sq = sum(float((values * values).sum()) for values in parts)
    mean = total / reps
    var = max(0.0, (total_sq - total * total / reps) / max(reps - 1, 1))
    return McEstimate(
        estimate=mean,
        reps=reps,
        half_width=Z95 * math.sqrt(var / reps),
        seed=seed,
        kind="mean",
    )


def _at_most(theta: float) -> Callable:
    """Statistic flagging the replications whose grid maximum is <= theta."""
    return lambda x: _row_max(x) <= theta


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
    and projected through every spec's design matrix, so X and a companion
    built from the same (g_k, g'_k) are estimated on the same paths, and each
    estimate equals the one ``mc_sup_prob`` gives for its spec alone.
    """
    if not specs or len(specs) != len(thetas):
        raise DomainError(f"need specs and one threshold per spec, got {len(specs)} specs, {len(thetas)} thresholds")
    if len({spec.n_terms for spec in specs}) > 1:
        raise DomainError("specs on one draw table must share their term count")
    nodes = grid.nodes()
    projections = [(_design_matrix(spec, nodes, workers), _at_most(theta)) for spec, theta in zip(specs, thetas)]
    return [_prob_estimate(flags, reps, seed) for flags in _map_projected(projections, seed, reps, workers)]


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
    sup = _abs_row_max if absolute else _row_max
    [flags] = _map_projected([(cov.factor().T, lambda x: sup(x) <= theta)], seed, reps, workers)
    return _prob_estimate(flags, reps, seed)


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
    [sups] = _map_projected([(matrix, _abs_row_max if absolute else _row_max)], seed, reps, workers)
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
    [parts] = _map_projected([(dmat, _abs_row_max)], seed, reps, workers)
    return np.concatenate(parts) if parts else np.zeros(0)


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
    [sups] = _map_projected([(cov.factor().T, _abs_row_max if absolute else _row_max)], seed, reps, workers)
    return _mean_estimate(sups, reps, seed)
