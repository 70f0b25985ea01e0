"""Seeded Monte Carlo engine for path and vector suprema.

Reproducibility contract: a Philox stream keyed by the 64-bit seed is laid
out as a fixed table of raw 64-bit draws; replication ``r`` owns the rows
``[r * pad, (r + 1) * pad)`` where ``pad`` is the per-replication draw count
rounded up to the 4-draw Philox block.  Uniforms are ``((raw >> 11) + 0.5) *
2^-53`` (strictly inside (0, 1)) and normals go through the inverse CDF, so
every replication consumes a fixed, known number of draws.  Path draws come
in the per-term order (g_y, g'_y, g_{y+1}, ...), and the design matrix has
rows interleaved the same way (a_k cos(w_k u), a_k sin(w_k u)), so a chunk of
paths is one GEMM of its draws against that matrix.  The replication range
is split into chunks whose size depends only on the replication count and
the output width (at most 2^18 output values per chunk), never on the
worker count; workers take whole chunks and counts/sums merge in chunk
order, which makes results bit-identical for any worker count.

Path and vector estimators share one projected-chunk map: a vector X = F z
is the path case with the matrix F^T in place of the design matrix.  Thread
pools are kept per worker count and reused across calls.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import ndtri

from .errors import DomainError, FactorizationError
from .spectrum import PolynomialSpec

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
    "mc_vector_sup_prob",
    "normal_draws",
    "sample_path",
    "sup_diff_samples",
    "wilson_half_width",
]

Z95 = 1.959963984540054  # ndtri(0.975)
CHUNK_REPS = 8192  # fixed chunk size: chunk boundaries never depend on workers
_COLUMN_MAX_WIDTH = 32  # below this width a column loop beats max(axis=1) on 8192-row chunks
_SUBSTREAM_RULE = "philox4x64(key=seed) raw draws [rep*pad, rep*pad + d), pad = 4*ceil(d/4)"


def normal_draws(seed: int, rep_start: int, n_reps: int, draws_per_rep: int) -> np.ndarray:
    """Standard normals for replications [rep_start, rep_start + n_reps).

    Shape (n_reps, draws_per_rep).  The draw table depends only on the seed,
    so any partition of the replication range reproduces the same values.
    """
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
    """Point estimate with replication count, 95% half-width and provenance."""

    estimate: float
    reps: int
    half_width: float
    seed: int
    kind: str  # "probability" (Wilson interval) | "mean" (CLT interval)
    substream: str = _SUBSTREAM_RULE

    def __post_init__(self):
        if self.half_width < 0.0:
            raise DomainError("half_width must be nonnegative")
        if self.kind == "probability" and not 0.0 <= self.estimate <= 1.0:
            raise DomainError(f"probability estimate {self.estimate} outside [0, 1]")


@dataclass
class CovarianceSpec:
    """Covariance for a finite Gaussian vector, explicit or structured.

    Structured generators: equicorrelated(n, lam), block(N, k, u, lam)
    (N diagonal k x k blocks with off-diagonal u, value lam elsewhere) and
    stationary(gamma(0..n-1)).  Positive semi-definiteness is verified by
    factorization with a single jitter retry.
    """

    structure: str
    n: int
    params: dict = field(default_factory=dict)
    _matrix: Optional[np.ndarray] = None
    _factor: Optional[np.ndarray] = None

    @classmethod
    def explicit(cls, matrix) -> "CovarianceSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("explicit covariance must be a square matrix")
        if not np.allclose(m, m.T, atol=1e-12):
            raise DomainError("explicit covariance must be symmetric")
        return cls(structure="explicit", n=m.shape[0], params={}, _matrix=m)

    @classmethod
    def equicorrelated(cls, n: int, lam: float) -> "CovarianceSpec":
        if n < 1:
            raise DomainError(f"dimension n={n} < 1")
        if n > 1 and not -1.0 / (n - 1) < lam < 1.0:
            raise DomainError(f"equicorrelated lam={lam} outside (-1/(n-1), 1) for n={n}")
        return cls(structure="equicorrelated", n=n, params={"lam": float(lam)})

    @classmethod
    def block(cls, N: int, k: int, u: float, lam: float) -> "CovarianceSpec":
        if N < 1 or k < 1:
            raise DomainError(f"block covariance needs N >= 1 and k >= 1, got N={N}, k={k}")
        return cls(structure="block", n=N * k, params={"N": N, "k": k, "u": float(u), "lam": float(lam)})

    @classmethod
    def stationary(cls, gammas: Sequence[float]) -> "CovarianceSpec":
        g = np.asarray(gammas, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise DomainError("stationary covariance needs gamma(0..n-1)")
        if g[0] <= 0.0:
            raise DomainError("stationary covariance needs gamma(0) > 0")
        return cls(structure="stationary", n=g.size, params={"gammas": tuple(g.tolist())})

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.structure == "equicorrelated":
                lam = self.params["lam"]
                m = np.full((self.n, self.n), lam)
                np.fill_diagonal(m, 1.0)
            elif self.structure == "block":
                N, k, u, lam = (self.params[key] for key in ("N", "k", "u", "lam"))
                m = np.full((self.n, self.n), lam)
                for j in range(N):
                    sl = slice(j * k, (j + 1) * k)
                    m[sl, sl] = u
                np.fill_diagonal(m, 1.0)
            elif self.structure == "stationary":
                m = toeplitz(np.asarray(self.params["gammas"]))
            else:
                raise DomainError(f"unknown covariance structure {self.structure!r}")
            self._matrix = m
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
        floor_n = max(2.0 * math.pi * float(np.sum(spec.freq_values() * spec.coeff_values() ** 2)), 1.0 / eps)
        n_eff = int(math.ceil(floor_n)) if n is None else int(n)
        if n_eff < floor_n:
            raise DomainError(f"n={n_eff} below the rule floor {floor_n:.3f}")
        z = math.ceil(n_eff * eps)
        return cls.lattice(step=1.0 / n_eff, count=z + 1, start=0.0)

    def nodes(self) -> np.ndarray:
        if self.mode == "uniform":
            return np.linspace(self.t0, self.t1, self.n)
        return self.start + self.step * np.arange(self.count)


def _design_matrix(spec: PolynomialSpec, nodes: np.ndarray) -> np.ndarray:
    """(2m, nodes) matrix with rows 2k, 2k+1 = a_k cos(w_k u), a_k sin(w_k u).

    The row order matches the draw order of ``normal_draws(seed, s, n, 2m)``,
    so ``draws @ matrix`` gives the paths in one GEMM.
    """
    a = spec.coeff_values()[:, None]
    phase = np.outer(spec.angular_freqs(), nodes)
    return np.stack([a * np.cos(phase), a * np.sin(phase)], axis=1).reshape(-1, nodes.size)


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


def _map_chunks(fn: Callable, chunks: list, workers: int) -> list:
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    return list(_executor(workers).map(fn, chunks))


def _map_projected(matrix: np.ndarray, seed: int, reps: int, workers: int, reduce: Callable) -> list:
    """``reduce(draws @ matrix)`` for every chunk of replications, in chunk
    order.  ``reduce`` owns its argument and may overwrite it."""
    width, outputs = matrix.shape

    def run(chunk):
        s, e = chunk
        return reduce(normal_draws(seed, s, e - s, width) @ matrix)

    return _map_chunks(run, _chunk_bounds(reps, outputs), workers)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)``; narrow arrays go column by column, which avoids
    numpy's per-row overhead on a short reduction axis."""
    if x.shape[1] >= _COLUMN_MAX_WIDTH:
        return x.max(axis=1)
    m = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j], out=m)
    return m


def sample_path(spec: PolynomialSpec, grid: GridSpec, seed: int, reps: int = 1, rep_start: int = 0) -> np.ndarray:
    """Sample paths on the grid, shape (reps, n_nodes).

    The Gaussians are read from the seed's draw table in a fixed per-k
    interleaved order (g_y, g'_y, g_{y+1}, ...), independent of the grid, so
    two specs sharing a range and seed consume identical (g, g') pairs.
    """
    return normal_draws(seed, rep_start, reps, 2 * spec.n_terms) @ _design_matrix(spec, grid.nodes())


def _prob_estimate(count: int, reps: int, seed: int) -> McEstimate:
    return McEstimate(
        estimate=count / reps,
        reps=reps,
        half_width=wilson_half_width(count, reps),
        seed=seed,
        kind="probability",
    )


def _mean_estimate(total: float, total_sq: float, reps: int, seed: int) -> McEstimate:
    mean = total / reps
    var = max(0.0, (total_sq - total * total / reps) / max(reps - 1, 1))
    return McEstimate(
        estimate=mean,
        reps=reps,
        half_width=Z95 * math.sqrt(var / reps),
        seed=seed,
        kind="mean",
    )


def _sup_prob(
    matrix: np.ndarray, theta: float, reps: int, seed: int, workers: int, absolute: bool
) -> McEstimate:
    def count(x) -> int:
        return int(np.count_nonzero(_row_max(np.abs(x, out=x) if absolute else x) <= theta))

    return _prob_estimate(sum(_map_projected(matrix, seed, reps, workers, count)), reps, seed)


def _expected_sup(matrix: np.ndarray, reps: int, seed: int, workers: int, absolute: bool) -> McEstimate:
    def moments(x):
        sups = _row_max(np.abs(x, out=x) if absolute else x)
        return float(sups.sum()), float((sups * sups).sum())

    parts = _map_projected(matrix, seed, reps, workers, moments)
    return _mean_estimate(sum(p[0] for p in parts), sum(p[1] for p in parts), reps, seed)


def mc_sup_prob(
    spec: PolynomialSpec,
    grid: GridSpec,
    theta: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """P{max over grid nodes <= theta} with a Wilson interval."""
    if reps < 1:
        raise DomainError("mc_sup_prob needs reps >= 1")
    return _sup_prob(_design_matrix(spec, grid.nodes()), theta, reps, seed, workers, absolute=False)


def mc_vector_sup_prob(
    cov: CovarianceSpec,
    theta: float,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """P{max_i X_i <= theta} (or max |X_i| with absolute=True) for X = F z."""
    if reps < 1:
        raise DomainError("mc_vector_sup_prob needs reps >= 1")
    return _sup_prob(cov.factor().T, theta, reps, seed, workers, absolute)


def mc_expected_sup_path(
    spec: PolynomialSpec,
    grid: GridSpec,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """Mean grid supremum of the path (its absolute value with absolute=True)."""
    if reps < 1:
        raise DomainError("mc_expected_sup_path needs reps >= 1")
    return _expected_sup(_design_matrix(spec, grid.nodes()), reps, seed, workers, absolute)


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
    evaluated through the differenced design matrices so identical specs
    give exact zeros.
    """
    if (spec_a.y, spec_a.x) != (spec_b.y, spec_b.x):
        raise DomainError("coupled specs must share the index range [y, x]")
    nodes = grid.nodes()
    dmat = _design_matrix(spec_a, nodes) - _design_matrix(spec_b, nodes)
    parts = _map_projected(dmat, seed, reps, workers, lambda d: _row_max(np.abs(d, out=d)))
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
    if reps < 1:
        raise DomainError("mc_expected_sup_diff needs reps >= 1")
    sups = sup_diff_samples(spec_a, spec_b, grid, reps, seed, workers)
    return _mean_estimate(float(sups.sum()), float((sups * sups).sum()), reps, seed)


def mc_expected_sup_vector(
    cov: CovarianceSpec,
    reps: int,
    seed: int,
    workers: int = 1,
    absolute: bool = False,
) -> McEstimate:
    """Mean of max_i X_i (or max |X_i|) for the Gaussian vector X = F z."""
    if reps < 1:
        raise DomainError("mc_expected_sup_vector needs reps >= 1")
    return _expected_sup(cov.factor().T, reps, seed, workers, absolute)
