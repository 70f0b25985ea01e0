"""Decoupling coefficients, quadrature identities, and cyclic deviation bounds.

The decoupling coefficient of a Gaussian vector is the worst row sum of
absolute correlations; for a cyclic stationary process it is the normalized
sum of absolute covariance values over the cycle.  Products of functions of
the components then factor through p-norms with an explicit multiplier, and
the grid-supremum probability of a periodic Gaussian sum decays
exponentially at rate n / p(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import mc
from ._normal import ndtr
from .bounds import BoundReport
from .errors import BudgetError, DomainError
from .mc import CovarianceSpec, McEstimate, _map_projected, _mean_estimate, _prob_estimate
from .quadrature import adaptive_simpson
from .spectrum import PolynomialSpec, node_floor, power_sum, variance

__all__ = [
    "DecouplingReport",
    "RiemannGap",
    "TrigPoly",
    "cyclic_deviation_bound",
    "decoupling_coeff_cyclic",
    "decoupling_coeff_vector",
    "decoupling_multiplier",
    "mechanical_quadrature_check",
    "riemann_gap",
    "verify_decoupling_mc",
    "verify_gebelein_nelson",
]


@dataclass
class DecouplingReport:
    """p-value of a decoupling coefficient plus its per-row or per-node terms."""

    p_value: float
    terms: np.ndarray  # per-row sums (vector case) or per-j absolute sums (cyclic case)
    normalization: Optional[float] = None  # A(y, x) in the cyclic case

    def __post_init__(self):
        if not np.isfinite(self.p_value):
            raise DomainError("decoupling coefficient must be finite")


def decoupling_coeff_vector(cov: CovarianceSpec) -> DecouplingReport:
    """max_i sum_j |E X_i X_j| / E X_i^2 for a finite Gaussian vector."""
    m = cov.matrix()
    diag = np.diag(m)
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise DomainError(f"component {bad} has nonpositive variance {diag[bad]}")
    rows = np.sum(np.abs(m), axis=1) / diag
    return DecouplingReport(p_value=float(rows.max()), terms=rows)


def decoupling_coeff_cyclic(spec: PolynomialSpec, n: int) -> DecouplingReport:
    """(1/A) sum_{j=0}^{n-1} |sum_k a_k^2 cos(2 pi j_k j / n)| for the
    periodic sum sampled on the n-cycle.  An n x terms cosine matrix over
    mc.GRID_BUDGET entries raises BudgetError before it is allocated."""
    if n < 1:
        raise DomainError(f"modulus n={n} < 1")
    if spec.freqs.kind != "integer":
        raise DomainError("cyclic decoupling coefficient requires integer frequencies")
    if n * spec.n_terms > mc.GRID_BUDGET:
        raise BudgetError(f"cosine matrix {n} x {spec.n_terms} exceeds {mc.GRID_BUDGET} entries")
    a2 = variance(spec)
    aa = spec.coeff_values() ** 2
    jk = spec.freq_values()
    j = np.arange(n)
    terms = np.abs(np.cos(2.0 * math.pi * np.outer(j, jk) / n) @ aa)
    return DecouplingReport(p_value=float(terms.sum() / a2), terms=terms, normalization=a2)


class RiemannGap(NamedTuple):
    p_value: float
    integral_term: float  # (n / A) * L1 norm of the cosine sum over one period
    gap: float
    gap_bound: float  # (2 pi / A) sum j_k a_k^2
    upper_bound: float  # (1/A) (n (sum a^4)^{1/2} + 2 pi sum j_k a_k^2)


def riemann_gap(spec: PolynomialSpec, n: int) -> RiemannGap:
    """Distance between the cyclic coefficient and its L1-integral version.

    The L1 norm of the cosine sum over one period is computed by adaptive
    Simpson quadrature seeded with panels finer than the top frequency (the
    integrand is piecewise smooth with kinks at its sign changes).  The gap
    against (n/A) * integral and its derivative bound are returned, with
    the coefficient and its fourth-moment upper bound; the caller compares
    them.  The quadrature adds at most about 10 tol n / A to the gap, tol =
    quadrature.SIMPSON_TOL.
    """
    rep = decoupling_coeff_cyclic(spec, n)
    aa = spec.coeff_values() ** 2
    jk = spec.freq_values()
    a2 = rep.normalization

    def phi_abs(u: np.ndarray) -> np.ndarray:
        return np.abs(np.cos(2.0 * math.pi * u[:, None] * jk[None, :]) @ aa)

    panels = int(max(16, 4 * jk.max(initial=0)))
    integral = adaptive_simpson(phi_abs, 0.0, 1.0, panels)
    integral_term = n * integral / a2
    floor = node_floor(spec)
    upper = (n * math.sqrt(power_sum(spec, 4)) + floor) / a2
    return RiemannGap(rep.p_value, integral_term, abs(rep.p_value - integral_term), floor / a2, upper)


@dataclass(frozen=True)
class TrigPoly:
    """P(x) = c0 + sum_d (cos_coeffs[d-1] cos(dx) + sin_coeffs[d-1] sin(dx))."""

    c0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    @property
    def degree(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.c0)
        for d, c in enumerate(self.cos_coeffs, start=1):
            out += c * np.cos(d * x)
        for d, s in enumerate(self.sin_coeffs, start=1):
            out += s * np.sin(d * x)
        return out

    def coeff_l1(self) -> float:
        return abs(self.c0) + sum(abs(c) for c in self.cos_coeffs) + sum(abs(s) for s in self.sin_coeffs)


def mechanical_quadrature_check(poly: TrigPoly, N: int) -> tuple:
    """Mean of P over the circle vs the 2N-point equispaced average.

    Returns (lhs, rhs) where lhs is the exact constant Fourier coefficient
    and rhs = (1/2N) sum_{nu=-N+1}^{N} P(nu pi / N); the caller compares
    them.  For degree <= 2N - 1 the two agree to rounding, within
    1e-12 (1 + coeff_l1); for higher degrees the identity fails (e.g.
    cos(2Nx) gives rhs = 1, lhs = 0).
    """
    if N < 1:
        raise DomainError(f"N={N} < 1")
    nodes = np.arange(-N + 1, N + 1) * (math.pi / N)
    return poly.c0, float(np.mean(poly(nodes)))


def decoupling_multiplier(cov: CovarianceSpec, p: float, beta: float) -> float:
    """Multiplier (prod sigma_i)^{1/p} / ((1 - 1/beta_bar)^{(n/2)(1-1/p)} det(C)^{1/2p}).

    Requires an invertible covariance, beta_bar = (max sigma^2 / min sigma^2)
    v beta > 1, and p >= beta_bar * p(X); violations report the minimum
    admissible p.
    """
    m = cov.matrix()
    n = cov.n
    diag = np.diag(m)
    if np.any(diag <= 0.0):
        raise DomainError("covariance has a nonpositive variance on the diagonal")
    if beta < 1.0:
        raise DomainError(f"beta={beta} < 1")
    beta_bar = max(float(diag.max() / diag.min()), beta)
    if beta_bar <= 1.0:
        raise DomainError(f"beta_bar={beta_bar} must exceed 1 (raise beta)")
    p_x = decoupling_coeff_vector(cov).p_value
    if p < beta_bar * p_x:
        raise DomainError(f"p={p} below the minimum beta_bar * p(X) = {beta_bar * p_x:.6g}")
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise DomainError("covariance matrix is not invertible")
    log_mult = (
        float(np.sum(np.log(np.sqrt(diag)))) / p
        - (n / 2.0) * (1.0 - 1.0 / p) * math.log1p(-1.0 / beta_bar)
        - logdet / (2.0 * p)
    )
    return math.exp(log_mult)


def _in_box(x: np.ndarray, los: Sequence[float], his: Sequence[float]) -> np.ndarray:
    """Rows of x with los[j] <= x[:, j] <= his[j] for every column j.

    Built column by column: ``np.all(..., axis=1)`` over a few columns pays
    numpy's per-row overhead.
    """
    inside = x[:, 0] >= los[0]
    inside &= x[:, 0] <= his[0]
    for j in range(1, x.shape[1]):
        inside &= x[:, j] >= los[j]
        inside &= x[:, j] <= his[j]
    return inside


class DecouplingCheck(NamedTuple):
    lhs: McEstimate
    rhs: float
    multiplier: float
    masses: tuple


def verify_decoupling_mc(
    cov: CovarianceSpec,
    p: float,
    beta: float,
    boxes: Sequence[tuple],
    reps: int,
    seed: int,
    workers: int = 1,
) -> DecouplingCheck:
    """Both sides of |E prod 1_{X_i in box_i}| <= multiplier prod ||1_box||_p.

    For interval indicators the p-norm is mass^{1/p} with the mass computed
    in closed form from the normal CDF, which removes one MC layer.  The
    estimate and the right side are returned as they are; the caller judges
    them (the harness row passes when lhs <= rhs + 3 half-widths).
    """
    n = cov.n
    if n > 6:
        raise DomainError(f"n={n} > 6: decoupling MC check is desk-scale only")
    if len(boxes) != n:
        raise DomainError(f"need one box per component: {len(boxes)} boxes for n={n}")
    mult = decoupling_multiplier(cov, p, beta)
    sigmas = np.sqrt(np.diag(cov.matrix()))
    masses = tuple(
        float(ndtr(hi / sigmas[i]) - ndtr(lo / sigmas[i])) for i, (lo, hi) in enumerate(boxes)
    )
    rhs = mult * float(np.prod([m ** (1.0 / p) for m in masses]))

    in_box = partial(_in_box, los=[b[0] for b in boxes], his=[b[1] for b in boxes])
    [flags] = _map_projected([cov.factor().T], in_box, seed, reps, workers)
    return DecouplingCheck(_prob_estimate(flags, reps, seed), rhs, mult, masses)


HERMITE_NODES = 200  # Gauss-Hermite nodes of the Nelson p-norms


@lru_cache(maxsize=1)
def _hermegauss() -> tuple:
    """Probabilists' Gauss-Hermite nodes and weights (read-only, shared)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(HERMITE_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _hermite_abs_moment(f_vals_at, p: float) -> float:
    """E |f(Z)|^p for Z standard normal via Gauss-Hermite quadrature."""
    nodes, weights = _hermegauss()
    vals = np.abs(f_vals_at(nodes)) ** p
    return float(np.sum(weights * vals) / math.sqrt(2.0 * math.pi))


class GebeleinNelson(NamedTuple):
    lhs: McEstimate
    gebelein_rhs: float
    nelson_rhs: float
    p: float


def verify_gebelein_nelson(
    rho: float,
    f_kind: str,
    reps: int,
    seed: int,
    workers: int = 1,
) -> GebeleinNelson:
    """Both sides of the two correlation inequalities for a Gaussian pair.

    f_kind selects the centered test function applied to both coordinates:
    "identity" (f(x) = x) or "quadratic" (f(x) = x^2 - 1).  The first
    inequality bounds |E f(U) h(V)| by |rho| ||f||_2 ||h||_2; the second by
    ||f||_p ||h||_q with p = q = 1 + |rho|, the p-norms computed by
    Gauss-Hermite quadrature.  The estimate and both right sides are
    returned as they are; the caller judges them (the harness rows pass
    when |estimate| <= rhs + 3 half-widths).
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho={rho} outside [-1, 1]")
    if f_kind == "identity":
        f = lambda x: x
        l2 = 1.0
    elif f_kind == "quadratic":
        f = lambda x: x * x - 1.0
        l2 = math.sqrt(2.0)
    else:
        raise DomainError(f"unknown f_kind {f_kind!r}; use 'identity' or 'quadratic'")

    p = 1.0 + abs(rho)
    lp = _hermite_abs_moment(f, p) ** (1.0 / p)
    gebelein_rhs = abs(rho) * l2 * l2
    nelson_rhs = lp * lp

    root = math.sqrt(max(0.0, 1.0 - rho * rho))

    def product(z):
        return f(z[:, 0]) * f(rho * z[:, 0] + root * z[:, 1])

    # Draws are never 0, so the identity projection returns them bit for bit.
    [products] = _map_projected([np.eye(2)], product, seed, reps, workers)
    return GebeleinNelson(_mean_estimate(products, reps, seed), gebelein_rhs, nelson_rhs, p)


def cyclic_deviation_bound(spec: PolynomialSpec, n: int, eps: float, theta: float) -> BoundReport:
    """Exponential bounds for P{sup over the first ceil(n eps)+1 cycle nodes <= theta}.

    Primary value: exp(-eps * P{X(0) > theta} * n / p(n)).  When n also
    dominates 2 pi sum j_k a_k^2 the coarser fourth-moment form
    exp(-eps * P{X(0) > theta} * A / ((sum a^4)^{1/2} + 1)) is reported as
    an intermediate.  The tail probability P{X(0) > theta} = 1 - Phi(theta /
    sqrt(A)) is floored by the Mills-ratio estimate
    exp(-H^2/2) / (sqrt(2 pi) (H + 1)), H = theta / sqrt(A), also reported.
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps={eps} outside (0, 1]")
    if n < 1.0 / eps:
        raise DomainError(f"n={n} below 1/eps = {1.0 / eps:.4g}")
    if theta < 0.0:
        raise DomainError(f"theta={theta} must be nonnegative")
    rep = decoupling_coeff_cyclic(spec, n)
    a2 = rep.normalization
    h_ratio = theta / math.sqrt(a2)
    tail = float(1.0 - ndtr(h_ratio))
    mills_floor = math.exp(-0.5 * h_ratio * h_ratio) / (math.sqrt(2.0 * math.pi) * (h_ratio + 1.0))
    z = math.ceil(n * eps)
    value_i = math.exp(-eps * tail * n / rep.p_value)
    inter = {
        "p_n": rep.p_value,
        "z": z,
        "tail_prob": tail,
        "mills_floor": mills_floor,
        "A": a2,
    }
    freq_sum = node_floor(spec)
    if n >= freq_sum:
        value_ii = math.exp(-eps * tail * a2 / (math.sqrt(power_sum(spec, 4)) + 1.0))
        inter["value_ii"] = value_ii
    inter["freq_sum_floor"] = freq_sum
    return BoundReport(value=value_i, threshold=theta, intermediates=inter)
