"""Closed-form deviation bounds for Gaussian vectors and trigonometric sums.

Every operation returns a BoundReport carrying the bound value, the
threshold it applies to (when the statement fixes one) and the named
intermediate quantities.  Absolute constants that the statements only
assert to exist (C, C_eta, C'_eta, K) are explicit parameters defaulting
to 1; dominance experiments check decay shape, not sharp constants.

The normal CDF goes through the complementary error function
(scipy.special.ndtr, imported at its first call), accurate to ~1e-15
relative, because several bounds raise it to the n-th power.  The product
bounds (equicorrelated, Gumbel, block) are evaluated as displayed wherever
that gives a positive finite float; where a factor overflows, underflows
or divides by zero they are evaluated in logs instead, and a bound beyond
the float range is reported as inf (vacuous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._normal import ndtr
from .errors import DomainError
from .spectrum import PolynomialSpec, check_moderate_condition, power_sum, spectral_geometric_mean

__all__ = [
    "BoundReport",
    "SmallLambdaThreshold",
    "SzegoBounds",
    "bound_block",
    "bound_equicorrelated",
    "bound_gumbel",
    "bound_loglog",
    "bound_moderate_trig",
    "bound_small_lambda_threshold",
    "beta_block",
    "q_form",
    "szego_bounds",
]


@dataclass
class BoundReport:
    """A bound value plus the intermediates that produced it.

    ``vacuous`` flags probability-type bounds that exceed 1 (valid but
    uninformative).
    """

    value: float
    threshold: Optional[float] = None
    intermediates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value >= 0.0:
            raise DomainError(f"bound value {self.value} is not nonnegative")

    @property
    def vacuous(self) -> bool:
        return bool(self.value > 1.0)


def _log(v: float) -> float:
    """log v, -inf at v = 0."""
    return math.log(v) if v > 0.0 else -math.inf


def _free_constant(C: float) -> None:
    """Refuse a free constant C that is not positive: the statements take
    it positive, and C <= 0 overflows or turns a bound complex."""
    if not C > 0.0:
        raise DomainError(f"free constant C={C} must be positive")


def _product(direct: Callable[[], float], log_value: float) -> float:
    """``direct()`` where it is positive and finite, else exp(``log_value``):
    0 below the float range, inf above it."""
    try:
        value = direct()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if 0.0 < value < math.inf:
        return value
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _multiplier(n: int, lam: float) -> tuple:
    """(1 + lam n / (1 - lam))^((n-1)/2), the comparison multiplier of the
    equicorrelated and Gumbel bounds, and its log; the multiplier reads inf
    where it overflows a float."""
    base = 1.0 + lam * n / (1.0 - lam)
    log_m = (n - 1) / 2.0 * math.log(base)
    return _product(lambda: base ** ((n - 1) / 2.0), log_m), log_m


def bound_equicorrelated(n: int, lam: float, theta: float) -> BoundReport:
    """Product bound for P{max of n unit-variance Gaussians <= theta}
    under pairwise correlation at most lam.

    value = (1 + lam n / (1 - lam))^((n-1)/2) * Phi(theta / sqrt(1 + lam (n-1)))^n
    """
    if n < 2:
        raise DomainError(f"n={n} < 2")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam={lam} outside (0, 1)")
    multiplier, log_m = _multiplier(n, lam)
    scale = math.sqrt(1.0 + lam * (n - 1))
    phi = float(ndtr(theta / scale))
    value = _product(lambda: multiplier * phi**n, log_m + n * _log(phi))
    return BoundReport(
        value=value,
        threshold=theta,
        intermediates={"multiplier": multiplier, "scale": scale},
    )


def bound_gumbel(n: int, lam: float, x_arg: float, eps: float) -> BoundReport:
    """Gumbel form: threshold (x/b_n + b_n) sqrt(1 + lam (n-1)) and tail
    multiplier exp(-e^{-x} (1 - eps)).

    b_n = sqrt(log(n^2 / (4 pi log n))) must be real, which requires the
    log argument to exceed 1 (n >= 5; n in {2, 3, 4} gives a negative
    radicand and is rejected).
    """
    if n < 2:
        raise DomainError(f"n={n} < 2")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam={lam} outside (0, 1)")
    radicand = math.log(n * n / (4.0 * math.pi * math.log(n)))
    if radicand <= 0.0:
        raise DomainError(f"n={n} too small for b_n: log(n^2/(4 pi log n)) = {radicand:.4f} <= 0")
    b_n = math.sqrt(radicand)
    if x_arg < -b_n * b_n:
        raise DomainError(f"x_arg={x_arg} < -b_n^2 = {-b_n * b_n:.4f}")
    multiplier, log_m = _multiplier(n, lam)
    threshold = (x_arg / b_n + b_n) * math.sqrt(1.0 + lam * (n - 1))
    tail = -math.exp(-x_arg) * (1.0 - eps)
    value = _product(lambda: multiplier * math.exp(tail), log_m + tail)
    return BoundReport(
        value=value,
        threshold=threshold,
        intermediates={"b_n": b_n, "multiplier": multiplier},
    )


class SmallLambdaThreshold(NamedTuple):
    threshold: float
    lam_max: float
    decay_scale: float  # sqrt(log n): the verifiable decay scale


def bound_small_lambda_threshold(n: int, eta: float) -> SmallLambdaThreshold:
    """Threshold sqrt(2 log n - 2 log log n - eta log(n)/n) and the largest
    admissible correlation eta/(2n).

    The multiplicative constants of the tail bound are not displayed
    anywhere, so only the threshold and the sqrt(log n) decay scale are
    returned for empirical decay checks.
    """
    if n < 3:
        raise DomainError(f"n={n} < 3")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    radicand = 2.0 * math.log(n) - 2.0 * math.log(math.log(n)) - eta * math.log(n) / n
    if radicand <= 0.0:
        raise DomainError(f"radicand {radicand:.4f} <= 0 for n={n}, eta={eta}")
    return SmallLambdaThreshold(math.sqrt(radicand), eta / (2.0 * n), math.sqrt(math.log(n)))


def beta_block(lam: float, u: float, k: int, N: int) -> float:
    """Quadratic-form shrink factor for the block covariance with diagonal
    blocks at level u and off-blocks at level lam.

    beta = (1 / (1-u+k(u-lam))) * ((1-u+Nku-k lam) / (1-u+Nk(u+lam)-k lam)),
    stated to lie in (0, 1) under N u > lam and (k-1) u > 1; the inputs
    where it does not (an open defect of the block bound) raise DomainError.
    """
    if not 0.0 < lam <= u < 1.0:
        raise DomainError(f"need 0 < lam <= u < 1, got lam={lam}, u={u}")
    if not N * u > lam:
        raise DomainError(f"need N*u > lam, got N*u={N * u}, lam={lam}")
    if not (k - 1) * u > 1.0:
        raise DomainError(f"need (k-1)*u > 1, got (k-1)*u={(k - 1) * u}")
    beta = (1.0 / (1.0 - u + k * (u - lam))) * (
        (1.0 - u + N * k * u - k * lam) / (1.0 - u + N * k * (u + lam) - k * lam)
    )
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta={beta} escaped (0, 1); inputs lam={lam}, u={u}, k={k}, N={N}")
    return beta


def q_form(lam: float, u: float, k: int, N: int, x) -> float:
    """The three-term quadratic form of the block-covariance bound, evaluated
    exactly as displayed: global-sum term, per-block-sum term, diagonal term.
    """
    vec = np.asarray(x, dtype=float)
    if vec.shape != (N * k,):
        raise DomainError(f"x must have length N*k={N * k}, got shape {vec.shape}")
    total = vec.sum()
    blocks = vec.reshape(N, k).sum(axis=1)
    c_global = -lam / ((1.0 - u + k * (u - lam)) * ((1.0 - u) + N * k * u + (N - 1) * k * lam))
    c_block = -(u - lam) / ((1.0 - u) * (1.0 - u + k * (u - lam)))
    c_diag = 1.0 / (1.0 - u)
    return float(c_global * total**2 + c_block * np.sum(blocks**2) + c_diag * np.sum(vec**2))


def bound_block(lam: float, u: float, k: int, N: int, theta: float) -> BoundReport:
    """Gaussian-product bound for the block-partitioned covariance.

    The right-hand integral factorizes into independent Gaussians with
    variance 1/beta, so it is evaluated in closed form:
    Phi(theta sqrt(beta))^{Nk} / (beta^{Nk/2} * sqrt((1-u)^{(k-1)N} (1+u(k-1))^N)).
    """
    beta = beta_block(lam, u, k, N)
    nk = N * k
    log_norm = 0.5 * ((k - 1) * N * math.log(1.0 - u) + N * math.log(1.0 + u * (k - 1)))
    normalizer = _product(lambda: math.sqrt((1.0 - u) ** ((k - 1) * N) * (1.0 + u * (k - 1)) ** N), log_norm)
    phi = float(ndtr(theta * math.sqrt(beta)))
    log_value = nk * _log(phi) - nk / 2.0 * math.log(beta) - log_norm
    value = _product(lambda: phi**nk / (beta ** (nk / 2.0) * normalizer), log_value)
    return BoundReport(
        value=value,
        threshold=theta,
        intermediates={"beta": beta, "normalizer": normalizer, "nk": nk},
    )


class SzegoBounds(NamedTuple):
    lower: float
    upper: float
    g_value: float
    vacuous_upper: bool


def szego_bounds(density: Callable[[np.ndarray], np.ndarray], n: int, z: float) -> SzegoBounds:
    """Two-sided bounds for P{max_j |X_j| <= z} of a stationary sequence in
    terms of the spectral geometric mean G.

    lower = (Phi(z) - Phi(-z))^n, upper = same at z / sqrt(G).  When G = 0
    the upper bound is the vacuous 1 and is flagged as such.
    """
    if n < 1:
        raise DomainError(f"n={n} < 1")
    if z <= 0.0:
        raise DomainError(f"z={z} must be positive")
    g = spectral_geometric_mean(density)
    lower = float(2.0 * ndtr(z) - 1.0) ** n
    if g.value == 0.0:
        return SzegoBounds(lower, 1.0, 0.0, True)
    upper = float(2.0 * ndtr(z / math.sqrt(g.value)) - 1.0) ** n
    return SzegoBounds(lower, upper, g.value, False)


def bound_moderate_trig(
    spec: PolynomialSpec,
    eta: float,
    eps: float,
    C: float = 1.0,
    V: Optional[float] = None,
) -> BoundReport:
    """Moderate-deviation bound for the periodic sum on [0, eps].

    eta < 1 branch (requires the fourth-moment condition):
        threshold = sqrt(2 eta A log A),
        value = exp(-C eps A^{1-eta} / sqrt(eta ((sum a^4)^{1/2} + 1) log A)).
    eta = 1 branch (requires 0 < V < A):
        threshold = sqrt(2 A log(A/V)),
        value = exp(-C eps V / sqrt(((sum a^4)^{1/2} + 1) log(A/V))).
    """
    _free_constant(C)
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta={eta} outside (0, 1]")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps={eps} outside (0, 1]")
    a2 = power_sum(spec, 2)
    b_root = math.sqrt(power_sum(spec, 4))
    inter = {"A": a2, "a4_root": b_root}
    if eta < 1.0:
        cond = check_moderate_condition(spec, eta)
        if not cond.holds:
            raise DomainError(
                f"fourth-moment condition fails: (sum a^4)^(1/2) = {cond.lhs:.6g} "
                f"> A^(1-eta)/sqrt(log A) = {cond.rhs:.6g}"
            )
        log_a = math.log(a2)
        threshold = math.sqrt(2.0 * eta * a2 * log_a)
        exponent = C * eps * a2 ** (1.0 - eta) / math.sqrt(eta * (b_root + 1.0) * log_a)
        inter.update({"log_A": log_a, "condition_lhs": cond.lhs, "condition_rhs": cond.rhs})
    else:
        if V is None or not 0.0 < V < a2:
            raise DomainError(f"eta=1 branch needs 0 < V < A={a2}, got V={V}")
        log_ratio = math.log(a2 / V)
        threshold = math.sqrt(2.0 * a2 * log_ratio)
        exponent = C * eps * V / math.sqrt((b_root + 1.0) * log_ratio)
        inter.update({"V": V, "log_A_over_V": log_ratio})
    inter["exponent"] = exponent
    return BoundReport(
        value=math.exp(-exponent),
        threshold=threshold,
        intermediates=inter,
    )


def bound_loglog(x: float, eta: float, B: float, C: float = 1.0) -> BoundReport:
    """Iterated-logarithm specialization: threshold
    sqrt(2 eta (log log x)(log log log x)) and value
    exp(-C (log log x)^{1-eta} / sqrt(8 eta (B+1) log log log x)).
    """
    _free_constant(C)
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    if B < 0.0:
        raise DomainError(f"B={B} must be nonnegative")
    if x <= math.e**math.e:
        raise DomainError(f"x={x} too small: need log log log x > 0, i.e. x > e^e")
    llx = math.log(math.log(x))
    lllx = math.log(llx)
    if lllx <= 0.0:
        raise DomainError(f"x={x} too small: log log log x = {lllx:.4f} <= 0")
    threshold = math.sqrt(2.0 * eta * llx * lllx)
    exponent = C * llx ** (1.0 - eta) / math.sqrt(8.0 * eta * (B + 1.0) * lllx)
    return BoundReport(
        value=math.exp(-exponent),
        threshold=threshold,
        intermediates={"loglog_x": llx, "logloglog_x": lllx, "exponent": exponent},
    )
