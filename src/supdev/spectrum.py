"""Coefficient and frequency sequences, index ranges, and scalar aggregates.

A PolynomialSpec evaluates its coefficients a_y..a_x and frequencies
L_y..L_x once, when it is built, and everything downstream (bounds, Monte
Carlo, rational-frequency approximation) reads those read-only arrays;
no other module evaluates a sequence.  Shared aggregates are defined here
once: ``power_sum`` (sum a_k^p), ``variance`` (A = sum a_k^2, refused
when 0) and ``node_floor`` (2 pi sum j_k a_k^2).  Empty ranges follow the
convention sum() == 0.  ``TrigDensity`` is the szego kind's spectral
density, whose autocovariances are finite sums of its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetError, DomainError, QuadratureError

__all__ = [
    "CoefficientSeq",
    "FrequencySeq",
    "PolynomialSpec",
    "GeometricMean",
    "TrigDensity",
    "ModerateCondition",
    "node_floor",
    "power_sum",
    "variance",
    "check_moderate_condition",
    "spectral_geometric_mean",
    "primes_up_to",
]

TERM_BUDGET = 10**6  # hard cap on the terms one PolynomialSpec evaluates (as cyclic.WALK_BUDGET caps a walk)


def primes_up_to(n: int) -> np.ndarray:
    """Deterministic Eratosthenes sieve; returns the primes <= n."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _is_prime(k: int) -> bool:
    """Trial division by 2..isqrt(k)."""
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


@dataclass(frozen=True)
class CoefficientSeq:
    """Real coefficient sequence a_1, a_2, ... materialized on demand.

    ``kind`` selects the generator: "explicit" (a finite tuple), "ones"
    (a_k = 1), "inv_sqrt" (a_k = k^{-1/2}), "prime_inv_sqrt" (a_p = p^{-1/2}
    on primes, 0 elsewhere) or "rule" (an arbitrary 1-based callable).
    ``nonvanishing`` asserts, at evaluation time, that every requested entry
    is nonzero; paths that require it pass the flag.
    """

    kind: str
    explicit: Optional[tuple] = None
    rule: Optional[Callable[[int], float]] = None
    nonvanishing: bool = False

    _KINDS = ("explicit", "ones", "inv_sqrt", "prime_inv_sqrt", "rule")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "explicit" and not self.explicit:
            raise DomainError("explicit coefficient sequence needs values")
        if self.kind == "rule" and self.rule is None:
            raise DomainError("rule coefficient sequence needs a callable")

    @classmethod
    def from_values(cls, values: Sequence[float], nonvanishing: bool = False) -> "CoefficientSeq":
        return cls(kind="explicit", explicit=tuple(float(v) for v in values), nonvanishing=nonvanishing)

    def value(self, k: int) -> float:
        if k < 1:
            raise DomainError(f"coefficient index k={k} < 1")
        if self.kind == "explicit":
            if k > len(self.explicit):
                raise DomainError(f"coefficient index k={k} beyond explicit length {len(self.explicit)}")
            v = self.explicit[k - 1]
        elif self.kind == "ones":
            v = 1.0
        elif self.kind == "inv_sqrt":
            v = k**-0.5
        elif self.kind == "prime_inv_sqrt":
            v = k**-0.5 if _is_prime(k) else 0.0
        else:
            v = float(self.rule(k))
        if self.nonvanishing and v == 0.0:
            raise DomainError(f"coefficient a_{k} vanishes but sequence is flagged non-vanishing")
        return float(v)

    def values(self, y: int, x: int) -> np.ndarray:
        """a_y..a_x (empty array when x < y)."""
        return np.array([self.value(k) for k in range(y, x + 1)], dtype=float)


@dataclass(frozen=True)
class FrequencySeq:
    """Frequency sequence: integer j_k, real L_k, or exact rationals p_k/q_k.

    Integer and real kinds must be strictly increasing on every materialized
    range (the finite stand-in for "increasing and unbounded").  Rational
    entries are stored exactly as integer pairs.
    """

    kind: str  # "integer" | "real" | "rational"
    explicit: Optional[tuple] = None  # ints, floats, or (num, den) pairs for k = first, first + 1, ...
    rule: Optional[Callable[[int], float]] = None  # 1-based k -> j_k or L_k
    first: int = 1  # the index k of explicit[0]

    def __post_init__(self):
        if self.kind not in ("integer", "real", "rational"):
            raise DomainError(f"unknown frequency kind {self.kind!r}")
        if self.explicit is None and self.rule is None:
            raise DomainError("frequency sequence needs explicit values or a rule")
        if self.kind == "rational" and self.explicit is None:
            raise DomainError("rational frequencies must be explicit (num, den) pairs")

    @classmethod
    def integers(cls, values: Sequence[int]) -> "FrequencySeq":
        return cls(kind="integer", explicit=tuple(int(v) for v in values))

    @classmethod
    def reals(cls, values: Sequence[float]) -> "FrequencySeq":
        return cls(kind="real", explicit=tuple(float(v) for v in values))

    @classmethod
    def rationals(cls, pairs: Sequence[tuple]) -> "FrequencySeq":
        return cls(kind="rational", explicit=tuple((int(p), int(q)) for p, q in pairs))

    def value(self, k: int) -> float:
        """Frequency at index k as a float (rational: num/den)."""
        if k < 1:
            raise DomainError(f"frequency index k={k} < 1")
        if self.explicit is not None:
            i = k - self.first
            if not 0 <= i < len(self.explicit):
                last = self.first + len(self.explicit) - 1
                raise DomainError(f"frequency index k={k} outside the explicit range [{self.first}, {last}]")
            v = self.explicit[i]
            return v[0] / v[1] if self.kind == "rational" else float(v)
        return float(self.rule(k))

    def values(self, y: int, x: int) -> np.ndarray:
        """Frequencies y..x as floats (empty array when x < y)."""
        out = np.array([self.value(k) for k in range(y, x + 1)], dtype=float)
        if self.kind in ("integer", "real") and not np.all(np.diff(out) > 0):
            raise DomainError(f"{self.kind} frequencies must be strictly increasing on [{y}, {x}]")
        return out


@dataclass(frozen=True)
class PolynomialSpec:
    """A finite random trigonometric sum: coefficients, frequencies, range.

    ``convention`` fixes the angular scaling once at construction:

    * ``"2pi"``: the periodic form, cos(2 pi j_k t) with integer j_k,
      t in [0, 1];
    * ``"raw"``: the almost periodic form, cos(L_k u) with real (or exact
      rational) L_k.

    The empty range x = y - 1 is legal and yields the zero process.
    Coefficients and frequencies on [y, x] are evaluated once, here, and
    kept as read-only arrays; an explicit sequence shorter than x raises,
    and so does a range of more than TERM_BUDGET terms, before any is built.
    """

    coeffs: CoefficientSeq
    freqs: FrequencySeq
    y: int
    x: int
    convention: str = "raw"
    _a: np.ndarray = field(init=False, repr=False, compare=False)
    _L: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.y < 1:
            raise DomainError(f"range start y={self.y} < 1")
        if self.convention not in ("2pi", "raw"):
            raise DomainError(f"unknown angular convention {self.convention!r}")
        if self.convention == "2pi" and self.freqs.kind != "integer":
            raise DomainError("the 2pi-scaled convention requires integer frequencies")
        if self.n_terms > TERM_BUDGET:
            raise BudgetError(f"range [{self.y}, {self.x}] of {self.n_terms} terms exceeds {TERM_BUDGET}")
        for name, seq in (("_a", self.coeffs), ("_L", self.freqs)):
            vals = seq.values(self.y, self.x)
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)

    @property
    def n_terms(self) -> int:
        return max(0, self.x - self.y + 1)

    def coeff_values(self) -> np.ndarray:
        return self._a

    def freq_values(self) -> np.ndarray:
        return self._L

    def angular_freqs(self) -> np.ndarray:
        """Frequencies in radians per unit of the evaluation variable."""
        vals = self.freq_values()
        return 2.0 * math.pi * vals if self.convention == "2pi" else vals


def power_sum(spec: PolynomialSpec, p: int) -> float:
    """sum_{y<=k<=x} a_k^p for p in {2, 4}; 0 on the empty range.  A sum
    past the float range raises DomainError."""
    if p not in (2, 4):
        raise DomainError(f"power_sum expects p in {{2, 4}}, got {p}")
    a = spec.coeff_values()
    with np.errstate(over="ignore"):
        total = float(np.sum(a**p))
    if not math.isfinite(total):
        raise DomainError(f"sum of a_k^{p} over [{spec.y}, {spec.x}] is {total}, not a finite float")
    return total


def variance(spec: PolynomialSpec) -> float:
    """A = sum_{y<=k<=x} a_k^2, the variance of X_{y,x}(u) at every u, which
    every bound normalizes by.  A = 0 raises DomainError naming its cause:
    an empty range, vanishing coefficients, or squares that underflow."""
    a2 = power_sum(spec, 2)
    if a2 == 0.0:
        if spec.n_terms == 0:
            why = "the range is empty"
        elif not np.any(spec.coeff_values()):
            why = "every coefficient on it vanishes"
        else:
            why = "the coefficients are nonzero, so their squares underflow"
        raise DomainError(f"A(x) = sum of a_k^2 over [{spec.y}, {spec.x}] is 0: {why}")
    return a2


def node_floor(spec: PolynomialSpec) -> float:
    """2 pi sum_{y<=k<=x} j_k a_k^2, the node floor of the periodic cyclic
    rule (A times the Riemann-gap bound); 0 on the empty range, inf past
    the float range (the grid rule then refuses it)."""
    with np.errstate(over="ignore"):
        return 2.0 * math.pi * float(np.sum(spec.freq_values() * spec.coeff_values() ** 2))


class ModerateCondition(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def check_moderate_condition(spec: PolynomialSpec, eta: float) -> ModerateCondition:
    """Compare (sum a^4)^(1/2) against A^(1-eta) / sqrt(log A).

    Requires A(y, x) > 1 so the logarithm is positive.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta={eta} outside (0, 1)")
    a2 = power_sum(spec, 2)
    if a2 <= 1.0:
        raise DomainError(f"A(y,x)={a2} <= 1: log A(y,x) is not positive")
    lhs = math.sqrt(power_sum(spec, 4))
    rhs = a2 ** (1.0 - eta) / math.sqrt(math.log(a2))
    return ModerateCondition(lhs <= rhs, lhs, rhs)


class TrigDensity:
    """Positive trig-polynomial density |sum c_j e^{ijt}|^2 + floor of
    degree d = len(c) - 1, normalized to unit mean by its mass sum c_j^2 +
    floor (the sandwich standardizes the sequence).  A mass that is not
    finite and positive raises."""

    def __init__(self, root_coeffs: Sequence[float], floor: float):
        self.coeffs, self.floor = np.asarray(root_coeffs, dtype=float), floor
        with np.errstate(over="ignore"):
            self.mass = float(np.sum(self.coeffs * self.coeffs)) + floor
        if not 0.0 < self.mass < math.inf:
            raise DomainError(f"density mass sum c_j^2 + floor = {self.mass} is not finite and positive")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        e = np.exp(1j * t)
        val = np.zeros_like(e)
        for j, cj in enumerate(self.coeffs):
            val = val + cj * e**j
        return (np.abs(val) ** 2 + self.floor) / self.mass

    def autocovariances(self, n: int) -> np.ndarray:
        """Exact gamma(0..n-1): (sum_j c_j c_{j+h} + floor [h = 0]) / mass, 0
        past lag d (Grenander & Szego 1958); gamma(0) is the mass sum over
        itself, so 1.0.  np.sum and no BLAS call: bytes under every kernel."""
        if n < 1:
            raise DomainError(f"n={n} < 1")
        c = self.coeffs
        sums = np.zeros(n)
        for h in range(min(n, c.size)):
            sums[h] = np.sum(c[: c.size - h] * c[h:])
        sums[0] += self.floor
        return sums / self.mass


class GeometricMean(NamedTuple):
    value: float
    log_mean: float
    nodes: int
    log_integrable: bool


_TINY = np.finfo(float).tiny  # log-clip floor; an exact zero contributes log(tiny)
GEOMETRIC_MEAN_TOL = 1e-10  # absolute, on successive log-means
GEOMETRIC_MEAN_NODES = 2**22  # midpoint budget of one geometric mean
LOG_MEAN_CUTOFF = -300.0  # two log-means below it read as G = 0


def spectral_geometric_mean(density: Callable[[np.ndarray], np.ndarray]) -> GeometricMean:
    """exp of the mean of log f over [-pi, pi] by midpoint-doubling quadrature.

    Midpoint sums tolerate integrable log-singularities at isolated zeros of
    f.  The estimate sequence is refined by doubling until two successive
    log-means differ by less than GEOMETRIC_MEAN_TOL (an absolute tolerance
    on the log is a relative tolerance on the mean itself).  A log-mean that
    falls below LOG_MEAN_CUTOFF is reported as the legitimate value-0
    branch; running out of GEOMETRIC_MEAN_NODES without converging raises
    QuadratureError instead.
    """

    def log_mean(n: int) -> float:
        mids = -math.pi + (2.0 * np.arange(n) + 1.0) * (math.pi / n)
        vals = np.asarray(density(mids), dtype=float)
        if not np.all(vals >= 0.0):
            raise DomainError("spectral density is negative or NaN on the midpoint grid")
        return float(np.mean(np.log(np.maximum(vals, _TINY))))

    n = 16
    prev = log_mean(n)
    while n < GEOMETRIC_MEAN_NODES:
        n *= 2
        cur = log_mean(n)
        if cur < LOG_MEAN_CUTOFF and prev < LOG_MEAN_CUTOFF:
            return GeometricMean(0.0, cur, n, False)
        if abs(cur - prev) < GEOMETRIC_MEAN_TOL:
            return GeometricMean(math.exp(cur), cur, n, True)
        prev = cur
    raise QuadratureError(
        f"geometric-mean quadrature did not converge within {GEOMETRIC_MEAN_NODES} nodes "
        f"(last log-mean {prev:.6g}); this is distinct from the value-0 branch"
    )
