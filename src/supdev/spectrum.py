"""Coefficient and frequency sequences, index ranges, and scalar aggregates.

A PolynomialSpec evaluates its coefficients a_y..a_x and frequencies
L_y..L_x once, when it is built, and everything downstream (bounds, Monte
Carlo, rational-frequency approximation) reads those read-only arrays;
no other module evaluates a sequence.  Shared aggregates are defined here
once: ``power_sum`` (sum a_k^p) and ``node_floor`` (2 pi sum j_k a_k^2).
Empty ranges follow the convention sum() == 0.
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
    "SpectralDensity",
    "GeometricMean",
    "ModerateCondition",
    "node_floor",
    "power_sum",
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
    explicit: Optional[tuple] = None  # ints, floats, or (num, den) pairs
    rule: Optional[Callable[[int], float]] = None  # 1-based k -> j_k or L_k

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
            if k > len(self.explicit):
                raise DomainError(f"frequency index k={k} beyond explicit length {len(self.explicit)}")
            v = self.explicit[k - 1]
            return v[0] / v[1] if self.kind == "rational" else float(v)
        return float(self.rule(k))

    def rational_pair(self, k: int) -> tuple:
        if self.kind != "rational":
            raise DomainError("rational_pair only defined for rational frequency sequences")
        return self.explicit[k - 1]

    def values(self, y: int, x: int) -> np.ndarray:
        """Frequencies y..x as floats (empty array when x < y)."""
        out = np.array([self.value(k) for k in range(y, x + 1)], dtype=float)
        if self.kind in ("integer", "real") and out.size > 1 and not np.all(np.diff(out) > 0):
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
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        total = float(np.sum(a**p))
    if not math.isfinite(total):
        raise DomainError(f"sum of a_k^{p} over [{spec.y}, {spec.x}] is {total}, not a finite float")
    return total


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


@dataclass
class SpectralDensity:
    """Nonnegative density on [-pi, pi], used only through real evaluations."""

    f: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(np.asarray(t, dtype=float)), dtype=float)


class GeometricMean(NamedTuple):
    value: float
    log_mean: float
    nodes: int
    log_integrable: bool


_TINY = np.finfo(float).tiny  # log-clip floor; an exact zero contributes log(tiny)


def spectral_geometric_mean(
    density: SpectralDensity,
    tol: float = 1e-10,
    max_nodes: int = 2**22,
    diverge_cutoff: float = -300.0,
) -> GeometricMean:
    """exp of the mean of log f over [-pi, pi] by midpoint-doubling quadrature.

    Midpoint sums tolerate integrable log-singularities at isolated zeros of
    f.  The estimate sequence is refined by doubling until two successive
    log-means differ by less than ``tol`` (an absolute tolerance on the log
    is a relative tolerance on the mean itself).  A log-mean that falls
    below ``diverge_cutoff`` is reported as the legitimate value-0 branch;
    running out of nodes without converging raises QuadratureError instead.
    """
    if tol <= 0.0:
        raise DomainError(f"tol={tol} must be positive")

    def log_mean(n: int) -> float:
        mids = -math.pi + (2.0 * np.arange(n) + 1.0) * (math.pi / n)
        vals = density(mids)
        if not np.all(vals >= 0.0):
            raise DomainError("spectral density is negative or NaN on the midpoint grid")
        return float(np.mean(np.log(np.maximum(vals, _TINY))))

    n = 16
    prev = log_mean(n)
    while n < max_nodes:
        n *= 2
        cur = log_mean(n)
        if cur < diverge_cutoff and prev < diverge_cutoff:
            return GeometricMean(0.0, cur, n, False)
        if abs(cur - prev) < tol:
            return GeometricMean(math.exp(cur), cur, n, True)
        prev = cur
    raise QuadratureError(
        f"geometric-mean quadrature did not converge within {max_nodes} nodes "
        f"(last log-mean {prev:.6g}); this is distinct from the value-0 branch"
    )
