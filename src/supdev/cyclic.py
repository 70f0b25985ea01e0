"""Rational-frequency approximation of almost periodic Gaussian sums.

Each real frequency L_k is quantized to the exact rational
floor(N_k L_k) / N_k driven by a non-decreasing integer test sequence
N_k >= k, so the per-frequency error is at most 1/N_k.  The test sequence
also sieves the evaluation interval into blocks [N_{kappa-1}, N_kappa); the
number of blocks inside [1, U] enters the transfer error through its
logarithm.  The composite amplitude Delta combines the quantization error,
the head coefficients, and tail sums, and the transfer inequality bounds
the deviation probability of the original process by that of its
rational-frequency companion plus 2 exp(-C h^2 / (Delta^2 log kappa)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import _free_constant
from .errors import BudgetError, DomainError
from .spectrum import FrequencySeq, PolynomialSpec, power_sum

__all__ = [
    "DeltaReport",
    "SupDiffBound",
    "TestSequence",
    "TransferBound",
    "delta_term",
    "kappa_blocks",
    "kappa_count",
    "perp_process",
    "rational_freq",
    "sup_diff_bound",
    "transfer_bound",
]

WALK_BUDGET = 10**6  # hard cap on the N_k one walk keeps (a few tens of MB of ints)


@dataclass(frozen=True)
class TestSequence:
    """Non-decreasing integer sequence N_k >= k (positive), 1-based.

    Generators: "pow2" (N_k = 2^k), "identity" (N_k = k), "floor" (N_k =
    max(k, floor_value)), "explicit" (finite tuple) or "rule" (callable).
    Rule-backed sequences can be evaluated at any k; explicit ones only up
    to their length.
    """

    __test__ = False  # domain type, not a pytest case

    kind: str
    explicit: Optional[tuple] = None
    rule: Optional[Callable[[int], int]] = None
    floor_value: int = 1

    def __post_init__(self):
        if self.kind not in ("pow2", "identity", "floor", "explicit", "rule"):
            raise DomainError(f"unknown test sequence kind {self.kind!r}")
        if self.kind == "explicit" and not self.explicit:
            raise DomainError("explicit test sequence needs values")
        if self.kind == "rule" and self.rule is None:
            raise DomainError("rule test sequence needs a callable")

    def value(self, k: int) -> int:
        if k < 1:
            raise DomainError(f"test sequence index k={k} < 1")
        if self.kind == "pow2":
            v = 1 << k
        elif self.kind == "identity":
            v = k
        elif self.kind == "floor":
            v = max(k, self.floor_value)
        elif self.kind == "explicit":
            if k > len(self.explicit):
                raise DomainError(f"index k={k} beyond explicit test sequence length {len(self.explicit)}")
            v = int(self.explicit[k - 1])
        else:
            v = int(self.rule(k))
        if v < 1:
            raise DomainError(f"test sequence value N_{k}={v} < 1")
        if v < k:
            raise DomainError(f"test sequence violates N_k >= k at k={k}: N_k={v}")
        if self.kind == "explicit" and k > 1 and v < int(self.explicit[k - 2]):
            raise DomainError(f"test sequence decreases at k={k}: {self.explicit[k - 2]} -> {v}")
        return v

    def values(self, y: int, x: int) -> list:
        """N_y..N_x as exact Python integers (they can exceed 64 bits)."""
        out = [self.value(k) for k in range(y, x + 1)] if x >= y else []
        if any(b < a for a, b in zip(out, out[1:])):
            raise DomainError(f"test sequence decreases inside [{y}, {x}]")
        return out

    def inverse_squares(self, y: int, x: int) -> np.ndarray:
        """1/N_k^2 as floats, by exact integer division: correctly rounded,
        and 0 where it underflows (N_k^2 beyond the float range included)."""
        return np.array([1 / (v * v) for v in self.values(y, x)], dtype=float)

    def max_index(self) -> Optional[int]:
        return len(self.explicit) if self.kind == "explicit" else None


def rational_freq(L: float, N: int) -> tuple:
    """Quantize L > 0 to the exact rational (floor(N L), N).

    The represented value floor(N L)/N differs from L by at most 1/N; N L
    must be a finite float.
    """
    if L <= 0.0:
        raise DomainError(f"frequency L={L} must be positive")
    if N < 1:
        raise DomainError(f"denominator N={N} must be a positive integer")
    try:
        scaled = N * L
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):
        raise DomainError(f"N*L is not a finite float for L={L} and a {int(N).bit_length()}-bit denominator N")
    return int(math.floor(scaled)), int(N)


class KappaBlocks(NamedTuple):
    count: int
    degenerate: int  # repeated-N blocks [N, N) counted through vacuous containment


def _walk(ts: TestSequence, hi: float) -> list:
    """N_1, N_2, ... up to the first N_k > hi, or to the end of an explicit
    sequence; every block index kappa with N_{kappa-1} <= hi is a pair of
    neighbours in this list.  A walk longer than WALK_BUDGET raises."""
    if not math.isfinite(hi):
        raise DomainError(f"interval end {hi} is not finite")
    cap = ts.max_index()
    walk = [ts.value(1)]
    while walk[-1] <= hi and (cap is None or len(walk) < cap):
        if len(walk) == WALK_BUDGET:
            raise BudgetError(f"test sequence walk to {hi:g} exceeds {WALK_BUDGET} terms")
        walk.append(ts.value(len(walk) + 1))
    return walk


def _blocks(walk: list, lo: float, hi: float) -> KappaBlocks:
    count = degenerate = 0
    for prev, cur in zip(walk, walk[1:]):
        if cur == prev:
            count += 1
            degenerate += 1
        elif prev >= lo and cur <= hi:
            count += 1
    return KappaBlocks(count, degenerate)


def kappa_blocks(ts: TestSequence, lo: float, hi: float) -> KappaBlocks:
    """Count block indices kappa >= 2 with [N_{kappa-1}, N_kappa) inside [lo, hi].

    Degenerate blocks N_{kappa-1} = N_kappa are empty half-open intervals
    and count as contained wherever they occur in the scanned range (the
    scan walks kappa while N_{kappa-1} <= hi); the degenerate tally is
    reported so repeated-N sequences are visible.  A non-finite hi raises.
    """
    if hi < lo:
        raise DomainError(f"interval [{lo}, {hi}] reversed")
    return _blocks(_walk(ts, hi), lo, hi)


def kappa_count(ts: TestSequence, lo: float, hi: float) -> int:
    return kappa_blocks(ts, lo, hi).count


def perp_process(spec: PolynomialSpec, ts: TestSequence) -> PolynomialSpec:
    """The rational-frequency companion: same coefficients and range,
    frequency k replaced by floor(N_k L_k) / N_k stored exactly."""
    if spec.convention != "raw":
        raise DomainError("the rational-frequency companion applies to raw-convention specs")
    pairs = [rational_freq(float(L), N) for L, N in zip(spec.freq_values(), ts.values(spec.y, spec.x))]
    return PolynomialSpec(
        coeffs=spec.coeffs,
        freqs=FrequencySeq.rationals(pairs) if pairs else FrequencySeq.rationals(((1, 1),)),
        y=spec.y,
        x=spec.x,
        convention="raw",
    )


@dataclass
class DeltaReport:
    """The composite approximation amplitude and its branch decomposition."""

    delta: float
    branch: str  # "y<=U" | "U<=y"
    summands: tuple  # three summands for y<=U, a single product for U<=y
    kappa_1U: int
    kappa_yU: int
    degenerate_blocks: int

    def __post_init__(self):
        if self.delta < 0.0:
            raise DomainError("delta must be nonnegative")


def delta_term(spec: PolynomialSpec, ts: TestSequence, U: float) -> DeltaReport:
    """Evaluate the branch-matched composite amplitude Delta on [y, x].

    Branch y <= U:
        y sqrt(sum 1/N_k^2) sqrt(sum a_k^2)
        + sum of |a_k| over y <= k < kappa*   (kappa* the largest kappa with
          N_kappa <= U; empty sum when no such kappa or kappa* <= y)
        + sup over kappa with y <= N_kappa <= U of
          N_kappa sqrt(sum_{k>=kappa} 1/N_k^2) sqrt(sum_{k>=kappa} a_k^2).
    Branch U <= y:
        U sqrt(sum 1/N_k^2) sqrt(sum a_k^2).
    Empty sums and sups contribute 0.  N_1, N_2, ... are read once, up to
    the first N_k > U, for kappa([1, U]), kappa([y, U]), kappa* and the
    sup; a non-finite U raises.
    """
    if U < 1.0:
        raise DomainError(f"U={U} must be at least 1")
    y, x = spec.y, spec.x
    a = spec.coeff_values()
    inv_sq = ts.inverse_squares(y, x)
    inv2 = float(np.sum(inv_sq)) if inv_sq.size else 0.0
    a2 = power_sum(spec, 2)
    base = math.sqrt(inv2) * math.sqrt(a2)
    walk = _walk(ts, U)
    blocks_1U = _blocks(walk, 1.0, U)
    blocks_yU = _blocks(walk, float(y), U) if y <= U else KappaBlocks(0, 0)

    if U <= y:
        delta = U * base
        return DeltaReport(
            delta=delta,
            branch="U<=y",
            summands=(delta,),
            kappa_1U=blocks_1U.count,
            kappa_yU=blocks_yU.count,
            degenerate_blocks=blocks_1U.degenerate,
        )

    first = y * base

    # largest kappa with N_kappa <= U: the walk ends at the first N_k > U
    kappa_star = len(walk) - (walk[-1] > U)
    if kappa_star >= 2 and kappa_star > y:
        hi = min(kappa_star - 1, x)
        second = float(np.sum(np.abs(a[: hi - y + 1]))) if hi >= y else 0.0
    else:
        second = 0.0

    third = 0.0
    tail_inv2 = np.concatenate([np.cumsum(inv_sq[::-1])[::-1], [0.0]]) if inv_sq.size else np.zeros(1)
    tail_a2 = np.concatenate([np.cumsum((a**2)[::-1])[::-1], [0.0]]) if a.size else np.zeros(1)
    for kappa, n_kappa in enumerate(walk[:kappa_star], start=1):
        if n_kappa < y or kappa > x:
            continue  # outside [y, U], or empty tail sums that contribute 0 to the sup
        idx = max(kappa, y) - y
        third = max(third, n_kappa * math.sqrt(tail_inv2[idx]) * math.sqrt(tail_a2[idx]))

    return DeltaReport(
        delta=first + second + third,
        branch="y<=U",
        summands=(first, second, third),
        kappa_1U=blocks_1U.count,
        kappa_yU=blocks_yU.count,
        degenerate_blocks=blocks_1U.degenerate,
    )


def _guarded_log(kappa: int) -> float:
    """max(log kappa, 1), read as 1 when no block fits (kappa = 0)."""
    return max(math.log(kappa), 1.0) if kappa >= 1 else 1.0


class SupDiffBound(NamedTuple):
    e_value: float  # the branch's displayed amplitude (without sqrt(log kappa))
    bound: float  # C * e_value * sqrt(max(log kappa, 1))
    kappa: int
    branch: str


def sup_diff_bound(spec: PolynomialSpec, ts: TestSequence, U: float, C: float = 1.0) -> SupDiffBound:
    """Bound for the mean supremum of |X - X_perp| over [1, U].

    The branch y <= U uses the three-summand amplitude with kappa([y, U]);
    the branch U <= y uses the single product with kappa([1, U]).  For
    kappa <= 1 the logarithm degenerates, so log kappa is guarded by
    max(log kappa, 1) while the raw kappa is still reported.
    """
    _free_constant(C)
    rep = delta_term(spec, ts, U)
    kappa = rep.kappa_yU if rep.branch == "y<=U" else rep.kappa_1U
    return SupDiffBound(rep.delta, C * rep.delta * math.sqrt(_guarded_log(kappa)), kappa, rep.branch)


class TransferBound(NamedTuple):
    error_term: float
    delta_report: DeltaReport
    kappa: int
    log_kappa_guarded: float


def transfer_bound(
    spec: PolynomialSpec,
    ts: TestSequence,
    U: float,
    theta: float,
    h: float,
    C: float = 1.0,
) -> TransferBound:
    """Error term 2 exp(-C h^2 / (Delta^2 max(log kappa([1,U]), 1))).

    The transfer inequality then reads: P{sup X <= theta - h} is at most
    P{sup X_perp <= theta} plus this error term.  Delta = 0 (all-zero
    coefficients) gives error 0 since the coupled difference vanishes.
    """
    _free_constant(C)
    if not 0.0 < h < theta:
        raise DomainError(f"need 0 < h < theta, got h={h}, theta={theta}")
    if U < 1.0:
        raise DomainError(f"U={U} must be at least 1")
    rep = delta_term(spec, ts, U)
    kappa = rep.kappa_1U
    log_term = _guarded_log(kappa)
    if rep.delta == 0.0:
        return TransferBound(0.0, rep, kappa, log_term)
    error = 2.0 * math.exp(-C * h * h / (rep.delta**2 * log_term))
    return TransferBound(error, rep, kappa, log_term)
