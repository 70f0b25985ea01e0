"""Vectorized adaptive quadrature helpers.

Two consumers: the L1 norm of an absolute trigonometric sum (piecewise
smooth, kinks at the sign changes) and autocovariances gamma(h) of a
spectral density (smooth periodic integrands, midpoint-doubling).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_simpson", "autocovariance"]

SIMPSON_TOL = 1e-9  # absolute tolerance of adaptive_simpson
SIMPSON_INTERVALS = 2**20  # intervals adaptive_simpson may accept
AUTOCOVARIANCE_TOL = 1e-12  # relative (absolute below 1) tolerance of autocovariance
AUTOCOVARIANCE_NODES = 2**18  # midpoint budget of one autocovariance


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n_panels: int) -> float:
    """Integrate f over [a, b] to absolute tolerance SIMPSON_TOL.

    The range is seeded with ``n_panels`` equal panels (callers choose the
    count from the integrand's known oscillation scale); each panel is then
    bisected until the Richardson error estimate of the Simpson rule drops
    below its share of the tolerance.  All pending intervals are evaluated
    in one vectorized batch per sweep.
    """
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, n_panels + 1)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    flo = f(lo)
    fhi = f(hi)
    fmid = f(0.5 * (lo + hi))
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    budget = SIMPSON_INTERVALS
    while lo.size:
        if lo.size > budget:
            raise QuadratureError(f"adaptive_simpson exceeded {SIMPSON_INTERVALS} intervals")
        mid = 0.5 * (lo + hi)
        lmid = f(0.5 * (lo + mid))
        rmid = f(0.5 * (mid + hi))
        left = (mid - lo) / 6.0 * (flo + 4.0 * lmid + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * rmid + fhi)
        err = left + right - whole
        # per-interval tolerance share, floored to keep kink intervals finite
        share = SIMPSON_TOL * np.maximum((hi - lo) / (b - a), 1e-12)
        done = np.abs(err) <= 15.0 * share
        total += float(np.sum((left + right + err / 15.0)[done]))
        keep = ~done
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        flo, fmid, fhi = flo[keep], fmid[keep], fhi[keep]
        lmid, rmid = lmid[keep], rmid[keep]
        left, right = left[keep], right[keep]
        # split the survivors
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        flo = np.concatenate([flo, fmid])
        fhi = np.concatenate([fmid, fhi])
        fmid = np.concatenate([lmid, rmid])
        whole = np.concatenate([left, right])
        budget -= done.sum()
    return total


def autocovariance(density: Callable[[np.ndarray], np.ndarray], h: int) -> float:
    """gamma(h) = (1/2pi) integral of f(t) cos(h t) over [-pi, pi].

    Midpoint-doubling: exact (up to rounding) once the node count exceeds
    the bandwidth for trigonometric-polynomial densities, and spectrally
    accurate for any smooth periodic density.
    """
    def mean(n: int) -> float:
        mids = -math.pi + (2.0 * np.arange(n) + 1.0) * (math.pi / n)
        return float(np.mean(np.asarray(density(mids), dtype=float) * np.cos(h * mids)))

    n = 64
    prev = mean(n)
    while n < AUTOCOVARIANCE_NODES:
        n *= 2
        cur = mean(n)
        if abs(cur - prev) <= AUTOCOVARIANCE_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(f"autocovariance quadrature did not converge for lag {h}")
