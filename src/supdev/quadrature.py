"""Vectorized adaptive quadrature.

One consumer: ``decoupling.riemann_gap``, the L1 norm of an absolute
trigonometric sum (piecewise smooth, kinks at the sign changes).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_simpson"]

SIMPSON_TOL = 1e-9  # absolute tolerance of adaptive_simpson
SIMPSON_INTERVALS = 2**20  # intervals adaptive_simpson may accept


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

