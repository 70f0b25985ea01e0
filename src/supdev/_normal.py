"""Standard normal CDF and quantile, with ``scipy.special`` imported on first call.

Importing ``scipy.special`` costs a fresh process about 0.4 s (it loads
scipy's array-API layer and, with it, ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``), and the lattice kinds never evaluate a normal CDF.  So no
module of ``supdev`` imports scipy when it loads: these two functions import
the ufunc when they are called and pass their arguments to it unchanged,
which gives the ufunc's own bits.  Python's per-module import lock makes a
first call from several pool threads at once wait for one import.
"""

from __future__ import annotations


def ndtr(x):
    """``scipy.special.ndtr(x)``: the standard normal CDF."""
    from scipy.special import ndtr as _ndtr

    return _ndtr(x)


def ndtri(x, out=None):
    """``scipy.special.ndtri(x, out=out)``: the standard normal quantile."""
    from scipy.special import ndtri as _ndtri

    return _ndtri(x, out=out)
