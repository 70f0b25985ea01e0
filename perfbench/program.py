"""Locate the program under test: the ``src/supdev`` package of this checkout.

Both entry points call ``load`` before anything imports numpy, so the BLAS
and OpenMP pools start with one thread.  A checkout without ``src/supdev``
is an error; an installed copy elsewhere is never used in its place.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load() -> None:
    """Pin native thread pools to one thread and import ``supdev`` from ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import supdev.harness
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import supdev from {SRC}: {exc}") from None
    found = Path(supdev.harness.__file__).resolve().parent
    if found != SRC / "supdev":
        raise SystemExit(f"perfbench: supdev was imported from {found}, not from {SRC / 'supdev'}")
