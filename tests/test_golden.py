"""Golden CSV bytes for every experiment kind.

Each file under ``tests/golden/`` holds the CSV of the kind's default
config run at seed 0, with the ``wall_time_s`` and ``timestamp`` columns
removed.  A change to the lattice kernels or the Monte Carlo engine must
reproduce these bytes.  The MC kinds report count estimators (or means of
vector maxima), so a projection that moves a path value by an ulp leaves
their rows unchanged.

The harness never calls ``mc_expected_sup_vector`` and never reaches a
vector width of 32 or more, so the direct vector estimators are pinned as
well, by the ``repr`` of their estimate and half-width.
"""

import math
from pathlib import Path

import pytest

from supdev.decoupling import decoupling_coeff_vector, verify_decoupling_mc
from supdev.harness import default_config, records_to_csv, run_experiment
from supdev.mc import CovarianceSpec, mc_expected_sup_vector, mc_vector_sup_prob

GOLDEN = Path(__file__).parent / "golden"
KINDS = (
    "kronecker-search",
    "lattice-correlation",
    "limsup",
    "divergence",
    "equicorrelated",
    "block",
    "szego",
    "decoupling",
    "cyclic-transfer",
    "moderate-trig",
)


def csv_without_timing(kind: str) -> str:
    record = run_experiment(default_config(kind), seed=0)
    lines = []
    for line in records_to_csv([record]).splitlines():
        cells = line.split(",")
        del cells[12:14]  # wall_time_s, timestamp
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", KINDS)
def test_default_csv_bytes(kind):
    expected = (GOLDEN / f"{kind}.csv").read_text(encoding="utf-8")
    assert csv_without_timing(kind) == expected


EQUI5 = CovarianceSpec.equicorrelated(5, 0.3)
BLOCK40 = CovarianceSpec.block(5, 8, 0.5, 0.2)
STATIONARY40 = CovarianceSpec.stationary([0.8**k for k in range(40)])
EQUI6 = CovarianceSpec.equicorrelated(6, 0.15)
BOXES6 = [(-0.5, math.inf), (-math.inf, 1.0), (-1.0, 1.5), (-math.inf, math.inf), (0.0, 2.0), (-2.0, math.inf)]

# name: (estimator, repr(estimate), repr(half_width)); 20000 reps span 3-4 chunks.
DIRECT = {
    "sup_vector_n5": (
        lambda: mc_expected_sup_vector(EQUI5, 20000, seed=3),
        "0.9708564293802626",
        "0.010769816741020724",
    ),
    "sup_vector_abs_n5": (
        lambda: mc_expected_sup_vector(EQUI5, 20000, seed=3, absolute=True),
        "1.5229139803809681",
        "0.007834494009726908",
    ),
    "sup_vector_n40": (
        lambda: mc_expected_sup_vector(BLOCK40, 20000, seed=4),
        "1.8205782751341877",
        "0.009149252319005603",
    ),
    "sup_vector_abs_n40": (
        lambda: mc_expected_sup_vector(BLOCK40, 20000, seed=4, absolute=True),
        "2.283598984682176",
        "0.006744352471774471",
    ),
    "sup_prob_abs_n40": (
        lambda: mc_vector_sup_prob(STATIONARY40, 2.5, 20000, seed=5, absolute=True),
        "0.7436",
        "0.0060510824212803875",
    ),
    "decoupling_box_n6": (
        lambda: verify_decoupling_mc(
            EQUI6, 2.0 * decoupling_coeff_vector(EQUI6).p_value, 2.0, BOXES6, 20000, seed=6
        ).lhs,
        "0.22085",
        "0.005748698230050934",
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_direct_vector_estimates(name):
    run, estimate, half_width = DIRECT[name]
    est = run()
    assert (repr(est.estimate), repr(est.half_width)) == (estimate, half_width)
