"""Golden CSV bytes for every experiment kind.

Each file under ``tests/golden/`` holds the CSV of the kind's default
config run at seed 0, with the ``wall_time_s`` and ``timestamp`` columns
removed.  A change to the lattice kernels or the Monte Carlo engine must
reproduce these bytes.  The MC kinds report count estimators (or means of
vector maxima), so a projection that moves a path value by an ulp leaves
their rows unchanged.

Every Monte Carlo estimator runs through one per-replication chunk map,
Gebelein's included.  The harness never calls the expected-supremum
estimators, runs ``verify_gebelein_nelson`` only on its quadratic default
and never reaches a vector width of 32 or more, so those estimators are
pinned directly as well, by the ``repr`` of their estimate and half-width
over several chunks.
"""

import math
from pathlib import Path

import pytest

from supdev.decoupling import decoupling_coeff_vector, verify_decoupling_mc, verify_gebelein_nelson
from supdev.harness import default_config, records_to_csv, run_experiment
from supdev.mc import (
    CovarianceSpec,
    GridSpec,
    mc_expected_sup_diff,
    mc_expected_sup_path,
    mc_expected_sup_vector,
    mc_vector_sup_prob,
)
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec

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


def real_spec(step):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="ones"),
        freqs=FrequencySeq(kind="real", rule=lambda k: step * k),
        y=1,
        x=32,
        convention="raw",
    )


PATH32, OTHER32 = real_spec(0.7), real_spec(0.71)
GRID600 = GridSpec.uniform(0.0, 10.0, 600)  # 3000 reps on 600 nodes span 7 chunks

# name: (estimator, repr(estimate), repr(half_width)); 20000 reps of a
# vector span 3-4 chunks, 40000 Gebelein pairs span 5.
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
    "sup_path_600": (
        lambda: mc_expected_sup_path(PATH32, GRID600, 3000, seed=8),
        "14.830731477486225",
        "0.09080949548313456",
    ),
    "sup_path_abs_600": (
        lambda: mc_expected_sup_path(PATH32, GRID600, 3000, seed=8, absolute=True),
        "16.15077164002427",
        "0.08746981028355222",
    ),
    "sup_diff_600": (
        lambda: mc_expected_sup_diff(PATH32, OTHER32, GRID600, 3000, seed=9),
        "18.635579377891812",
        "0.13404699745666623",
    ),
    "gebelein_identity": (
        lambda: verify_gebelein_nelson(-0.7, "identity", 40000, seed=10).lhs,
        "-0.7022867911552757",
        "0.011854649053364226",
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_direct_vector_estimates(name):
    run, estimate, half_width = DIRECT[name]
    est = run()
    assert (repr(est.estimate), repr(est.half_width)) == (estimate, half_width)
