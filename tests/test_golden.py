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
over several chunks.  A mean sums all its replications at once, so its
summation does not follow the chunks; its bytes still do, as a GEMM row's
result can depend on the row count of its chunk.

Count estimators hide an ulp move in a path, so the path values are pinned
too: the sha256 of the design-matrix and sample-path bytes (shape included)
for an integer-frequency spec on its cyclic-rule grid, a real-frequency
transfer spec and its rational companion on [1, U], and an empty range;
and the ``repr`` of ``mc_sup_prob`` for a transfer spec and its companion
over several chunks, and for two far-tail thresholds that most paths pass
(a transfer estimate in (0, .02] and a 200-term moderate-trig estimate of 0).

``verdicts.txt`` holds the default verdict set, one ``kind/row PASS|FAIL|info``
line per row of the same seed-0 records: the run's exit code cannot show a
new failure while ``lattice-correlation/variance_floor`` fails by
construction, so a row that changes verdict is reported by name.

The pins belong to a BLAS kernel and a BLAS thread count.  With OpenBLAS
at one thread the CSV, ``DIRECT`` and ``PATH_PROBS`` pins still hold and
are checked in a fresh process; three ``PATH_BYTES`` path pins do not, as
their GEMM sums in another order.
"""

import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from supdev.bounds import bound_moderate_trig
from supdev.cyclic import TestSequence, perp_process
from supdev.decoupling import decoupling_coeff_vector, verify_decoupling_mc, verify_gebelein_nelson
from supdev.harness import csv_without_timing, default_config, run_experiment
from supdev.mc import (
    CovarianceSpec,
    GridSpec,
    mc_expected_sup_diff,
    mc_expected_sup_path,
    mc_expected_sup_vector,
    mc_sup_prob,
    mc_vector_sup_prob,
    sample_path,
    _chunk_bounds,
    _design_matrix,
)
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec
from test_imports import fresh

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


@functools.cache
def default_record(kind):
    """The kind's default record at seed 0, run once for both its pins."""
    return run_experiment(default_config(kind, seed=0))


@pytest.mark.parametrize("kind", KINDS)
def test_default_csv_bytes(kind):
    expected = (GOLDEN / f"{kind}.csv").read_text(encoding="utf-8")
    assert csv_without_timing([default_record(kind)]) == expected


def test_default_verdict_set():
    verdict = {True: "PASS", False: "FAIL", None: "info"}
    got = [f"{kind}/{row.name} {verdict[row.passed]}" for kind in KINDS for row in default_record(kind).checks]
    expected = (GOLDEN / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    changed = {"new": sorted(set(got) - set(expected)), "gone": sorted(set(expected) - set(got))}
    assert got == expected, f"default verdict set changed: {changed}"


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
GRID600 = GridSpec.uniform(0.0, 10.0, 600)  # 3000 reps on 600 nodes span 8 chunks

# name: (estimator, repr(estimate), repr(half_width)); 20000 reps of a
# vector span 4 chunks, 40000 Gebelein pairs span 8.
DIRECT = {
    "sup_vector_n5": (
        lambda: mc_expected_sup_vector(EQUI5, 20000, seed=3),
        "0.9708564293802625",
        "0.010769816741020729",
    ),
    "sup_vector_abs_n5": (
        lambda: mc_expected_sup_vector(EQUI5, 20000, seed=3, absolute=True),
        "1.5229139803809681",
        "0.007834494009726902",
    ),
    "sup_vector_n40": (
        lambda: mc_expected_sup_vector(BLOCK40, 20000, seed=4),
        "1.8205782751341881",
        "0.00914925231900559",
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
        "0.09080949548313429",
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
        "-0.7022867911552756",
        "0.011854649053364226",
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_direct_vector_estimates(name):
    run, estimate, half_width = DIRECT[name]
    est = run()
    assert (repr(est.estimate), repr(est.half_width)) == (estimate, half_width)


def integer_spec(x):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="inv_sqrt"),
        freqs=FrequencySeq(kind="integer", rule=lambda k: k),
        y=1,
        x=x,
        convention="2pi",
    )


def transfer_spec(x, step):
    return PolynomialSpec(
        coeffs=CoefficientSeq(kind="inv_sqrt"),
        freqs=FrequencySeq(kind="real", rule=lambda k: step * k),
        y=1,
        x=x,
        convention="raw",
    )


INT60 = integer_spec(60)
CYCLIC60 = GridSpec.cyclic_rule(INT60, 1.0)
TRANSFER48 = transfer_spec(48, 0.61)
PERP48 = perp_process(TRANSFER48, TestSequence(kind="pow2"))
GRID_U12 = GridSpec.uniform(1.0, 12.0, 705)  # 64 nodes per unit on [1, 12]
INT200 = integer_spec(200)
CYCLIC200 = GridSpec.cyclic_rule(INT200, 1.0)  # 1258 nodes: 2000 reps span 12 chunks
EMPTY = transfer_spec(0, 0.61)


def digest(array) -> str:
    array = np.asarray(array)
    return hashlib.sha256(repr(array.shape).encode() + np.ascontiguousarray(array).tobytes()).hexdigest()


# name: (array builder, sha256 of its shape and bytes)
PATH_BYTES = {
    "design_integer_cyclic": (
        lambda: _design_matrix(INT60, CYCLIC60.nodes()),
        "7e1ced04976b0c15887733f1f9c5b38cd10a41dcee94f3818e0c9ea3ff330d65",
    ),
    "design_transfer": (
        lambda: _design_matrix(TRANSFER48, GRID_U12.nodes()),
        "e020c8e69fb8af9a6ee73336bac4f696c65b2d81e5a34374547f6cef1643b8d2",
    ),
    "design_perp": (
        lambda: _design_matrix(PERP48, GRID_U12.nodes()),
        "99e8d02e0cd71efb081c95cd6d347da1c3f01bd46fb3fe0c95b7f1cf0101e98d",
    ),
    "design_empty": (
        lambda: _design_matrix(EMPTY, GRID_U12.nodes()),
        "4dac5b347486af66cb93ec5aebbbae0e8c517c439579e9dd4dac73271e848f38",
    ),
    "path_integer_cyclic": (
        lambda: sample_path(INT60, CYCLIC60, seed=11, reps=40, rep_start=3),
        "9f9f9249e20237a701a434f53fb064826b8cf34967f9c6de39226fb8fda00756",
    ),
    "path_transfer": (
        lambda: sample_path(TRANSFER48, GRID_U12, seed=12, reps=40),
        "4ea0687d54d528ed31fcec44bb2d7eaa2de7062b3263be4b65c2afaff2e4e3c8",
    ),
    "path_perp": (
        lambda: sample_path(PERP48, GRID_U12, seed=12, reps=40),
        "260f63c6bef9d6bc92920b8bd8bac4296cc789c96abb5492daf9e7ec97c3cd8b",
    ),
    "path_empty": (
        lambda: sample_path(EMPTY, GRID_U12, seed=12, reps=3),
        "075d3b15110c98eb23b1917023e6973ea586ec5e4fac8f595e0553cf406ccd2c",
    ),
}


@pytest.mark.parametrize("name", sorted(PATH_BYTES))
def test_path_bytes(name):
    build, expected = PATH_BYTES[name]
    assert digest(build()) == expected


# 2000 reps on 705 nodes span 8 chunks; the same seed couples X and its companion.
# The far-tail pins sit where most paths pass theta: a transfer threshold
# with an estimate in (0, .02], and a 200-term moderate-trig threshold
# (eta = .3) that no path stays under.
PATH_PROBS = {
    "sup_prob_transfer": (
        lambda: mc_sup_prob(TRANSFER48, GRID_U12, 5.0, 2000, seed=13),
        "0.3995",
        "0.021446125119455487",
    ),
    "sup_prob_perp": (
        lambda: mc_sup_prob(PERP48, GRID_U12, 5.5, 2000, seed=13),
        "0.596",
        "0.02148553425020876",
    ),
    "sup_prob_transfer_far_tail": (
        lambda: mc_sup_prob(TRANSFER48, GRID_U12, 3.6, 2000, seed=13),
        "0.0145",
        "0.0053160491082580195",
    ),
    "sup_prob_moderate_trig_200": (
        lambda: mc_sup_prob(INT200, CYCLIC200, bound_moderate_trig(INT200, 0.3, 1.0).threshold, 2000, seed=14),
        "0.0",
        "0.000958523640626467",
    ),
}


def test_path_prob_pins_span_chunks():
    assert len(_chunk_bounds(2000, GRID_U12.n)) >= 4
    assert len(_chunk_bounds(2000, CYCLIC200.size)) >= 4


@pytest.mark.parametrize("name", sorted(PATH_PROBS))
def test_path_prob_estimates(name):
    run, estimate, half_width = PATH_PROBS[name]
    est = run()
    assert (repr(est.estimate), repr(est.half_width)) == (estimate, half_width)


ONE_THREAD_PINS = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import test_golden as g

failed = [
    kind for kind in g.KINDS
    if g.csv_without_timing([g.default_record(kind)])
    != (g.GOLDEN / f"{{kind}}.csv").read_text(encoding="utf-8")
]
for name, (run, estimate, half_width) in {{**g.DIRECT, **g.PATH_PROBS}}.items():
    est = run()
    if (repr(est.estimate), repr(est.half_width)) != (estimate, half_width):
        failed.append(name)
print(json.dumps(failed))
"""


def test_csv_and_estimate_pins_hold_with_one_blas_thread():
    # OpenBLAS reads its thread count when numpy loads it, so the run gets its own process
    assert fresh(ONE_THREAD_PINS, OPENBLAS_NUM_THREADS="1") == []
