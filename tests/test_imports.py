"""What a fresh process imports: scipy stays out of start-up.

``import supdev`` loads no scipy module.  ``scipy.special`` is imported by
``supdev._normal`` at the first normal CDF or quantile, so the lattice kinds
never load it, and no run loads ``scipy.linalg``.  The lattice kinds do not
load ``numpy.ma`` either.  Each check runs in a new interpreter, since this
test process has imported scipy already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import supdev

SRC = Path(supdev.__file__).resolve().parent.parent
LATTICE_KINDS = ("kronecker-search", "lattice-correlation", "limsup", "divergence")


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports supdev from this tree;
    return the JSON value it prints on its last line."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_lattice_kinds_load_no_scipy():
    after_import, rows, after_runs = fresh(f"""
import json, sys
import supdev, supdev.cli
from supdev.harness import default_config, run_experiment
after_import = {SCIPY_LOADED}
rows = [len(run_experiment(default_config(k)).checks) for k in {LATTICE_KINDS!r}]
print(json.dumps([after_import, rows, {SCIPY_LOADED}]))
""")
    assert after_import == []
    assert len(rows) == 4 and min(rows) >= 1
    assert after_runs == []


def test_lattice_kinds_load_no_numpy_ma():
    """``numpy.ma`` takes about 15 ms to import, and ``np.unique`` (behind
    ``np.union1d``) imports it on first use; ``xi`` picks its rows with a
    mask instead."""
    out = fresh(f"""
import json, sys
from supdev.harness import default_config, run_experiment
for k in {LATTICE_KINDS!r}:
    run_experiment(default_config(k))
print(json.dumps("numpy.ma" in sys.modules))
""")
    assert out is False


def test_normal_kinds_load_scipy_special_only_when_called():
    out = fresh(f"""
import json, sys
from supdev.harness import default_config, run_experiment
before = {SCIPY_LOADED}
for k in ("equicorrelated", "moderate-trig"):
    run_experiment(default_config(k))
print(json.dumps([before, "scipy.special" in sys.modules, "scipy.linalg" in sys.modules]))
""")
    assert out == [[], True, False]


def test_no_kind_loads_scipy_linalg():
    out = fresh("""
import json, sys
from supdev.harness import EXPERIMENT_KINDS, default_config, run_experiment
for k in EXPERIMENT_KINDS:
    run_experiment(default_config(k))
print(json.dumps([len(EXPERIMENT_KINDS), "scipy.linalg" in sys.modules]))
""")
    assert out == [10, False]


FIRST_DRAW = """
import json, sys
from supdev.mc import CHUNK_REPS, CovarianceSpec, GridSpec, mc_sup_prob, mc_vector_sup_prob
from supdev.spectrum import CoefficientSeq, FrequencySeq, PolynomialSpec

spec = PolynomialSpec(CoefficientSeq(kind="inv_sqrt"), FrequencySeq(kind="integer", rule=lambda k: k), 1, 12, "2pi")
estimate = {
    "vector": lambda w: mc_vector_sup_prob(CovarianceSpec.equicorrelated(6, 0.3), 1.6, 3 * CHUNK_REPS + 5, 11, w),
    "path": lambda w: mc_sup_prob(spec, GridSpec.uniform(0.0, 1.0, 48), 2.0, 3 * CHUNK_REPS + 5, 12, w),
}[KIND]
loaded = "scipy.special" in sys.modules
first = repr(estimate(2))
print(json.dumps([loaded, first, repr(estimate(1))]))
"""


def test_first_draw_on_two_pool_threads_is_bit_identical():
    """The first normal draw of a process runs on two pool threads that both
    reach the scipy import; the estimate equals the one-worker repr."""
    for kind in ("vector", "path"):
        loaded, first, serial = fresh(f"KIND = {kind!r}\n" + FIRST_DRAW)
        assert not loaded
        assert first == serial, kind


def test_scipy_imported_only_inside_normal_wrappers():
    """The only scipy imports under src/supdev are the function-local ones
    in ``_normal``; every other module takes ndtr/ndtri from there."""
    found = set()
    for path in sorted(Path(supdev.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    owner.setdefault(id(sub), node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name == "scipy" or name.startswith("scipy."):
                    found.add((path.stem, owner.get(id(node), "<module>"), name))
    assert found == {("_normal", "ndtr", "scipy.special"), ("_normal", "ndtri", "scipy.special")}
