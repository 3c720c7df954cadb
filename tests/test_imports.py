"""What importing the package loads, that every public name resolves,
and that every Python file parses at the oldest Python allowed."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import nrpca

# modules that the interval solver (scipy.optimize) and the distribution
# functions (scipy.special) use, which load on first use; scipy.stats,
# which only the tests use as an oracle; and scipy.signal, which nothing
# uses: the AR(1) filter is BLAS `dtbsv`
DEFERRED = ("scipy.signal", "scipy.optimize", "scipy.special", "scipy.stats")


def _run(run_python, code: str) -> str:
    proc = run_python(code=code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_deferred_modules_unloaded(run_python):
    for module in ("nrpca", "nrpca.cli", "nrpca.simulation"):
        out = _run(
            run_python,
            f"import sys, {module}\n"
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))"
        )
        assert out.strip() == "[]", f"import {module} loaded {out.strip()}"


def test_estimate_runs_without_scipy(run_python, tmp_path):
    # n = 12 >= 8, so the Jarque-Bera screen runs: its chi-square(2)
    # tail is exp(-x/2), and the whole command needs numpy only
    values = np.random.default_rng(5).normal(size=(50, 12))
    path, out = tmp_path / "m.csv", tmp_path / "est.json"
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    argv = ["estimate", "--input", str(path), "--out", str(out)]
    loaded = _run(
        run_python,
        "import sys\n"
        "from nrpca import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    assert loaded.strip() == "[]", f"nrpca estimate loaded {loaded.strip()}"
    assert 0.0 < json.loads(out.read_text())["jb_p_value"] <= 1.0


def test_no_study_loads_scipy_signal(run_python):
    # the AR(1) tail of the tests study is filtered by BLAS `dtbsv`; the
    # caller imports it before the pool forks, not each worker alone
    out = _run(
        run_python,
        "import sys\n"
        "from nrpca.simulation import run_estimation_mc, run_test_mc\n"
        "for model in ('a', 'b'):\n"
        "    run_estimation_mc(model, [64], n=5, reps=4, workers=2)\n"
        "print('scipy.signal' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        "run_test_mc([64], reps=4, workers=2)\n"
        "print('scipy.signal' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    assert out.split() == ["False", "False", "False", "True"]


# the package surface: `nrpca.__all__` is built from the modules' own
# `__all__` lists, so a name added to or dropped from one shows up here
PUBLIC_NAMES = [
    "CiResult", "DataMatrix", "DegenerateSpectrumError", "JarqueBera",
    "NrEstimate", "OrthogonalDirectionsError", "QuantilePair", "SymMatrix",
    "TestComponents", "TestOutcome", "__version__", "asymptotic_power",
    "center_columns", "contribution_ci", "derive_key", "direction_h",
    "dual_covariance", "jarque_bera", "load_matrix", "make_stream",
    "nr_estimate", "optimal_ab", "save_matrix", "splitmix64",
    "standardize_rows", "sym_eigen", "test_f1", "test_f2", "test_f3",
]


def test_public_names_are_pinned():
    assert sorted(nrpca.__all__) == PUBLIC_NAMES
    assert len(nrpca.__all__) == len(set(nrpca.__all__))


def test_every_public_name_resolves(run_python):
    out = _run(
        run_python,
        "import nrpca\n"
        "missing = [n for n in nrpca.__all__ if not hasattr(nrpca, n)]\n"
        "namespace = {}\n"
        "exec('from nrpca import *', namespace)\n"
        "missing += [n for n in nrpca.__all__ if n not in namespace]\n"
        "print(missing)"
    )
    assert out.strip() == "[]"
    # the Monte Carlo harness is imported as its own module only
    from nrpca.simulation import McSummary, run_test_mc

    assert callable(run_test_mc) and isinstance(McSummary, type)
    for name in ("run_test_mc", "run_estimation_mc", "McSummary", "gen_ar1"):
        assert not hasattr(nrpca, name), name
        assert name not in nrpca.__all__, name
    assert not hasattr(nrpca, "__getattr__")
    assert not hasattr(nrpca, "no_such_name")


def test_folded_estimator_helpers_are_gone():
    # nr_estimate computes these inline; NrEstimate carries their results
    for name in (
        "nr_eigenvalues",
        "kappa_tilde",
        "pc_direction",
        "pc_scores",
        "score_mse",
        "contribution_ratio",
    ):
        assert not hasattr(nrpca, name), name
        assert name not in nrpca.__all__, name


def test_every_file_parses_at_the_oldest_python():
    # syntax newer than pyproject.toml's floor (`except*`, `type X = int`,
    # `def f[T]()`) fails here on any Python; only an interpreter at the
    # floor catches a standard library name newer than it
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    version = (3, int(floor[1]))
    newer = (
        "try:\n    pass\nexcept* OSError:\n    pass\n",
        "type X = int\n",
        "def f[T](): pass\n",
    )
    for text in newer:
        with pytest.raises(SyntaxError):
            ast.parse(text, feature_version=version)
    tops = ("src", "tests", "bench", "tools")
    files = [p for top in tops for p in (root / top).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_the_code_line_counter_leaves_out_docstrings_comments_and_blanks(tmp_path):
    root = Path(__file__).resolve().parent.parent
    tool = root / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", tool)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    path = tmp_path / "m.py"
    path.write_text(
        '"""A docstring\nof two lines."""\n\n# a comment\n'
        "x = (1,\n     2)  # a trailing comment\n\n"
        'def f():\n    """One line."""\n    return """text\n"""\n'
    )
    # x = (1, / 2) / def f(): / return """text / """
    assert counter.code_lines(path) == 5
