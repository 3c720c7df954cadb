"""What importing the package loads, and that every public name resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nrpca

# modules that only `simulate` (scipy.signal), the interval solver
# (scipy.optimize) and the distribution functions (scipy.special) use,
# which load on first use, and scipy.stats, which only the tests use as
# an oracle
DEFERRED = ("scipy.signal", "scipy.optimize", "scipy.special", "scipy.stats")


def _run(code: str) -> str:
    src = str(Path(nrpca.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_deferred_modules_unloaded():
    for module in ("nrpca", "nrpca.cli"):
        out = _run(
            f"import sys, {module}\n"
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))"
        )
        assert out.strip() == "[]", f"import {module} loaded {out.strip()}"


def test_estimate_runs_without_scipy(tmp_path):
    # n = 12 >= 8, so the Jarque-Bera screen runs: its chi-square(2)
    # tail is exp(-x/2), and the whole command needs numpy only
    values = np.random.default_rng(5).normal(size=(50, 12))
    path, out = tmp_path / "m.csv", tmp_path / "est.json"
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    argv = ["estimate", "--input", str(path), "--out", str(out)]
    loaded = _run(
        "import sys\n"
        "from nrpca import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    assert loaded.strip() == "[]", f"nrpca estimate loaded {loaded.strip()}"
    assert 0.0 < json.loads(out.read_text())["jb_p_value"] <= 1.0


def test_every_public_name_resolves():
    out = _run(
        "import nrpca\n"
        "missing = [n for n in nrpca.__all__ if not hasattr(nrpca, n)]\n"
        "namespace = {}\n"
        "exec('from nrpca import *', namespace)\n"
        "missing += [n for n in nrpca.__all__ if n not in namespace]\n"
        "print(missing)"
    )
    assert out.strip() == "[]"
    from nrpca import simulation

    assert nrpca.run_test_mc is simulation.run_test_mc
    assert nrpca.McSummary is simulation.McSummary
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
