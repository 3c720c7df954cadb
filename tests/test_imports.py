"""What importing the package loads, and that every public name resolves."""

import os
import subprocess
import sys
from pathlib import Path

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
