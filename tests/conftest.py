"""Shared fixtures for the test suite.

The acceptance tests lean on a few large Monte Carlo runs. Those are
computed once per session here; the tests themselves only assert on the
frozen summaries. A terminal hook prints one verdict line per numbered
acceptance check at the end of the run. Every test starts and ends
with no cached worker pool. `run_python` starts a fresh
interpreter on this checkout's package, for the checks that need a
process of their own: the command line as a user runs it, what an
import loads, or a locale.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrpca
from nrpca import parallel
from nrpca.simulation import run_estimation_mc, run_test_mc

# every acceptance-scale run draws from this seed; the bands asserted in
# test_acceptance.py were validated against these exact streams
ACCEPTANCE_SEED = 1729

_criterion_lines: list[tuple[int, str]] = []


def _record(number: int, verdict: str, detail: str) -> None:
    _criterion_lines.append((number, f"[criterion {number}] {verdict}  {detail}"))


@pytest.fixture(scope="session")
def criterion_log():
    """Callable (number, verdict, detail) feeding the end-of-run report."""
    return _record


@pytest.fixture(scope="session")
def acceptance_seed() -> int:
    return ACCEPTANCE_SEED


# a study's rows and samples are the same bytes at every worker count
# (criterion 8 and the frozen digests check this), so the session runs
# use every usable core
_CORES = len(os.sched_getaffinity(0))


@pytest.fixture(scope="session")
def est_a_2048():
    # ~2 s at one worker: 2000 replications of the geometric-decay
    # scenario at d=2048
    return run_estimation_mc(
        "a", [2048], n=10, reps=2000, seed=ACCEPTANCE_SEED, workers=_CORES,
        keep_samples=True,
    )


@pytest.fixture(scope="session")
def est_b_2048():
    # same budget for the slow-decay scenario; only the row summary is needed
    return run_estimation_mc(
        "b", [2048], n=10, reps=2000, seed=ACCEPTANCE_SEED, workers=_CORES
    )


@pytest.fixture(scope="session")
def tests_2048():
    # ~14 s at one worker, half that at two: 2000 null + 2000 alternative
    # two-sample draws at d=2048
    return run_test_mc(
        [2048], n1=10, n2=20, reps=4000, seed=ACCEPTANCE_SEED, workers=_CORES,
        keep_samples=True,
    )


@pytest.fixture(autouse=True)
def _no_cached_pool():
    """Each test starts and ends with no cached worker pool, so which
    pools a test forks does not depend on the tests before it."""
    parallel.close_pool()
    yield
    parallel.close_pool()


# the directory that holds the nrpca package under test
_SRC = str(Path(nrpca.__file__).resolve().parent.parent)


def _run_python(*args, code=None, env=None, one_core=False):
    """`python -m nrpca.cli *args`, or `python -c code *args`, finished,
    with its output as text. `env` entries are set over this process's
    environment; `one_core` pins the child alone to one core."""
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = _SRC + os.pathsep + child_env.get("PYTHONPATH", "")
    pin = None
    if one_core:
        pin = functools.partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))})
    start = ["-m", "nrpca.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *start, *map(str, args)],
        env=child_env, preexec_fn=pin, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="session")
def run_python():
    """The subprocess runner above."""
    return _run_python


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)
