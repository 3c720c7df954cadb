"""Shared plumbing for the nrpca benchmark: locating the source tree,
the per-run scratch directory, fresh-interpreter set-up timing, the
closed-loop client and the summary statistics.

The benchmark measures the checkout it lives in: `src/` next to this
directory is put first on the import path of this process and of every
child process, and nothing is imported from an installed copy.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

# fresh-interpreter imports timed per run for setup_s; the median absorbs
# the one slow import that compiles bytecode in a fresh checkout
SETUP_REPEATS = 3


def require_source() -> None:
    """Put the checkout's `src` first on sys.path, or raise if it is absent."""
    if not (SRC / "nrpca" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'nrpca'} not found: run from a checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import nrpca

    if Path(nrpca.__file__).resolve().parent != SRC / "nrpca":
        raise ImportError(f"nrpca imported from {nrpca.__file__}, not {SRC}")


def child_env(**extra: str) -> dict:
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update(extra)
    return env


@contextlib.contextmanager
def run_dir():
    """A scratch directory inside the checkout, removed when the run ends.

    TMPDIR points at it, so children that make temporary files keep them
    inside the checkout too.
    """
    TMP_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()  # only succeeds when no other run is active


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of `import nrpca` in fresh interpreters."""
    cmd = [sys.executable, "-c", "import nrpca"]
    env = child_env()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class OpLog:
    """What one closed-loop phase did: per-op wall time, work and failures.

    A failure is "raised" when the call raised, or "wrong" when it
    returned an output its oracle rejects.
    """

    durations: list[float] = field(default_factory=list)
    work: list[int] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def wrong(self) -> int:
        return sum(f["kind"] == "wrong" for f in self.failures)

    def good_work(self) -> int:
        bad = {f["op"] for f in self.failures}
        return sum(w for i, w in enumerate(self.work) if i not in bad)


def closed_loop(inputs, call, check, seconds: float, on_op=None) -> OpLog:
    """One client: run `call` on successive inputs until the calls have
    been busy for `seconds` (at least one op).

    Only `call` is timed. `check` returns None for a correct output or a
    reason. `on_op(i)` runs untimed before op i (the tracer tags spans
    with it).
    """
    log = OpLog()
    for i, (inp, work) in enumerate(inputs):
        if log.attempted and log.busy_s >= seconds:
            break
        if on_op is not None:
            on_op(i)
        start = time.perf_counter()
        try:
            out = call(inp)
        except Exception as exc:  # a call that raises is a counted failure
            log.durations.append(time.perf_counter() - start)
            log.work.append(work)
            last = traceback.extract_tb(exc.__traceback__)[-1]
            reason = f"{type(exc).__name__}: {exc} ({Path(last.filename).name}:{last.lineno})"
            log.failures.append({"op": i, "input": repr(inp)[:200], "kind": "raised",
                                 "reason": reason})
            continue
        log.durations.append(time.perf_counter() - start)
        log.work.append(work)
        reason = check(inp, out)
        if reason is not None:
            log.failures.append({"op": i, "input": repr(inp)[:200], "kind": "wrong",
                                 "reason": reason})
    return log


def median(values: list[float]) -> float:
    return statistics.median(values)
