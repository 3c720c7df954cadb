"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: a
public nrpca function is replaced, in the namespace of the module that
calls it, by a wrapper that records (name, start, end, parent span, op
id, work units). Nothing inside `src/` changes. Spans are kept in flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> the (module, attribute) call sites that are wrapped for it.
# A site is the namespace the caller looks the function up in, so calls
# between layers are traced and calls inside one module mostly are not.
TRACE_SITES: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("nrpca.cli", "main")],
    "dataio.load_matrix": [("nrpca.cli", "load_matrix")],
    "linalg.center_columns": [("nrpca.estimators", "center_columns")],
    "linalg.dual_covariance": [("nrpca.estimators", "dual_covariance")],
    "linalg.sym_eigen": [("nrpca.estimators", "sym_eigen")],
    "estimators.nr_estimate": [
        ("nrpca.cli", "nr_estimate"),
        ("nrpca.simulation", "nr_estimate"),
    ],
    "estimators.pc_direction": [("nrpca.estimators", "pc_direction")],
    "inference.optimal_ab": [("nrpca.inference", "optimal_ab")],
    "inference.contribution_ci": [("nrpca.inference", "contribution_ci")],
    "inference.test_f1": [("nrpca.inference", "test_f1"), ("nrpca.simulation", "test_f1")],
    "inference.test_f2": [("nrpca.inference", "test_f2"), ("nrpca.simulation", "test_f2")],
    "inference.test_f3": [("nrpca.inference", "test_f3"), ("nrpca.simulation", "test_f3")],
    "inference.asymptotic_power": [("nrpca.inference", "asymptotic_power")],
    "inference.jarque_bera": [("nrpca.cli", "jarque_bera")],
    "special.chi2_quantile": [("nrpca.inference", "chi2_quantile")],
    "special.chi2_cdf": [("nrpca.inference", "chi2_cdf")],
    "special.f_upper_point": [("nrpca.inference", "f_upper_point")],
    "special.f_cdf": [("nrpca.inference", "f_cdf")],
    "sampling.make_stream": [("nrpca.simulation", "make_stream")],
    "sampling.sample_std_normal": [("nrpca.simulation", "sample_std_normal")],
    "sampling.sample_chi2": [("nrpca.sampling", "sample_chi2")],
    "sampling.sample_scaled_t_vector": [("nrpca.simulation", "sample_scaled_t_vector")],
    "simulation.gen_spiked": [("nrpca.simulation", "gen_spiked")],
    "simulation.gen_ar1": [("nrpca.simulation", "gen_ar1")],
    "simulation.gen_two_sample": [("nrpca.simulation", "gen_two_sample")],
    "simulation.run_test_mc": [("nrpca.simulation", "run_test_mc")],
    "simulation.run_estimation_mc": [("nrpca.simulation", "run_estimation_mc")],
}


def _draws(args, kwargs, result) -> float:
    return float(np.size(result))


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


# work units recorded with a span: normals drawn, bytes parsed
WORK_FNS = {
    "sampling.sample_std_normal": _draws,
    "dataio.load_matrix": _file_bytes,
}


def _f_key(a: dict) -> tuple:
    return ("F", int(a["n1"]) - 1, int(a["n2"]) - 1, float(a["alpha"]), a["alternative"])


def _f_pair_key(a: dict) -> tuple:
    return ("F", a["est1"].n - 1, a["est2"].n - 1, float(a["alpha"]), "two-sided")


# cache keys of the inference entry points: the chi-square pair depends
# on (df, alpha) only, the F critical values on (nu1, nu2, alpha, side)
KEY_FNS = {
    "inference.contribution_ci": lambda a: ("chi2", int(a["n"]) - 1, float(a["alpha"])),
    "inference.test_f1": _f_key,
    "inference.test_f2": _f_pair_key,
    "inference.test_f3": _f_pair_key,
    "inference.asymptotic_power": lambda a: (
        "F", int(a["nu1"]), int(a["nu2"]), float(a["alpha"]), "two-sided"
    ),
}

# beyond this many spans the tracer keeps counting but stops storing
MAX_SPANS = 3_000_000


class Tracer:
    """Records nested spans; `install` wraps the call sites, `remove`
    restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self.dropped = 0
        self.op_id = -1
        self.active = True
        self.keys: list[tuple[int, tuple]] = []  # (op id, cache key)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        if len(self.start) >= MAX_SPANS:
            self.dropped += 1
            self._stack.append(-1)
            return -1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, work: float = 0.0) -> None:
        now = time.perf_counter()
        self._stack.pop()
        if idx >= 0:
            self.end[idx] = now
            self.work[idx] = work

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block run untraced (oracle replays)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, fn, name: str):
        nid = self._id(name)
        work_fn = WORK_FNS.get(name)
        key_fn = KEY_FNS.get(name)
        signature = inspect.signature(fn) if key_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys.append((self.op_id, key_fn(bound.arguments)))
            idx = self._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                work = work_fn(args, kwargs, result) if work_fn and result is not None else 0.0
                self._close(idx, work)

        return traced

    def install(self) -> None:
        for name, places in TRACE_SITES.items():
            for module_name, attr in places:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with duration and self time added.

        Self time is a span's duration minus its direct children's; the
        client is single-threaded, so children never overlap.
        """
        name = np.frombuffer(self.name_id, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "duration": dur,
            "self_time": dur - child,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)
