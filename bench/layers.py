"""The traced run: per-layer metrics, layer probes and tracing overhead.

A traced run spends half its busy time on untraced ops and half on the
same ops with every layer boundary wrapped (see `tracing.TRACE_SITES`);
the ratio of their median op times is the tracing overhead. Both halves
use the workload's in-process call, so the ratio compares like with like.

A layer metric comes from the workload's own spans when the layer ran in
the workload. Otherwise it comes from a small fixed probe that touches
every layer, run under the same tracer after the workload; the result
records which source each metric used. Timings that depend on the BLAS
thread count, and import times, come from `probe.py` in fresh
interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from nrpca import cli, estimators, inference, simulation

import harness
from tracing import Tracer
from workloads import McPcParallel, make_expression_matrix, write_expression_csv

PROBE_OP = -2
PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"
REPORTED_IMPORTS = ("nrpca", "nrpca.cli", "numpy", "scipy.special", "scipy.signal")
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

TIMED_SPANS = {  # metric -> span whose median duration it reports
    "linalg.center_columns_s": "linalg.center_columns",
    "estimators.nr_estimate_s": "estimators.nr_estimate",
    "estimators.pc_direction_s": "estimators.pc_direction",
    "dataio.load_matrix_s": "dataio.load_matrix",
    "inference.optimal_ab_s": "inference.optimal_ab",
    "inference.contribution_ci_s": "inference.contribution_ci",
    "inference.test_f1_s": "inference.test_f1",
    "inference.test_f2_s": "inference.test_f2",
    "inference.test_f3_s": "inference.test_f3",
    "inference.asymptotic_power_s": "inference.asymptotic_power",
    "inference.jarque_bera_s": "inference.jarque_bera",
    "special.chi2_quantile_s": "special.chi2_quantile",
    "special.chi2_cdf_s": "special.chi2_cdf",
    "special.f_upper_point_s": "special.f_upper_point",
    "special.f_cdf_s": "special.f_cdf",
    "sampling.make_stream_s": "sampling.make_stream",
    "sampling.sample_chi2_s": "sampling.sample_chi2",
    "sampling.sample_scaled_t_vector_s": "sampling.sample_scaled_t_vector",
    "simulation.gen_two_sample_s": "simulation.gen_two_sample",
    "simulation.gen_ar1_s": "simulation.gen_ar1",
    "simulation.gen_spiked_s": "simulation.gen_spiked",
}
SELF_SPANS = {  # metric -> span whose median self time it reports
    "cli.self_s": "cli.main",
    "estimators.self_s": "estimators.nr_estimate",
}
GEN_SPANS = ("sampling.make_stream", "simulation.gen_two_sample", "simulation.gen_spiked")
REP_SPANS = GEN_SPANS + (
    "estimators.nr_estimate", "inference.test_f1", "inference.test_f2", "inference.test_f3",
)
RUN_SPANS = ("simulation.run_test_mc", "simulation.run_estimation_mc")


class Spans:
    """Span columns split into the workload's ops and the layer probe."""

    def __init__(self, tracer: Tracer):
        self.cols = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.keys = tracer.keys

    def named(self, names) -> np.ndarray:
        """Mask of spans whose name is `names` (a name or a tuple of them)."""
        names = (names,) if isinstance(names, str) else names
        return np.isin(self.cols["name"], [self.ids[n] for n in names if n in self.ids])

    def mask(self, names, workload: bool) -> np.ndarray:
        op = self.cols["op"]
        return self.named(names) & ((op >= 0) if workload else (op == PROBE_OP))

    def pick(self, names) -> tuple[np.ndarray, str]:
        """Mask of the workload's spans of `names`, or the probe's if none."""
        own = self.mask(names, workload=True)
        if own.any():
            return own, "workload"
        return self.mask(names, workload=False), "probe"


def layer_probe(tmpdir: Path, probe_csv: Path, rng: np.random.Generator) -> None:
    """One small call into every layer, through the same names the
    workloads use, so each per-layer metric has a value."""
    cli.main(["estimate", "--input", str(probe_csv), "--out", str(tmpdir / "probe.json")])
    for n, alpha in ((20, 0.05), (20, 0.05), (11, 0.01)):
        inference.contribution_ci(2.0, 8.0, n, alpha)
    inference.test_f1(2.0, 1.0, 10, 20, 0.05)
    inference.test_f1(2.0, 1.0, 10, 20, 0.05, "less")
    inference.asymptotic_power(9, 19, 1.5, 1.2, 1.3, 0.05, "f3")
    loadings = 3.0 * rng.standard_normal(300)
    est = [
        estimators.nr_estimate(np.outer(loadings, rng.standard_normal(n)) + rng.standard_normal((300, n)))
        for n in (10, 20)
    ]
    inference.test_f2(est[0], est[1], 0.05)
    inference.test_f3(est[0], est[1], 0.05)
    seed = int(rng.integers(0, 2**63))
    simulation.run_test_mc([256], n1=10, n2=20, reps=4, seed=seed, workers=1)
    simulation.run_estimation_mc("b", [256], n=10, reps=4, seed=seed, workers=1)


def pool_probe(wl, rng: np.random.Generator) -> dict:
    """Serial and pooled wall time of one estimation study, untraced."""
    if isinstance(wl, McPcParallel):
        d_values, reps = list(wl.d_values), wl.reps
    else:
        d_values, reps = [512], 16
    workers = len(os.sched_getaffinity(0))
    times = {1: [], workers: []}
    for seed in rng.integers(0, 2**63, size=2):
        for w in times:
            start = time.perf_counter()
            simulation.run_estimation_mc("b", d_values, n=10, reps=reps, seed=int(seed), workers=w)
            times[w].append(time.perf_counter() - start)
    t1, tn = harness.median(times[1]), harness.median(times[workers])
    return {
        "workers": workers,
        "t1_s": t1,
        "tn_s": tn,
        "scaling_eff": t1 / (workers * tn),
        "pool_overhead_s": (tn - t1 / workers) / len(d_values),
    }


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `-X importtime` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                out.setdefault(name.strip(), int(cumulative) / 1e6)
    return out


def subprocess_probes(seed: int, csv: Path) -> dict:
    """probe.py at the default BLAS thread count (with import times and
    the CSV load) and at one BLAS thread."""
    base = [sys.executable]
    args = [str(PROBE_SCRIPT), "--seed", str(seed)]
    default = subprocess.run(
        base + ["-X", "importtime"] + args + ["--csv", str(csv)],
        env=harness.child_env(), capture_output=True, text=True, check=True,
    )
    one = subprocess.run(
        base + args, env=harness.child_env(**ONE_BLAS_THREAD),
        capture_output=True, text=True, check=True,
    )
    imports = _import_times(default.stderr)
    result = {
        "default": json.loads(default.stdout.splitlines()[-1]),
        "blas1": json.loads(one.stdout.splitlines()[-1]),
        "imports": {k: imports[k] for k in REPORTED_IMPORTS if k in imports},
    }
    if result["blas1"]["blas_threads"] not in (1, None):
        raise RuntimeError(f"BLAS thread variables ignored: {result['blas1']['blas_threads']} threads")
    return result


def derive(spans: Spans, traced: harness.OpLog, ref: harness.OpLog, pool: dict,
           probes: dict) -> tuple[dict, dict]:
    """Every per-layer metric and where its value came from."""
    cols = spans.cols
    values: dict[str, float] = {}
    source: dict[str, str] = {}

    def put(name: str, value: float, src: str) -> None:
        values[name] = float(value)
        source[name] = src

    imports = probes["imports"]
    put("cli.import_s", imports.get("nrpca", 0.0) + imports.get("nrpca.cli", 0.0), "importtime")
    put("cli.import_scipy_signal_s", imports.get("scipy.signal", 0.0), "importtime")
    for metric, span in SELF_SPANS.items():
        mask, src = spans.pick(span)
        put(metric, np.median(cols["self_time"][mask]), src)
    for metric, span in TIMED_SPANS.items():
        mask, src = spans.pick(span)
        put(metric, np.median(cols["duration"][mask]), src)

    mask, src = spans.pick("dataio.load_matrix")
    put("dataio.load_matrix_mb_per_s", cols["work"][mask].sum() / cols["duration"][mask].sum() / 1e6, src)
    put("dataio.peak_rss_mb", probes["default"]["peak_rss_mb"], "probe.py")
    mask, src = spans.pick("sampling.sample_std_normal")
    put("sampling.sample_std_normal_ns_per_draw",
        cols["duration"][mask].sum() / cols["work"][mask].sum() * 1e9, src)

    # linalg at both BLAS thread counts, from fresh interpreters
    d, n = probes["default"]["gram_shape"]
    for label, probe in (("blas1", probes["blas1"]), ("blas_default", probes["default"])):
        put(f"linalg.dual_covariance_s.{label}", probe["dual_covariance_s"], "probe.py")
        for m, seconds in probe["sym_eigen_s"].items():
            put(f"linalg.sym_eigen_s.n{m}.{label}", seconds, "probe.py")
    # computed, not counted: 2 d n^2 flops for Xc^T Xc at the default count
    put("linalg.dual_covariance_gflops", 2.0 * d * n * n / probes["default"]["dual_covariance_s"] / 1e9,
        "probe.py")

    ops = max(traced.attempted, 1)
    for fn in ("chi2_quantile", "chi2_cdf", "f_upper_point", "f_cdf"):
        put(f"special.{fn}.calls", spans.mask(f"special.{fn}", workload=True).sum() / ops, "workload")

    own_keys = [k for op, k in spans.keys if op >= 0]
    keys, src = (own_keys, "workload") if own_keys else (
        [k for op, k in spans.keys if op == PROBE_OP], "probe")
    put("inference.key_repeat_share", 1.0 - len(set(keys)) / len(keys), src)
    put("inference.key_repeat_base", len(keys), src)

    # generation share of a replication: direct children of run_* spans
    run_mask, src = spans.pick(RUN_SPANS)
    under_run = np.isin(cols["parent"], np.flatnonzero(run_mask))
    gen = cols["duration"][under_run & spans.named(GEN_SPANS)].sum()
    rep = cols["duration"][under_run & spans.named(REP_SPANS)].sum()
    put("simulation.rep_gen_share", gen / rep, src)
    put("simulation.pool_overhead_s", pool["pool_overhead_s"], "pool probe")
    put("simulation.scaling_eff", pool["scaling_eff"], "pool probe")

    put("trace.overhead_ratio", harness.median(traced.durations) / harness.median(ref.durations), "workload")
    put("trace.spans", len(cols["name"]), "workload")
    return values, source


def traced_run(wl, seconds: float) -> dict:
    """Run the workload untraced then traced, then the probes; return the
    per-layer metrics, their sources and the op logs."""
    rng = np.random.default_rng([wl.seed, wl.stream, 2])
    wl.prepare()
    probe_csv = wl.tmpdir / "probe.csv"
    write_expression_csv(probe_csv, make_expression_matrix(rng, 2000, 40))
    inputs = wl.inputs()
    ref = harness.closed_loop(inputs, wl.traced_call, wl.check, seconds / 2)

    tracer = Tracer()

    def check(inp, out):
        with tracer.paused():
            return wl.check(inp, out)

    def on_op(i: int) -> None:
        tracer.op_id = i

    tracer.install()
    try:
        traced = harness.closed_loop(inputs, wl.traced_call, check, seconds / 2, on_op=on_op)
        tracer.op_id = PROBE_OP
        layer_probe(wl.tmpdir, probe_csv, rng)
    finally:
        tracer.remove()
    pool = pool_probe(wl, rng)
    csv = getattr(wl, "csv", probe_csv)
    probes = subprocess_probes(wl.seed, csv)
    values, source = derive(Spans(tracer), traced, ref, pool, probes)
    trace_file = harness.OUT_DIR / f"trace-{wl.name}-{wl.seed}.npz"
    tracer.write(trace_file)
    return {
        "metrics": values,
        "source": source,
        "logs": (ref, traced),
        "pool": pool,
        "probes": probes,
        "trace_file": str(trace_file.relative_to(harness.ROOT)),
        "spans_dropped": tracer.dropped,
    }
