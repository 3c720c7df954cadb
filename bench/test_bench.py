"""Self-tests of the benchmark itself (not of nrpca).

    python3 -m pytest bench/test_bench.py

They run the benchmark for a second per workload, so they take a few
minutes; the repository's own suite does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness

harness.require_source()

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = list(workloads.WORKLOADS)
ISSUE_METRICS = ("setup_s", "op_p50_s", "op_p90_s", "reps_per_s", "queries_per_s",
                 "peak_rss_mb", "fail_ratio")


def run_bench(workload: str, trace: int, cwd: Path = harness.ROOT,
              script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return detail, json.loads(lines[-1])


# ------------------------------------------------ every metric is printed


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = parse(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0.0
    assert result["correct"] and result["attempted"] >= 1
    assert set(ISSUE_METRICS) <= set(detail["metrics"])
    for m in detail["metrics"].values():
        assert {"value", "unit", "samples"} <= set(m)


def test_traced_run_prints_every_per_layer_metric():
    detail, result = parse(run_bench("inference_queries", 1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        value = result["metrics"][m["name"]]["value"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(value), m["name"]
    assert detail["trace_overhead"]["traced_ops"] >= 1
    assert (harness.ROOT / detail["trace_file"]).is_file()


def test_run_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("mc_tests", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------- a perturbed output counts as failed


class SmallCli(workloads.CliEstimateCsv):
    d = 500


def _scaled(out, factor: float):
    if isinstance(out, list):  # a batch of queries
        return [_scaled(o, factor) for o in out]
    if isinstance(out, float):
        return out * factor
    if isinstance(out, dict):  # estimate JSON record
        return {**out, "lambda_tilde_1": out["lambda_tilde_1"] * factor}
    if hasattr(out, "samples"):  # McSummary
        return dataclasses.replace(out, samples={k: v * factor for k, v in out.samples.items()})
    if hasattr(out, "upper_crit"):  # TestOutcome
        return dataclasses.replace(out, statistic=out.statistic * factor)
    return dataclasses.replace(out, upper=out.upper * factor)  # CiResult


@pytest.mark.parametrize("cls", [SmallCli, workloads.McTests, workloads.McPcParallel,
                                 workloads.InferenceQueries])
def test_perturbed_output_is_counted_as_failed(cls, tmp_path):
    wl = cls(3, tmp_path)
    wl.prepare()
    clean = harness.closed_loop(wl.inputs(), wl.traced_call, wl.check, 0.3)
    assert clean.wrong == 0
    perturbed = harness.closed_loop(
        wl.inputs(), lambda inp: _scaled(wl.traced_call(inp), 1.0 + 1e-6), wl.check, 0.3
    )
    assert perturbed.attempted >= 1
    raised = sum(f["kind"] == "raised" for f in perturbed.failures)
    assert perturbed.wrong == perturbed.attempted - raised


# ----------------------------------- inputs are a pure function of the seed


def first_inputs(wl, count: int = 200) -> bytes:
    it = wl.inputs()
    return repr([next(it) for _ in range(count)]).encode()


@pytest.mark.parametrize("name", ["mc_tests", "mc_pc_parallel", "inference_queries"])
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = first_inputs(cls(5, tmp_path))
    assert first == first_inputs(cls(5, tmp_path))
    assert first != first_inputs(cls(6, tmp_path))


def test_same_seed_same_csv(tmp_path):
    files = []
    for i, seed in enumerate((5, 5, 6)):
        wl = workloads.CliEstimateCsv(seed, tmp_path / str(i))
        wl.tmpdir.mkdir()
        wl.prepare()
        files.append(wl.csv.read_bytes())
    assert files[0] == files[1]
    assert files[0] != files[2]
