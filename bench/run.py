"""nrpca benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload mc_tests --seed 1 --seconds 20 --trace 0

Workloads: cli_estimate_csv, mc_tests, mc_pc_parallel (BENCHMARK.json
says why each is there) and inference_queries (see workloads.py). Inputs are a pure function
of --seed. Ops run until they have been busy for --seconds; every output
is checked against an independent oracle (oracles.py), and an op fails
when it raises or disagrees.

Standard output ends with three lines:
  machine {...}   cores, CPU, caches, BLAS and versions
  detail {...}    every metric with its unit and sample count, failures,
                  and the once-per-run checks
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the last line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, and the
spans are written under .bench_out/.

Exit status 2 means the source tree was not found next to this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness

# work per second under the issue's names; each workload reports one
RATE_NAMES = ("reps_per_s", "queries_per_s")
P90_MIN_OPS = 100


def _metric(value, unit: str, samples: int, note: str | None = None) -> dict:
    out = {"value": value, "unit": unit, "samples": samples}
    if note:
        out["note"] = note
    return out


def run_untraced(wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics for the driver and the full detail record."""
    setup = harness.measure_setup()
    wl.prepare()
    log = harness.closed_loop(wl.inputs(), wl.call, wl.check, seconds)
    checks = wl.run_checks()
    peak = harness.peak_rss_mb()

    ops = log.attempted
    rate = log.good_work() / log.busy_s
    checked, check_failed = (
        (checks["attempted"], len(checks["failures"])) if checks["counted"] else (0, 0)
    )
    all_attempted = ops + checks["attempted"]
    all_failed = len(log.failures) + len(checks["failures"])
    p90 = (statistics.quantiles(log.durations, n=10, method="inclusive")[8]
           if ops >= P90_MIN_OPS else None)

    detail_metrics = {
        "setup_s": _metric(harness.median(setup), "s", len(setup)),
        "op_p50_s": _metric(harness.median(log.durations), "s", ops),
        "op_p90_s": _metric(p90, "s", ops, None if p90 is not None
                            else f"fewer than {P90_MIN_OPS} ops in this run"),
    }
    for name in RATE_NAMES:
        if name == wl.rate_name:
            detail_metrics[name] = _metric(rate, "1/s", sum(log.work))
        else:
            detail_metrics[name] = _metric(None, "1/s", 0, f"not a {wl.name} quantity")
    detail_metrics["peak_rss_mb"] = _metric(peak, "MB", 1)
    detail_metrics["fail_ratio"] = _metric(
        all_failed / all_attempted, "ratio", all_attempted,
        "timed ops plus the once-per-run checks",
    )
    # the driver's end-to-end metrics: defined on every workload and never
    # zero; work per second is the issue's reps_per_s or queries_per_s
    # (estimates per second on the CLI workload)
    result_metrics = {
        "setup_s": {"value": harness.median(setup), "unit": "s"},
        "work_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    detail = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "loop": "closed, 1 client",
        "work_unit": wl.work_unit,
        "metrics": detail_metrics,
        "timed_ops": {"attempted": ops, "failed": len(log.failures),
                      "busy_s": log.busy_s, "failures": log.failures[:20]},
        "checks": checks,
        "setup_samples_s": setup,
    }
    # correct: no output disagreed with its oracle and the counted
    # once-per-run checks passed; calls that raised are counted in failed
    result = {"correct": log.wrong == 0 and check_failed == 0,
              "attempted": ops + checked, "failed": len(log.failures) + check_failed,
              "metrics": result_metrics}
    return result, detail


def run_traced(wl, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics for the driver and the traced run's detail record."""
    import layers

    run = layers.traced_run(wl, seconds)
    ref, tr = run["logs"]
    failures = ref.failures + tr.failures
    attempted = ref.attempted + tr.attempted
    units = layer_units()
    result = {
        "correct": ref.wrong + tr.wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
    }
    detail = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "source": run["source"],
        "trace_overhead": {
            "untraced_op_p50_s": harness.median(ref.durations),
            "traced_op_p50_s": harness.median(tr.durations),
            "untraced_ops": ref.attempted,
            "traced_ops": tr.attempted,
        },
        "pool": run["pool"],
        "probes": run["probes"],
        "trace_file": run["trace_file"],
        "spans_dropped": run["spans_dropped"],
        "failures": failures[:20],
    }
    return result, detail


def layer_units() -> dict[str, str]:
    """Per-layer metric units, as BENCHMARK.json declares them."""
    with open(harness.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.require_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with harness.run_dir() as tmpdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        run = run_traced if args.trace else run_untraced
        result, detail = run(wl, args.seconds)
    print("machine " + json.dumps(machine.record()))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
