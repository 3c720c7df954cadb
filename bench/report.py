"""Run every workload and print each metric by name, unit and sample count.

    python3 bench/report.py [--seed 1] [--seconds 25] [--trace]

Every workload, including inference_queries (which BENCHMARK.json leaves
out, see workloads.InferenceQueries), runs once through bench/run.py in a
fresh interpreter with tracing off, and the seven end-to-end metrics are
printed with their sample counts, together with the failures and the
once-per-run checks.
With --trace every workload then runs once more traced, and the
per-layer metrics are printed with their source and the tracing
overhead (median traced op time over median untraced op time).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = harness.ROOT


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    """The machine record, detail record and result line of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return json.loads(tagged["machine"]), json.loads(tagged["detail"]), json.loads(lines[-1])


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_untraced(name: str, detail: dict, result: dict) -> None:
    for metric, m in detail["metrics"].items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name:18s} {metric:14s} {_fmt(m['value']):>12s} {m['unit']:6s} n={m['samples']}{note}")
    print(f"{'':18s} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for failure in detail["timed_ops"]["failures"]:
        print(f"{'':18s} failed op {failure['op']} ({failure['kind']}): {failure['input']}: "
              f"{failure['reason']}")
    checks = detail["checks"]
    if "worker_invariance" in checks:
        print(f"{'':18s} worker invariance (workers={checks['workers']} vs 1): "
              f"{'pass' if checks['worker_invariance'] else 'FAIL'}")
    if "failing_keys" in checks:
        print(f"{'':18s} census below the timed alphas: {len(checks['failures'])} of "
              f"{checks['attempted']} queries fail; keys (kind, df[, df2], alpha):")
        for key in checks["failing_keys"]:
            print(f"{'':20s} {key}")


def print_traced(name: str, detail: dict, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:18s} {metric:40s} {_fmt(m['value']):>12s} {m['unit']:8s} "
              f"{detail['source'][metric]}")
    over = detail["trace_overhead"]
    print(f"{'':18s} tracing overhead: traced op p50 {over['traced_op_p50_s']:.6g} s "
          f"(n={over['traced_ops']}) / untraced {over['untraced_op_p50_s']:.6g} s "
          f"(n={over['untraced_ops']}) = "
          f"{over['traced_op_p50_s'] / over['untraced_op_p50_s']:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="busy seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    harness.require_source()
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    for i, name in enumerate(names):
        machine, detail, result = run_workload(name, args.seed, seconds, 0)
        if i == 0:
            print("machine", json.dumps(machine))
        print_untraced(name, detail, result)
    if args.trace:
        for name in names:
            _, detail, result = run_workload(name, args.seed, seconds, 1)
            print_traced(name, detail, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
