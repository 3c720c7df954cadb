"""Interleaved A/B timing of two nrpca source trees.

Usage: python tools/ab.py PARENT CHANGE --workload W --rounds R

PARENT and CHANGE are `src/` directories (or checkouts holding one).
Each tree gets a long-lived worker process that imports nrpca from that
tree alone, at OPENBLAS_NUM_THREADS=1, runs one warm-up op and then
times ops on the seeds it is sent. Both workers are pinned to the same
core. Each round sends both workers the same seed five times, the two
taking turns and the side that goes first alternating from round to
round, and keeps each side's fastest CPU and wall time. A pair of
workers serves five rounds and is then replaced by a fresh pair, so
the 40 rounds of a default run come from 8 pairs of processes. The
workloads mirror those of `BENCHMARK.json` in-process:

- mc_tests: `run_test_mc` at d = 2048, n1 = 10, n2 = 20, 16
  replications (the benchmark op's 4, four times over, so that one op
  takes about 50 ms on a 2-vCPU Xeon);
- mc_pc_parallel: `run_estimation_mc` for model b at d = 512, 2048 and
  8192, 48 replications each, at workers=1;
- cli_estimate_csv: `load_matrix` and `nr_estimate` on a 100000 x 40
  CSV with a header and gene labels, written once; on one core the
  loader maps its blocks in-process, so the CPU time is the worker's own;
- nr_estimate: one `nr_estimate` of a 2048 x 20 normal matrix.

It prints one JSON line: the median CHANGE/PARENT ratio of CPU times
over all rounds, its 95 % interval from a bootstrap over worker pairs,
the two-sided sign-test p of the pairs' median ratios, the rounds and
pairs, each side's median CPU time, the median wall-time ratio and the
machine record. A ratio above 1 means CHANGE is slower. At 40 rounds a
run takes about 25 s on mc_tests, 80 s on mc_pc_parallel and 10 min on
cli_estimate_csv. It measures CPU time on one host: nothing about other
CPUs or about memory.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("mc_tests", "mc_pc_parallel", "cli_estimate_csv", "nr_estimate")
CSV_SHAPE = (100_000, 40)
# a pair of workers serves this many rounds and is then replaced: one
# process kept a bias of up to 1.5 % for its life on identical trees
PAIR_ROUNDS = 5
# ops per side in a round; the fastest stands for the round, because a
# neighbour's load only ever adds time
ROUND_OPS = 5


def write_csv(path: Path, seed: int = 2026) -> None:
    """A wide matrix with per-row offsets and a rank-one spike, written
    with a header row, one label per row and every value as %.17g."""
    d, n = CSV_SHAPE
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, size=(d, 1)) + np.outer(
        0.5 * rng.standard_normal(d), rng.standard_normal(n)
    )
    x += rng.standard_normal((d, n))
    row = "g%07d," + ",".join(["%.17g"] * n) + "\n"
    with open(path, "w") as handle:
        handle.write("gene," + ",".join(f"s{j + 1}" for j in range(n)) + "\n")
        for i, values in enumerate(x):
            handle.write(row % (i + 1, *values))


def _op(workload: str, csv: str):
    """A function of the round's seed that builds the op's input and
    returns the op itself, so that only the op is timed."""
    from nrpca import dataio, estimators, simulation

    if workload == "mc_tests":
        return lambda seed: lambda: simulation.run_test_mc(
            [2048], n1=10, n2=20, reps=16, alpha=0.05, seed=seed, workers=1
        )
    if workload == "mc_pc_parallel":
        return lambda seed: lambda: simulation.run_estimation_mc(
            "b", [512, 2048, 8192], n=10, reps=48, seed=seed, workers=1
        )
    if workload == "cli_estimate_csv":
        return lambda seed: lambda: estimators.nr_estimate(dataio.load_matrix(csv))

    def build(seed):
        x = np.random.default_rng(seed).standard_normal((2048, 20))
        return lambda: estimators.nr_estimate(x)

    return build


def serve(workload: str, csv: str) -> None:
    """The worker: report the tree it imported, warm up, then time one op
    for each seed read from stdin."""
    # both workers share one core: on two cores, identical trees read up
    # to 3 % apart on mc_tests; one core also keeps the CSV loader's map
    # in-process, so the CPU time is the worker's own
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out, sys.stdout = sys.stdout, sys.stderr
    import nrpca
    import scipy

    build = _op(workload, csv)
    build(0)()
    record = {"nrpca": nrpca.__file__, "numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(record), file=out, flush=True)
    for line in sys.stdin:
        op = build(int(line))
        cpu, wall = time.process_time(), time.perf_counter()
        op()
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        print(json.dumps({"cpu": cpu, "wall": wall}), file=out, flush=True)


def _tree(path: str) -> Path:
    path = Path(path).resolve()
    tree = path / "src" if (path / "src" / "nrpca").is_dir() else path
    if not (tree / "nrpca" / "__init__.py").is_file():
        raise SystemExit(f"error: no nrpca package under {path}")
    return tree


def _start(tree: Path, workload: str, csv: str):
    env = dict(os.environ, PYTHONPATH=str(tree), OPENBLAS_NUM_THREADS="1")
    worker = subprocess.Popen(
        [sys.executable, __file__, "--serve", workload, csv],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    record = json.loads(worker.stdout.readline())
    if not Path(record["nrpca"]).is_relative_to(tree):
        raise SystemExit(f"error: the worker for {tree} imported {record['nrpca']}")
    return worker, record


def _time(worker, seed: int) -> dict:
    worker.stdin.write(f"{seed}\n")
    worker.stdin.flush()
    return json.loads(worker.stdout.readline())


def _round(workers: list, seed: int) -> list:
    """Each side's (CPU, wall) time of its fastest of ROUND_OPS ops on
    `seed`, the sides taking turns, the side that goes first alternating
    from round to round."""
    times = [[], []]
    for _ in range(ROUND_OPS):
        for side in (0, 1) if seed % 2 else (1, 0):
            times[side].append(_time(workers[side], seed))
    return [(min(t["cpu"] for t in ts), min(t["wall"] for t in ts)) for ts in times]


def sign_test(ratios) -> float:
    """Two-sided sign-test p of ratios against 1, ties dropped."""
    above = sum(r > 1.0 for r in ratios)
    n = above + sum(r < 1.0 for r in ratios)
    k = min(above, n - above)
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n)


def summarize(pairs: list) -> dict:
    """The median CHANGE/PARENT CPU-time ratio over all rounds; its 95 %
    interval from 10000 bootstrap resamples of the worker pairs, since a
    process keeps its bias for its life; and the sign-test p of the
    pairs' median ratios. `pairs` holds each worker pair's rounds as
    [(parent CPU, wall), (change CPU, wall)]."""
    cpu = [np.array([c[0] / p[0] for p, c in rounds]) for rounds in pairs]
    wall = np.concatenate([[c[1] / p[1] for p, c in rounds] for rounds in pairs])
    picks = np.random.default_rng(0).integers(0, len(cpu), size=(10_000, len(cpu)))
    medians = [np.median(np.concatenate([cpu[i] for i in pick])) for pick in picks]
    low, high = np.percentile(medians, [2.5, 97.5])
    pair_medians = [float(np.median(ratios)) for ratios in cpu]
    every = [r for rounds in pairs for r in rounds]
    return {
        "median_ratio": float(np.median(np.concatenate(cpu))),
        "ci95": [float(low), float(high)],
        "sign_p": sign_test(pair_medians),
        "rounds": len(every),
        "pairs": len(pairs),
        "change_slower_pairs": sum(r > 1.0 for r in pair_medians),
        "parent_cpu_s": float(np.median([p[0] for p, _ in every])),
        "change_cpu_s": float(np.median([c[0] for _, c in every])),
        "wall_ratio": float(np.median(wall)),
    }


def machine(record: dict) -> dict:
    model = ""
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model or platform.processor(),
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": record["numpy"],
        "scipy": record["scipy"],
        "openblas_num_threads": 1,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = _tree(args.parent), _tree(args.change)
    with tempfile.TemporaryDirectory() as tmp:
        csv = str(Path(tmp) / "expression.csv")
        if args.workload == "cli_estimate_csv":
            write_csv(Path(csv))
        pairs = []
        for first in range(1, args.rounds + 1, PAIR_ROUNDS):
            started = [_start(tree, args.workload, csv) for tree in trees]
            workers = [worker for worker, _ in started]
            try:
                last = min(first + PAIR_ROUNDS, args.rounds + 1)
                pairs.append([_round(workers, seed) for seed in range(first, last)])
            finally:
                for worker in workers:
                    worker.stdin.close()
                    worker.wait()
                    worker.stdout.close()
    result = {"workload": args.workload, **summarize(pairs)}
    print(json.dumps({**result, "machine": machine(started[0][1])}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(*sys.argv[2:])
    else:
        main()
