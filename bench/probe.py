"""Layer probe run in a fresh interpreter by the traced benchmark run.

Times nrpca's linalg layer at whatever BLAS thread count the environment
gives this process, and optionally the peak RSS of loading one CSV.
Prints one JSON object. The traced run starts it twice: once with the
default environment under `-X importtime`, once with the BLAS thread
variables set to 1.

    python3 bench/probe.py --seed 1 [--csv matrix.csv]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import harness

# the Gram probe uses the cli_estimate_csv matrix shape
GRAM_SHAPE = (100_000, 40)
# sym_eigen sizes and repeats: the mc workloads' 10 and 20, the CLI's 40
EIGEN_REPEATS = {10: 15, 20: 7, 40: 3}
GRAM_REPEATS = 5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()
    # nrpca first, so its import time includes numpy and scipy as it
    # does for a user; then the CLI module the console script loads
    harness.require_source()
    import nrpca.cli  # noqa: F401
    import numpy as np
    from nrpca import dataio, linalg

    import machine

    out: dict = {"blas_threads": machine.blas_threads()}
    if args.csv:
        # first, so the process peak is the import plus this load
        start = time.perf_counter()
        dataio.load_matrix(args.csv)
        out["load_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rng = np.random.default_rng([args.seed, 7])
    x = linalg.DataMatrix(rng.standard_normal(GRAM_SHAPE))
    out["center_s"] = _median_time(lambda: linalg.center_columns(x), GRAM_REPEATS)
    xc = linalg.center_columns(x)
    out["dual_covariance_s"] = _median_time(lambda: linalg.dual_covariance(xc), GRAM_REPEATS)
    out["gram_shape"] = list(GRAM_SHAPE)
    out["sym_eigen_s"] = {}
    for m, repeats in EIGEN_REPEATS.items():
        z = rng.standard_normal((200, m))
        sym = linalg.SymMatrix(z.T @ z / (m - 1))
        out["sym_eigen_s"][str(m)] = _median_time(lambda: linalg.sym_eigen(sym), repeats)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
