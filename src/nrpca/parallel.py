"""The one process pool, shared by the CSV loader and the Monte Carlo
harness."""

from __future__ import annotations

__all__ = ["ordered_map"]


def ordered_map(fn, *jobs: list, workers: int) -> list:
    """`list(map(fn, *jobs))` in up to `workers` forked processes, at
    most one per job. A daemonic process, such as a multiprocessing.Pool
    worker, may not start processes of its own: it maps serially."""
    workers = min(workers, len(jobs[0]))
    if workers > 1:
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            # forked workers share the loaded modules: spawned ones would
            # import numpy again and re-run a caller's main module
            context = multiprocessing.get_context("fork")
            chunksize = -(-len(jobs[0]) // (4 * workers))
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(fn, *jobs, chunksize=chunksize))
    return list(map(fn, *jobs))
