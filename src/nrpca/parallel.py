"""The one process pool, shared by the CSV loader and the Monte Carlo
harness.

Heap policy. A Monte Carlo replication at d = 8192 allocates arrays of
0.3-0.9 MB (polar uniforms and temporaries, the sample, its centered
copy) and frees them when it ends. glibc's dynamic mmap and trim
thresholds hand such blocks back to the kernel, so the next replication
faults the same pages in again, zero-filled: about 600 minor faults per
replication, a quarter of its time. Each pool worker therefore starts by
raising glibc's `M_MMAP_THRESHOLD` to 32 MiB and `M_TRIM_THRESHOLD` to
64 MiB through `mallopt`, and keeps its freed memory for the next job.
`nrpca simulate` applies the same policy to its own process, which runs
the replications when there is one worker; a library call that maps
serially leaves the caller's allocator alone. Where the C library has no
`mallopt` (macOS, Windows) nothing changes. The policy decides only
where an array's memory comes from, never its values, so every result is
the same with it and without it.
"""

from __future__ import annotations

import functools

__all__ = ["keep_freed_memory", "ordered_map"]

# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _mallopt():
    """The C library's `mallopt`, or None where it has none."""
    try:
        import ctypes  # only here: `import nrpca` stays numpy-only

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_memory() -> None:
    """Apply the heap policy above to this process."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def ordered_map(fn, *jobs: list, workers: int) -> list:
    """`list(map(fn, *jobs))` in up to `workers` forked processes, at
    most one per job, each under the heap policy above. A daemonic
    process, such as a multiprocessing.Pool worker, may not start
    processes of its own: it maps serially."""
    workers = min(workers, len(jobs[0]))
    if workers > 1:
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            # forked workers share the loaded modules: spawned ones would
            # import numpy again and re-run a caller's main module
            context = multiprocessing.get_context("fork")
            chunksize = -(-len(jobs[0]) // (4 * workers))
            # resolved here, so the workers inherit it instead of loading it
            policy = keep_freed_memory if _mallopt() else None
            with ProcessPoolExecutor(
                workers, mp_context=context, initializer=policy
            ) as pool:
                return list(pool.map(fn, *jobs, chunksize=chunksize))
    return list(map(fn, *jobs))
