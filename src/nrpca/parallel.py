"""The one ordered map over a process pool, shared by the CSV loader and
the Monte Carlo harness and the only place that sizes the pool, and the
heap policy of a Monte Carlo study.

The pool. This module owns at most one pool of forked workers per
process and keeps it between calls. Its key is (pid, pool size, mapped
function), the function being `fn.func` for a `functools.partial`. An
`ordered_map` with the key of the live pool maps onto its workers; one
with a new key shuts the old pool down, waiting for its workers, and
forks a new one. A worker sees every module as it was when it was
forked, so the key holds the function: a study that imports a module or
sets the heap policy before it maps gets workers forked after that. A
process forked from the pool's owner, such as one of its workers, sees
another pid and forks a pool of its own. One lock spans choosing the
pool and its map, so two threads never shut down each other's pool. An
exception out of the map, from a job, a dead worker or an interrupt,
shuts the pool down, cancelling the jobs not yet started. A kept pool
can lose a worker while it waits between calls: a Ctrl-C signals the
whole foreground process group, and the OOM killer may pick a worker.
So when a kept pool turns out broken, the map runs once more on a fresh
pool; the jobs are pure, so the result is the same. Otherwise the pool
lives until the process exits, when it is shut down before
multiprocessing joins the process's children, or until `close_pool`,
which the CSV loader calls as soon as its map returns: a file is read
once, and kept workers would hold their heaps through what follows.
On Linux each worker is killed when the thread that forked it ends, so
workers never outlive an owner killed by a signal; a pool forked by a
thread that has since ended is found broken and replaced as above. On
Python >= 3.12, a `fork` made elsewhere in the process while the pool
lives warns with CPython's `DeprecationWarning` about forking a process
that has threads, because the pool keeps a manager thread.

Heap policy. A replication at d = 8192 frees arrays of 0.3-0.9 MB (polar
uniforms and temporaries, the sample, its centered copy). glibc's dynamic
mmap and trim thresholds hand them back to the kernel, so the next
replication faults the same pages in again, zero-filled: about 600 minor
faults, a fifth of its time. `keep_freed_memory` raises glibc's
`M_MMAP_THRESHOLD` to 32 MiB and `M_TRIM_THRESHOLD` to 64 MiB through
`mallopt`, so a process keeps up to 64 MiB of freed memory for reuse.
Each `simulation` study applies it once, in the calling process, before
it maps its replications; forked pool workers inherit it, and it stays
set for the rest of the process's life. `ordered_map` leaves the
allocator alone, so the CSV loader's workers run without it. Where the C
library has no `mallopt` (macOS, Windows) nothing changes. The policy
decides only where memory comes from, never a value, so every result is
the same with it and without it.
"""

from __future__ import annotations

import functools
import os
import threading

__all__ = ["close_pool", "keep_freed_memory", "ordered_map"]

# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit
_TRIM_THRESHOLD = 64 << 20
# prctl option from Linux's <linux/prctl.h>
_PR_SET_PDEATHSIG = 1

# the cached pool as ((pid, size, function), executor, its shutdown), or None
_pool = None
# reentrant: `ordered_map` closes a failed pool while it holds the lock
_lock = threading.RLock()


def _new_lock_in_child() -> None:
    # a child forked while a thread holds the lock, as every worker is,
    # inherits it held; a copy of another thread's lock is never released
    global _lock
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock_in_child)


@functools.cache
def _libc(name: str):
    """The C library's function `name`, or None where it has none. Both
    callers pass ints and ignore an int result, ctypes' defaults."""
    try:
        import ctypes  # only here: `import nrpca` stays numpy-only

        return getattr(ctypes.CDLL(None), name)
    except (AttributeError, ImportError, OSError, TypeError):
        return None


def keep_freed_memory() -> None:
    """Apply the heap policy above to this process and its later forks."""
    mallopt = _libc("mallopt")
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def ordered_map(fn, *jobs: list, workers: int) -> list:
    """`list(map(fn, *jobs))` in up to `workers` forked processes, at
    most one per job and one per core in the affinity mask, or one in
    all where the platform has no `os.sched_getaffinity`. The processes
    are this process's cached pool when its key matches (see above),
    and a new pool otherwise, which stays for later calls; a kept pool
    found broken is replaced and the map run again. A daemonic
    process, such as a multiprocessing.Pool worker, may not start
    processes of its own: it maps serially."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(workers, cores, len(jobs[0]))
    if workers > 1:
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            from concurrent.futures.process import BrokenProcessPool

            chunksize = -(-len(jobs[0]) // (4 * workers))
            with _lock:
                while True:
                    pool, kept = _pool_for(fn, workers)
                    try:
                        return list(pool.map(fn, *jobs, chunksize=chunksize))
                    except BaseException as error:
                        close_pool()
                        # a kept pool may have lost a worker (see above)
                        if not (kept and isinstance(error, BrokenProcessPool)):
                            raise
    return list(map(fn, *jobs))


def _pool_for(fn, workers: int):
    """(the cached pool, True) if its key is (this pid, `workers`, `fn`),
    or (a new one in its place, False)."""
    global _pool
    func = fn.func if isinstance(fn, functools.partial) else fn
    key = (os.getpid(), workers, func)
    if _pool is not None and _pool[0] == key:
        return _pool[1], True
    close_pool()
    import multiprocessing.util
    from concurrent.futures import ProcessPoolExecutor

    # forked workers share the loaded modules: spawned ones would
    # import numpy again and re-run a caller's main module
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        workers, mp_context=context, initializer=_end_with, initargs=(os.getpid(),)
    )
    # A Finalize runs in the process that made it and no other. At
    # exit, multiprocessing runs those of priority >= 0, highest
    # first, then joins the process's children, the workers among
    # them; above 10, this one runs while the pool's queues still
    # carry the workers' stop signals.
    shutdown = multiprocessing.util.Finalize(
        None, pool.shutdown, kwargs={"cancel_futures": True}, exitpriority=20
    )
    _pool = key, pool, shutdown
    return pool, False


def _end_with(owner: int) -> None:
    """Have this worker killed when the thread that forked it ends, where
    Linux's `prctl(PR_SET_PDEATHSIG)` is available: an owner killed by a
    signal never stops its workers, and they would wait on their call
    queue forever, since each holds a write end of that queue's pipe.
    And have a Ctrl-C end it without a word: a worker that inherited
    Python's SIGINT handler gets the default action back, where the
    handler would print a `KeyboardInterrupt` traceback from an idle
    worker. An ignored SIGINT stays ignored."""
    import signal

    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    prctl = _libc("prctl")
    if prctl is None:
        return
    prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    if os.getppid() != owner:  # the owner ended before the prctl
        os._exit(1)


def close_pool() -> None:
    """Shut this process's cached pool down, cancelling the jobs not yet
    started and waiting for its workers to exit, and drop it. A pool that
    a parent process forked is dropped without being touched."""
    global _pool
    with _lock:
        if _pool is not None:
            shutdown = _pool[2]
            _pool = None
            shutdown()
