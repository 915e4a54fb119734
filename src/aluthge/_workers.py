"""Forked worker processes and the BLAS thread count, shared by the commands.

Only a command starts processes, and it opens at most one pool. ``verify``
runs its reports and ``iterate`` each step's measures on ``_blas_workers``:
the command sets its BLAS to one thread and forks the workers inside that
pin, so they inherit it. ``transform`` shares a large matrix file's parsing
and formatting with one worker of ``_worker_pool``, which never calls BLAS.
Nothing here imports ``multiprocessing`` or ``concurrent.futures`` until a
pool is opened.
"""

from __future__ import annotations

import collections
import contextlib
import os

# Forked workers, each with one BLAS thread, that run verify's reports or
# iterate's per-step measures. Two is the only count measured (on 2 CPUs, where
# it halves a verify run and takes about 0.6 of an iterate run at n = 128).
POOL_PROCESSES = 2
# OpenBLAS's (set, get) thread-count entry points, under the names its builds
# export: scipy-openblas (numpy 2 wheels) with and without the ILP64 suffix,
# then OpenBLAS itself (numpy 1 wheels, system builds).
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS this process
    loaded (numpy's), as ctypes functions; None if no loaded library exports a
    known pair (another BLAS) or the loaded libraries cannot be listed (no
    /proc/self/maps)."""
    import ctypes

    try:
        with open("/proc/self/maps", "rb") as fh:
            # Fields: address, perms, offset, dev, inode, then the path, which may hold spaces.
            paths = sorted({os.fsdecode(line.split(maxsplit=5)[5].rstrip(b"\n")) for line in fh if b"openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                return getattr(lib, set_name), getattr(lib, get_name)
    return None


@contextlib.contextmanager
def _one_blas_thread(blas_threads):
    """Run the block with this process's BLAS on one thread, through the
    (set, get) pair ``blas_threads``, and restore the count found however the
    block exits; where that pair is None (another BLAS), leave BLAS alone."""
    if blas_threads is None:
        yield
        return
    set_threads, get_threads = blas_threads
    found = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(found)


def _pool_processes(n_tasks: int, blas_threads) -> int:
    """Workers that run ``n_tasks`` tasks while this process waits: one per
    usable CPU, at most POOL_PROCESSES and at most one per task, and none (0)
    where that makes fewer than two, since one would only stand in for this
    process, or where BLAS's thread count cannot be set, ``blas_threads``
    being None, since workers that keep this process's BLAS threads
    oversubscribe the CPUs."""
    if blas_threads is None:
        return 0
    processes = min(_usable_cpus(), POOL_PROCESSES, n_tasks)
    return processes if processes > 1 else 0


@contextlib.contextmanager
def _worker_pool(processes: int):
    """A pool of ``processes`` forked workers; None where that is 0. A worker
    is forked at the pool's first task and inherits this process's state at
    that moment, its BLAS thread count included. However the block exits, the
    pool is shut down and its pending tasks cancelled."""
    if processes < 1:
        yield None
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker imports numpy again, which took back
    # most of the gain on 2 CPUs. OpenBLAS stops its threads before a fork (its
    # atfork handler) and the command starts no other thread, so a forked
    # worker holds no lock another thread took.
    pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _blas_workers(n_tasks: int):
    """The ``_worker_pool`` for ``n_tasks`` tasks that call BLAS, sized by
    ``_pool_processes``, with this process's BLAS on one thread for the block
    (``_one_blas_thread``). The workers are forked inside that pin, so every
    process runs BLAS on one thread and no result depends on the CPU count."""
    blas_threads = _openblas_threads()
    with _one_blas_thread(blas_threads), _worker_pool(_pool_processes(n_tasks, blas_threads)) as pool:
        yield pool


def _in_order(fn, items, pool, window: int):
    """(item, fn(item)) for each of ``items`` in order, pulling ``items``
    lazily. With a pool, fn runs on its workers with at most ``window`` items
    not yet yielded; the first are handed out at the call, so the caller can
    work while they run. If the pool breaks (a worker was killed or ran out of
    memory), the item it owed and every later one run here. An error raised by
    ``items`` surfaces after the items before it, as it does without a pool."""
    items = iter(items)
    owed, futures, errors = collections.deque(), collections.deque(), []
    if pool is None:
        return _run_here(fn, owed, items, errors)
    from concurrent.futures import BrokenExecutor

    def hand_out():
        while not errors and len(futures) < window:
            try:
                item = next(items)
            except StopIteration:
                return
            except Exception as exc:
                errors.append(exc)
                return
            owed.append(item)
            futures.append(pool.submit(fn, item))

    def results():
        try:
            while futures:
                result = futures[0].result()
                futures.popleft()
                yield owed.popleft(), result
                hand_out()
        except BrokenExecutor:
            pass
        yield from _run_here(fn, owed, items, errors)

    try:
        hand_out()
    except BrokenExecutor:
        return _run_here(fn, owed, items, errors)
    return results()


def _run_here(fn, owed, items, errors):
    """``_in_order``'s items run in this process: those owed by a pool, then
    the first error ``items`` raised, if any, then the items not yet pulled."""
    for item in owed:
        yield item, fn(item)
    if errors:
        raise errors[0]
    for item in items:
        yield item, fn(item)
