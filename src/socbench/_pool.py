"""Forked worker processes that run tasks and report each one's outcome,
its return value or its SocBenchError, for the caller to act on."""

from __future__ import annotations

import ctypes
import os
import signal
from collections.abc import Callable, Sequence
from contextlib import contextmanager

from .errors import SocBenchError
from .network import _share_blas_threads

_worker_tasks: list[Callable] = []  # in a pool worker: the tasks it inherited


def _run(task: Callable):
    try:
        return task()
    except SocBenchError as exc:
        return exc


def _adopt(tasks: Sequence[Callable], workers: int) -> None:
    """Pool worker initializer: keep the tasks the fork handed over, score
    on one in ``workers`` of the parent's OpenBLAS threads, and die with
    the thread that forked this worker, the caller's: the kernel then sends
    SIGKILL (``PR_SET_PDEATHSIG``, skipped where libc has no ``prctl``), and
    a worker whose parent died before the call exits at once."""
    from multiprocessing import parent_process  # loaded: this is a pool worker

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG in <linux/prctl.h>
    if os.getppid() != parent_process().pid:
        os._exit(1)
    _worker_tasks[:] = tasks
    _share_blas_threads(workers)


def _run_adopted(index: int):
    return _run(_worker_tasks[index])


@contextmanager
def outcomes(tasks: Sequence[Callable], jobs: int):
    """An iterator over each task's outcome, in task order: from ``jobs``
    forked workers, or, at ``jobs`` 1, from this process as it is reached.

    A worker inherits the tasks and their data from the fork (``forkserver``
    would re-import numpy, pickle every task and miss what this process
    patched); only an index goes to it and only an outcome comes back.
    OpenBLAS's at-fork handler stops its threads, and ``predict`` joins its
    own. A worker's death makes the outcome of every task not yet done
    ``SocBenchError("worker process ended unexpectedly")``. Leaving the
    block with a task not done, for any reason, ends every worker at once;
    only the pool's thread then cancels queued tasks (in ``shutdown``), as
    a cancel from this thread races it into an InvalidStateError traceback.
    Workers fork with SIGINT blocked, so a Ctrl-C is the caller's alone.
    """
    if jobs == 1 or not tasks:
        yield map(_run, tasks)
        return
    # imported here: a serial run does not pay for the process pool
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    def awaited(future):
        try:
            return future.result()
        except BrokenProcessPool:
            return SocBenchError("worker process ended unexpectedly")

    workers = min(jobs, len(tasks))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(tasks, workers))
    done = False
    try:
        unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:  # the first submit forks every worker
            futures = [pool.submit(_run_adopted, i) for i in range(len(tasks))]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        yield map(awaited, futures)
        done = all(future.done() for future in futures)
    finally:
        if not done:
            for worker in list(pool._processes.values()):
                worker.terminate()
        pool.shutdown(cancel_futures=True)
