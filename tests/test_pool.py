"""The fork pool on toy tasks that train no network: order, laziness,
teardown, a dead worker, the SIGINT mask, the death signal, the BLAS
share and the cancel race."""

import ctypes
import multiprocessing
import os
import signal
import threading
import time
from functools import partial

import pytest

from socbench import _pool
from socbench.errors import InputError, SocBenchError, TrainingDivergedError


def after(seconds, value):
    time.sleep(seconds)
    return value


def fail(error):
    raise error


def outcomes_of(tasks, jobs):
    with _pool.outcomes(tasks, jobs) as results:
        return list(results)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_outcomes_come_in_task_order_and_errors_come_back_as_data(jobs):
    """Later tasks finish first; a task's SocBenchError is its outcome, not
    raised, and keeps its class, message and exit code; the tasks after it
    still run. A task may be a closure: the workers inherit it."""
    diverged = TrainingDivergedError("training diverged")
    tasks = [partial(after, 0.3, "slow"), partial(fail, diverged),
             lambda: "closure", partial(after, 0.0, "fast")]
    results = outcomes_of(tasks, jobs)
    assert results[0] == "slow" and results[2:] == ["closure", "fast"]
    error = results[1]
    assert type(error) is TrainingDivergedError
    assert (str(error), error.exit_code) == ("training diverged", 3)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_task_is_no_outcome(jobs):
    assert outcomes_of([], jobs) == []


def test_one_job_runs_each_task_when_it_is_reached():
    ran = []
    tasks = [partial(ran.append, i) for i in range(3)]
    with _pool.outcomes(tasks, 1) as results:
        assert ran == []
        next(results)
        assert ran == [0]
    assert ran == [0]


ENDINGS = {
    "plain exit": None,
    "caller's error": InputError("the caller's policy"),
    "ctrl-c": KeyboardInterrupt(),
    "task's bug": ValueError("a bug"),
}


@pytest.mark.parametrize("ending", ENDINGS)
def test_leaving_early_ends_every_worker_at_once(ending):
    """Two workers run 30 s tasks and more are queued: leaving the block
    after the first outcome takes well under a second, whatever ends it,
    and what ended it goes on."""
    error = ENDINGS[ending]
    first = partial(fail, error) if ending == "task's bug" else int
    tasks = [first] + [partial(after, 30, None)] * 5
    left = None
    started = time.perf_counter()
    try:
        with _pool.outcomes(tasks, 2) as results:
            next(results)
            if error is not None:
                raise error
    except BaseException as exc:  # noqa: BLE001 - what left the block
        left = exc
    assert time.perf_counter() - started < 1.0
    assert repr(left) == repr(error)
    assert multiprocessing.active_children() == []


def test_a_dead_worker_is_the_awaited_tasks_outcome():
    caller = os.getpid()

    def die():
        if os.getpid() != caller:
            os._exit(1)  # as a worker killed by a signal or out of memory

    with _pool.outcomes([die, partial(after, 30, None)], 2) as results:
        error = next(results)
    assert type(error) is SocBenchError
    assert str(error) == "worker process ended unexpectedly"
    assert multiprocessing.active_children() == []


def blocked_signals():
    return os.getpid(), signal.pthread_sigmask(signal.SIG_BLOCK, [])


def interrupted():
    os.kill(os.getpid(), signal.SIGINT)  # to this worker alone
    return blocked_signals()


def test_workers_hold_back_sigint():
    """A Ctrl-C is the caller's alone: workers fork with SIGINT blocked, so
    one that reaches a worker stays pending there and its task ends as
    usual; the caller's signal mask is left as it was."""
    results = outcomes_of([interrupted, blocked_signals], 2)
    for pid, blocked in results:
        assert pid != os.getpid() and signal.SIGINT in blocked
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def death_signal():
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_int)]
    prctl.restype = ctypes.c_int
    sig = ctypes.c_int(-1)
    prctl(2, ctypes.byref(sig))  # 2 is PR_GET_PDEATHSIG in <linux/prctl.h>
    return sig.value


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "prctl", None) is None,
                    reason="needs prctl")
def test_workers_ask_to_die_with_the_caller():
    assert death_signal() == 0
    assert outcomes_of([death_signal, death_signal], 2) == [signal.SIGKILL] * 2


def test_workers_score_on_their_share_of_blas_threads(blas_threads):
    """Each of N workers gets the caller's OpenBLAS count // N; the caller's
    count, two here, is left as it was."""
    assert outcomes_of([blas_threads] * 2, 1) == [2, 2]
    assert outcomes_of([blas_threads] * 2, 2) == [1, 1]
    assert blas_threads() == 2


def test_failing_pool_ends_without_a_thread_traceback(monkeypatch):
    """Only the pool's own thread cancels queued tasks: a future cancelled
    from the caller's thread, which the pool's thread then fails as it
    finds the workers ended, raised InvalidStateError there, printed as a
    traceback, in about 2 of 100 failing pools."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    tasks = [partial(fail, TrainingDivergedError("training diverged"))] * 15
    for _ in range(150):
        with pytest.raises(TrainingDivergedError):
            with _pool.outcomes(tasks, 2) as results:
                raise next(results)
    assert [hook.exc_value for hook in raised] == []
