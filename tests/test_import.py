"""What importing socbench sets up: the default OPENBLAS_THREAD_TIMEOUT,
checked in fresh interpreters, since OpenBLAS reads it once when numpy
loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socbench

SRC = str(Path(socbench.__file__).parents[1])


def run_fresh(body: str, **env: str) -> str:
    """The stdout of the Python source ``body`` run in a fresh interpreter
    that can import socbench, with no OPENBLAS_THREAD_TIMEOUT but ``env``'s."""
    environ = dict(os.environ, PYTHONPATH=SRC, **env)
    if "OPENBLAS_THREAD_TIMEOUT" not in env:
        environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
    done = subprocess.run([sys.executable, "-c", body], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


SHOW_TIMEOUT = "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


def test_import_sets_the_thread_timeout():
    assert run_fresh(f"import socbench; {SHOW_TIMEOUT}") == "4"


def test_a_thread_timeout_the_user_set_wins():
    body = f"import socbench; {SHOW_TIMEOUT}"
    assert run_fresh(body, OPENBLAS_THREAD_TIMEOUT="9") == "9"


def test_numpy_loaded_first_is_left_as_it_was():
    assert run_fresh(f"import numpy, socbench; {SHOW_TIMEOUT}") == "None"


IDLE_CPU = """
import json, os, resource, time
import socbench
import numpy as np
from socbench.network import _openblas_thread_api

def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

api = _openblas_thread_api()
if api is None:
    print(json.dumps({"skip": "no OpenBLAS thread-count symbols"}))
elif len(os.sched_getaffinity(0)) < 2 or api[0]() < 2:
    print(json.dumps({"skip": "OpenBLAS runs one thread here"}))
else:
    rows, weights = np.ones((100_001, 256)), np.ones((256, 1))
    rows @ weights  # split between the OpenBLAS threads
    started = cpu_s()
    time.sleep(0.3)
    print(json.dumps({"idle_cpu_s": cpu_s() - started}))
"""


def test_blas_threads_sleep_once_a_threaded_product_is_done():
    """OpenBLAS's own default lets each idle worker spin for 2**28 cycles,
    about 0.1 s of CPU at 2 GHz, after every threaded product."""
    result = json.loads(run_fresh(IDLE_CPU))
    if "skip" in result:
        pytest.skip(result["skip"])
    assert result["idle_cpu_s"] < 0.03
