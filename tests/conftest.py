"""Fixtures and helpers shared by the whole suite."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socbench
from socbench import harness, network
from socbench.network import _openblas_thread_api


@pytest.fixture(autouse=True)
def blas_thread_count_unchanged():
    """Fail any test that leaves the process's OpenBLAS thread count other
    than it found it, such as a one-thread pin that was never released."""
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    get_threads, _ = api
    before = get_threads()
    yield
    after = get_threads()
    assert after == before, f"OpenBLAS thread count left at {after}, found {before}"


@pytest.fixture()
def blas_threads():
    """The OpenBLAS thread-count getter, with the count at two for the
    test so that a pin to one thread shows; skips without OpenBLAS."""
    api = _openblas_thread_api()
    if api is None:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    get_threads, set_threads = api
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield get_threads
    finally:
        set_threads(before)


class CallRecord:
    """Integers recorded by a patched function, in this process or in a
    forked pool worker: each call appends its pid and value to a file,
    which every process reaches, as one line."""

    def __init__(self, path):
        self.path = path

    def add(self, value: int) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {value}\n")

    def entries(self) -> list[tuple[int, int]]:
        """(pid, value) of every call so far, in the order they were added."""
        if not self.path.exists():
            return []
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return [tuple(int(word) for word in line.split()) for line in lines]

    def values(self) -> list[int]:
        return [value for _, value in self.entries()]

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


@pytest.fixture()
def calls(tmp_path):
    """A CallRecord in a file of the test's own."""
    return CallRecord(tmp_path / "calls.txt")


@pytest.fixture()
def product_threads(tmp_path, monkeypatch, blas_threads):
    """A CallRecord of the OpenBLAS thread count that each BLAS product of
    ``train`` and ``predict`` sees, in whichever process runs it: every
    ``harness.forward``, ``harness.backward`` and ``harness.optimizer_step``
    call and every share of ``predict``'s blocks. The count is two outside
    a pin (``blas_threads``)."""
    record = CallRecord(tmp_path / "product_threads.txt")

    def recording(real):
        def wrapper(*args, **kwargs):
            record.add(blas_threads())
            return real(*args, **kwargs)
        return wrapper

    for name in ("forward", "backward", "optimizer_step"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
    monkeypatch.setattr(network, "_score_blocks", recording(network._score_blocks))
    return record


def openblas_corename():
    """The name of the kernel the loaded OpenBLAS picked, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(ctypes.CDLL(lib), symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def run_on_haswell(body: str) -> None:
    """Run the Python source ``body`` in a fresh process under
    ``OPENBLAS_CORETYPE=Haswell`` (the kernel is picked when OpenBLAS
    loads), with the test modules and socbench importable; fail the test
    when ``body`` fails, and skip it when OpenBLAS does not pick Haswell."""
    script = (
        "import conftest\n"
        "print(conftest.openblas_corename(), flush=True)\n"
        "if conftest.openblas_corename() == 'Haswell':\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
    )
    paths = [str(Path(__file__).parent), str(Path(socbench.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() != "Haswell":
        pytest.skip(f"OpenBLAS kernel is {done.stdout.strip()}, not Haswell")
