"""Fixtures shared by the whole suite."""

import os

import pytest

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
