"""Fixtures shared by the whole suite."""

import pytest

from socbench.harness import _openblas_thread_api


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
