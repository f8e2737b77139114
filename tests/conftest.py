import pytest

from mvelma import numcore as nc


@pytest.fixture
def blas_pool():
    """The (get, set) thread-count pair of numpy's bundled OpenBLAS, for a
    test that sets the caller's pool size; the size from before the test is
    put back after it. Skips where that library is not found."""
    calls = nc.openblas_threads()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    saved = calls[0]()
    yield calls
    calls[1](saved)
