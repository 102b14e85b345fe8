import pytest

from roblaw.fit import _scipy_blas_threads


@pytest.fixture
def scipy_blas_threads():
    """(get, set) for the thread count of scipy's own OpenBLAS; the count
    found is restored afterwards. Skips where scipy has none."""
    try:
        get, put = _scipy_blas_threads()
    except LookupError as exc:
        pytest.skip(f"no scipy OpenBLAS thread count: {exc}")
    found = get()
    yield get, put
    put(found)
