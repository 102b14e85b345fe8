import tracemalloc

import numpy as np
import pytest

from roblaw.fit import _scipy_blas_threads


def peak_bytes(fn):
    """(fn(), the tracemalloc peak of that call in bytes, its result
    included)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


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


@pytest.fixture
def unit_inputs():
    """Dot-product inputs for the kernel profiles: the edges of [-1, 1] and
    within rounding of them, zeros of both signs, a subnormal, Python and
    0-d scalars, and arrays that are contiguous, transposed, strided and
    reversed."""
    edges = np.array([-1 - 1e-10, -1.0, -0.7, -1e-310, -0.0, 0.0, 0.3, 1.0, 1 + 1e-10])
    grid = np.random.default_rng(0).uniform(-1 - 5e-10, 1 + 5e-10, (37, 41))
    grid[0, :edges.size] = edges
    return [
        -1.0, 0.0, 1.0, 1 + 1e-10, -1 - 1e-10, 0.25, np.float64(-0.5), np.asarray(0.6),
        np.asarray(1 + 1e-10), edges, grid, grid.T, grid[::2, 1::3], grid[0, ::-1],
        np.array([], dtype=float),
    ]
