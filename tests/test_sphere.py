import dataclasses
import math

import numpy as np
import pytest

from roblaw import InvalidArgument, SphereSample, gen_dataset, moment_cpq, sample_sphere
from roblaw.sphere import BLOCK_ROWS, sphere_blocks


def test_sample_sphere_rows_unit_norm():
    s = sample_sphere(17, 200, 0)
    assert s.points.shape == (200, 17)
    np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("points", [
    [[1.0, 0.0], [0.6, 0.9]],           # second row has norm 1.08
    [[1.0, 1e-4]],
    [[math.nan, 0.0]],
    *([[1.0, 0.0], [0.6 * scale, 0.8 * scale]] for scale in (3.0, 0.5, 1 + 1e-8, 0.0)),
])
def test_public_sphere_sample_checks_every_row_norm(points):
    # a hidden layer is a sphere sample, and no field switches the check off
    assert [f.name for f in dataclasses.fields(SphereSample)] == ["points"]
    with pytest.raises(InvalidArgument, match="unit norm"):
        SphereSample(np.array(points))


def test_sample_sphere_rows_normalized_in_blocks_equal_whole_array_norms():
    for d, n in ((2, 1), (7, 1023), (3, 2049), (40, 3000)):
        g = np.random.default_rng(n).standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        assert sample_sphere(d, n, n).points.tobytes() == g.tobytes()


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 37])
def test_sphere_blocks_draw_the_sample_bits_into_one_buffer(n):
    d, seed = 7, 40 + n
    blocks = list(sphere_blocks(d, n, seed))
    assert [len(b) for b in blocks] == [min(BLOCK_ROWS, n - s) for s in range(0, n, BLOCK_ROWS)]
    assert all(np.shares_memory(b, blocks[0]) for b in blocks)
    copies = np.concatenate([b.copy() for b in sphere_blocks(d, n, seed)])
    assert copies.tobytes() == sample_sphere(d, n, seed).points.tobytes()


@pytest.mark.parametrize("d, n", [(1, 5), (3, 0), (-2, 5), (3, -1)])
def test_sphere_draws_reject_bad_sizes(d, n):
    with pytest.raises(InvalidArgument):
        sample_sphere(d, n, 0)
    with pytest.raises(InvalidArgument):
        next(sphere_blocks(d, n, 0))
    with pytest.raises(InvalidArgument, match="a sphere sample needs"):
        gen_dataset(n, d, 0.1, 0)


def test_sphere_draws_reject_a_negative_seed():
    with pytest.raises(InvalidArgument, match="seeds must be >= 0, got -1"):
        sample_sphere(3, 5, -1)
    with pytest.raises(InvalidArgument, match="seeds must be >= 0"):
        next(sphere_blocks(3, 5, -1))


def test_sample_sphere_deterministic():
    a = sample_sphere(8, 50, 123).points
    b = sample_sphere(8, 50, 123).points
    np.testing.assert_array_equal(a, b)
    c = sample_sphere(8, 50, 124).points
    assert np.abs(a - c).max() > 1e-3


def test_sphere_sample_equals_and_hashes_as_itself_only():
    a, b = sample_sphere(3, 2, 0), sample_sphere(3, 2, 0)
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_sample_sphere_mean_isotropy():
    X = sample_sphere(5, 200000, 1).points
    # E[x] = 0, E[xx^T] = I/d
    assert np.abs(X.mean(axis=0)).max() < 5e-3
    np.testing.assert_allclose(X.T @ X / X.shape[0], np.eye(5) / 5, atol=2e-3)


def test_moment_small_cases_closed_forms():
    d, s = 7, 0.4
    assert moment_cpq(1, 1, d, s) == pytest.approx(s / d, rel=1e-12)
    assert moment_cpq(2, 0, d, s) == pytest.approx(1 / d, rel=1e-12)
    assert moment_cpq(4, 0, d, s) == pytest.approx(3 / (d * (d + 2)), rel=1e-12)
    assert moment_cpq(2, 2, d, s) == pytest.approx(
        (1 + 2 * s**2) / (d * (d + 2)), rel=1e-12
    )


def test_moment_opposite_parity_is_zero():
    assert moment_cpq(1, 2, 9, 0.3) == 0.0
    assert moment_cpq(3, 0, 9, -0.5) == 0.0


def test_moment_matches_monte_carlo():
    d, s = 6, 0.6
    X = sample_sphere(d, 400000, 3).points
    u = np.eye(d)[0]
    v = np.array([s, math.sqrt(1 - s * s)] + [0.0] * (d - 2))
    for p, q in ((1, 1), (2, 2), (1, 3)):
        vals = (X @ u) ** p * (X @ v) ** q
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        assert moment_cpq(p, q, d, s) == pytest.approx(mc, abs=4 * se)


def test_moment_rejects_high_order():
    with pytest.raises(InvalidArgument):
        moment_cpq(8, 6, 5, 0.1)
