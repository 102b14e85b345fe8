"""Uniform-sphere geometry: sampling and exact mixed moments.

RNG: numpy's PCG64 (``default_rng``) with explicit 64-bit seeding. The
generator choice is pinned here so golden files stay stable across runs.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument

#: rows drawn and normalized at a time; the draws do not depend on it
BLOCK_ROWS = 1024


def check_unit_rows(points, message: str) -> None:
    """Raise InvalidArgument(message) unless each row of points has norm 1 within 1e-9."""
    if not np.all(np.abs(np.linalg.norm(points, axis=-1) - 1.0) <= 1e-9):
        raise InvalidArgument(message)


@dataclass(frozen=True, eq=False)
class SphereSample:
    """n points on the unit sphere S^{d-1}, one per row: the inputs of a
    dataset, or the k weight rows of a hidden layer, whose every closed form
    assumes them on the sphere. A sample equals and hashes as itself only."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidArgument("points must be a 2-d array")
        if pts.shape[1] < 2:
            raise InvalidArgument("dimension must be >= 2")
        check_unit_rows(pts, "every row must have unit norm")
        object.__setattr__(self, "points", pts)

    @classmethod
    def _trusted(cls, points: np.ndarray) -> "SphereSample":
        """A sample of float rows of unit norm in dimension >= 2, taken
        without the checks, for a caller that has just normalized them."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "points", points)
        return sample

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @cached_property
    def cosines(self) -> np.ndarray:
        """clip(P P^T, -1, 1), read-only and built on first use: the
        activation covariance, the Sobolev matrix and the NTK C matrix of
        one weight draw all start from it."""
        T = np.clip(self.points @ self.points.T, -1.0, 1.0)
        T.flags.writeable = False
        return T


def _check_draw(d: int, n: int, seed: int) -> None:
    if d < 2 or n < 1:
        raise InvalidArgument(f"a sphere sample needs d >= 2 and n >= 1, got d={d}, n={n}")
    if seed < 0:
        raise InvalidArgument(f"seeds must be >= 0, got {seed}")


def sphere_blocks(d: int, n: int, seed: int, out: np.ndarray | None = None):
    """The points of `sample_sphere(d, n, seed)` bit for bit, in blocks of
    BLOCK_ROWS rows (PCG64 fills an array in row-major order). Each block is
    drawn into its own rows of an (n, d) `out`, or by default into one
    (BLOCK_ROWS, d) buffer that the next block overwrites."""
    _check_draw(d, n, seed)
    rng = np.random.default_rng(seed)
    if out is None:
        out = np.empty((min(n, BLOCK_ROWS), d))
    for start in range(0, n, BLOCK_ROWS):
        # rows start: of an (n, d) out, the leading rows of the buffer
        block = out[start % len(out):][:min(BLOCK_ROWS, n - start)]
        rng.standard_normal(out=block)
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        yield block


def sample_sphere(d: int, n: int, seed: int) -> SphereSample:
    """n iid uniform points on S^{d-1}: normalized standard-Gaussian rows,
    deterministic given the seed (PCG64 stream)."""
    _check_draw(d, n, seed)
    points = np.empty((n, d))
    for _ in sphere_blocks(d, n, seed, points):
        pass
    return SphereSample._trusted(points)


def moment_cpq(p: int, q: int, d: int, s: float) -> float:
    """E[(x.u)^p (x.v)^q] for x uniform on S^{d-1} and unit u, v with u.v = s.

    Zero when p and q have opposite parity. Otherwise the closed-form sum

        p! q! Gamma(d/2) / (2^{p+q} Gamma((d+p+q)/2))
            * sum_t 2^t / (t! ((p-t)/2)! ((q-t)/2)!) s^t

    over 0 <= t <= min(p,q) of the same parity as p. Gamma ratios are done
    in log space so large d is safe.

    Note: a published table entry for the (2,2) case omits the constant
    term of this sum; the general formula is used here (Monte Carlo
    arbitrates, see README).
    """
    if p < 0 or q < 0:
        raise InvalidArgument("p and q must be nonnegative")
    if p + q > 12:
        raise InvalidArgument("p + q must be <= 12 (double-precision stability)")
    if d < 2:
        raise InvalidArgument("d must be >= 2")
    if not abs(s) <= 1 + 1e-12:
        raise InvalidArgument(f"|s| must be <= 1, got {s}")
    s = min(1.0, max(-1.0, s))
    if (p + q) % 2 == 1:
        return 0.0
    log_pref = (
        math.lgamma(p + 1)
        + math.lgamma(q + 1)
        + math.lgamma(d / 2)
        - (p + q) * math.log(2)
        - math.lgamma((d + p + q) / 2)
    )
    total = 0.0
    for t in range(p % 2, min(p, q) + 1, 2):
        log_term = (
            t * math.log(2)
            - math.lgamma(t + 1)
            - math.lgamma((p - t) // 2 + 1)
            - math.lgamma((q - t) // 2 + 1)
        )
        total += math.exp(log_pref + log_term) * s**t
    return total
