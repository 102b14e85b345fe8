"""The generic dataset: unit-sphere inputs with noisy-linear labels
y_i = w0.x_i + z_i, z_i ~ N(0, zeta^2). Bayes error is zeta^2."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument
from .sphere import SphereSample, sample_sphere


@dataclass(frozen=True, eq=False)
class Dataset:
    """Inputs X, signal vector w0 and one N(0, 1) noise draw g, labelled at
    noise level zeta: y = X w0 + zeta g. `replace(data, zeta=z)` labels the
    same draw at level z (common random numbers); each level keeps the law
    of a draw of its own. It equals and hashes as itself only."""

    X: SphereSample
    w0: np.ndarray
    noise: np.ndarray
    zeta: float
    seed: int

    @cached_property
    def y(self) -> np.ndarray:
        return self.X.points @ self.w0 + self.noise * self.zeta

    @property
    def n(self) -> int:
        return self.X.count

    @property
    def d(self) -> int:
        return self.X.dim


def gen_dataset(n: int, d: int, zeta: float, seed: int, zero_signal: bool = False) -> Dataset:
    """Draw X ~ tau_d^n, w0 uniform on the sphere (or 0 when zero_signal,
    the noise-only setup of the ridge analysis), g ~ N(0, 1)^n."""
    if not 0 <= zeta < math.inf:
        raise InvalidArgument(f"zeta must be finite and nonnegative, got {zeta}")
    X = sample_sphere(d, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    w0 = rng.standard_normal(d)
    w0 /= np.linalg.norm(w0)
    if zero_signal:
        w0 = np.zeros(d)
    return Dataset(X=X, w0=w0, noise=rng.standard_normal(n), zeta=float(zeta), seed=seed)
