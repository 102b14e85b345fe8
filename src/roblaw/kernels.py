"""The infinite-width RF and NTK kernels, finite RF/NTK feature maps, gram
matrices, and the gradient of a fitted model, each of an (m, d) batch of
points in rows.

Normalization convention: the infinite-width RF/NTK kernels use the
unnormalized arc-cosine-style profiles (1/pi scale), i.e. twice the
dimension-free activation profile.
"""

import math
from dataclasses import dataclass

import numpy as np

from .activations import (
    ORDER_ONE,
    ActivationKind,
    _profile,
    act_deriv,
    act_eval,
    clip_unit,
    sqrt_one_minus_square,
)
from .errors import InvalidArgument, UnsupportedActivation
from .sphere import SphereSample


def _clip_t(t):
    return clip_unit(t, "dot products must lie in [-1, 1]")


def _points(x, d: int) -> np.ndarray:
    """x, an (m, d) batch of points in rows, as a float array; every map,
    design and gradient factor reads its points through here. Raises
    InvalidArgument for any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise InvalidArgument(f"points must be an (m, {d}) batch, got shape {x.shape}")
    return x


KERNEL_NAMES = ("rf_infinite", "ntk_infinite")


@dataclass(frozen=True)
class DotProductKernel:
    """The width limit K(x, x') = profile(x.x') on the unit sphere of a
    two-layer network with an order-1 homogeneous activation: the random
    features kernel (name rf_infinite) or the neural tangent kernel
    (ntk_infinite)."""

    name: str
    activation: ActivationKind

    def __post_init__(self):
        if self.name not in KERNEL_NAMES:
            raise InvalidArgument(f"unknown kernel {self.name}; expected one of {KERNEL_NAMES}")
        if self.activation not in ORDER_ONE:
            raise UnsupportedActivation(
                f"{self.name} supports order-1 homogeneous activations only"
            )


def kernel_profile(kernel: DotProductKernel, t, out=None):
    """phi(t): 2 phi_value(t) for rf_infinite, 2 t phi_derivative(t) for
    ntk_infinite. Doubling is exact, so 2 (t phi) has the bits of (2 t) phi.
    `out`, a float array of t's shape other than t, receives it."""
    t = _clip_t(t)
    which = "value" if kernel.name == "rf_infinite" else "derivative"
    out = _profile(kernel.activation, which, t, out)
    out *= 2.0
    if kernel.name == "ntk_infinite":
        out *= t
    return out if out.ndim else float(out)


def kernel_profile_deriv(kernel: DotProductKernel, t, out=None):
    """Analytic phi'(t). For ntk_infinite with relu or abs it diverges at
    |t| = 1, where it returns a signed infinity. `out`, a float array of
    t's shape and possibly t itself, receives it."""
    t = _clip_t(t)
    activation = kernel.activation
    dphi0 = None
    if kernel.name == "ntk_infinite":
        # t * dphi0, with dphi0 the derivative of 2*phi_derivative, taken
        # before `out` is written
        if activation == ActivationKind.RELU:
            dphi0 = sqrt_one_minus_square(t)
            dphi0 *= 2 * math.pi
            with np.errstate(divide="ignore"):
                np.divide(2.0, dphi0, out=dphi0)
        elif activation == ActivationKind.ABS:
            dphi0 = sqrt_one_minus_square(t)
            with np.errstate(divide="ignore"):
                np.divide(2.0 * (2 / math.pi), dphi0, out=dphi0)
        else:
            dphi0 = np.zeros_like(t)
        dphi0 *= t
    # d/dt of 2*phi_value = 2*phi_derivative for order-1 profiles
    out = _profile(activation, "derivative", t, out)
    out *= 2.0
    if dphi0 is not None:
        out += dphi0
    return out if out.ndim else float(out)


#: elements of one row block of `kernel_matrix`; its scratch and the
#: profile's one temporary are each this size, within L2
PROFILE_BLOCK = 32768


def kernel_matrix(kernel: DotProductKernel, X, anchors: np.ndarray) -> np.ndarray:
    """K[i, j] = phi(x_i . a_j) for an (m, d) batch X and the (n, d)
    anchors, built in the array of the dot products T = X A^T: T is
    clipped to [-1, 1] in place and overwritten with `kernel_profile` a
    block of rows at a time. A row block of the C-ordered T is contiguous,
    so numpy runs the loops of one whole-matrix profile and the bits equal
    `kernel_profile(kernel, clip(X A^T))`."""
    T = _points(X, anchors.shape[1]) @ anchors.T
    np.clip(T, -1.0, 1.0, out=T)
    step = max(1, PROFILE_BLOCK // max(1, T.shape[1]))
    scratch = np.empty((min(step, len(T)), T.shape[1]))
    for start in range(0, len(T), step):
        block = T[start:start + step]
        block[...] = kernel_profile(kernel, block, scratch[:len(block)])
    return T


def gram_dot(kernel: DotProductKernel, X: SphereSample) -> np.ndarray:
    """G[i, j] = phi(x_i . x_j), exactly symmetric: X X^T is, and phi acts
    entrywise."""
    return kernel_matrix(kernel, X.points, X.points)


@dataclass(frozen=True)
class FeatureMap:
    """Finite-width embedding: frozen random features (output dim k) or
    NTK features sigma'(Wx) (x) x / sqrt(k) (output dim k*d)."""

    kind: str  # "frozen_rf" | "ntk"
    weights: SphereSample
    activation: ActivationKind = ActivationKind.RELU

    def __post_init__(self):
        if self.kind not in ("frozen_rf", "ntk"):
            raise InvalidArgument(f"unknown feature map kind {self.kind}")

    @property
    def out_dim(self) -> int:
        k, d = self.weights.count, self.weights.dim
        return k if self.kind == "frozen_rf" else k * d


def features(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The feature rows of an (m, d) batch X: sigma(X W^T) / sqrt(k) for a
    frozen_rf map, formed in the product's array, and
    sigma'(X W^T) (x) x / sqrt(k) for an ntk map, whose row i holds in
    block j the vector sigma'(x_i . w_j) x_i."""
    W = fmap.weights.points
    k, d = W.shape
    X = _points(X, d)
    T = X @ W.T
    if fmap.kind == "frozen_rf":
        Z = act_eval(fmap.activation, T, T)
    else:
        S = act_deriv(fmap.activation, T, T)
        Z = (S[:, :, None] * X[:, None, :]).reshape(len(X), k * d)
    Z /= math.sqrt(k)
    return Z


def empirical_gram(fmap: FeatureMap, X: SphereSample) -> np.ndarray:
    """G = Z Z^T with Z the NTK feature rows, exactly symmetric, by the
    Hadamard identity K_ntk = (X X^T) o ((1/k) S S^T), S = sigma'(X W^T),
    so the k*d-dim features are never materialized."""
    if fmap.kind != "ntk":
        raise InvalidArgument("empirical_gram requires an ntk map")
    if X.dim != fmap.weights.dim:
        raise InvalidArgument("sample dimension does not match weights")
    S = np.asarray(act_deriv(fmap.activation, X.points @ fmap.weights.points.T))
    return (X.points @ X.points.T) * (S @ S.T) / fmap.weights.count


def model_gradient(model, X: np.ndarray, factor=None, out=None) -> np.ndarray:
    """Euclidean gradients of a fitted model at an (m, d) batch X, in rows:
    `model.gradient`, which makes the `gradient_factor` of X unless the
    caller passes it as `factor`. `out`, an (m, d) float array, receives
    them."""
    return model.gradient(X, factor, out)
