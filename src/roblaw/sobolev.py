"""Tangential-gradient (Sobolev) seminorm of fitted models: the closed form
where a model has one, a Monte-Carlo estimator for every model, the
Poincare lower bound, and the path-norm proxy."""

import math
from dataclasses import dataclass

import numpy as np

from .activations import ORDER_ONE, ActivationKind
from .errors import InvalidArgument, NumericFailure, ResourceLimit
from .kernels import model_gradient
from .sphere import BLOCK_ROWS, sphere_blocks
from .spectral import _MAX_COV_ELEMENTS, c_sigma_sobolev

#: fewest sphere samples a Monte-Carlo seminorm takes
MIN_MC_SAMPLES = 100


def check_mc_sample(m: int, d: int) -> None:
    """Raises ResourceLimit when an m x d sphere sample is over the work
    limit of the Monte-Carlo estimators here."""
    if m * d > _MAX_COV_ELEMENTS:
        raise ResourceLimit(f"sphere sample {m} x {d} too large")


@dataclass(frozen=True)
class SobolevEstimate:
    value: float
    std_error: float


def sobolev_analytic(models) -> list[float]:
    """The closed-form seminorm of each model, nan where it has none. A
    two-layer network (its `two_layer` view W, v, sigma) with an order-1
    positively homogeneous sigma gets sqrt(v^T C v), with C the kappa-tilde
    matrix of W, built once per `factor_key` as the models of one hidden
    layer share it; any other model gives its own `seminorm`."""
    out, matrices = [], {}
    for model in models:
        view = model.two_layer
        if view is None:
            out.append(model.seminorm)
            continue
        W, v, kind = view
        if ActivationKind(kind) not in ORDER_ONE:
            out.append(math.nan)
            continue
        if model.factor_key not in matrices:
            matrices[model.factor_key] = c_sigma_sobolev(W, kind)
        q = float(v @ matrices[model.factor_key] @ v)
        if q < -1e-10:
            raise NumericFailure(f"negative quadratic form {q:.3g}")
        out.append(math.sqrt(max(q, 0.0)))
    return out


def sobolev_monte_carlo(models, d: int, m: int, seed: int) -> list[SobolevEstimate]:
    """Mean squared tangential gradient norm of each model over one draw of
    m sphere samples, reported as a square root with the delta-method
    standard error.

    The sample is drawn in blocks of BLOCK_ROWS rows into one buffer. Each
    block computes the coefficient-free gradient factor once for every group
    of models that shares a hidden layer, or a kernel and anchor set, as the
    models of one (X, W) group do; a model's gradient is then one product of
    that factor with a small operand into which the model folds its
    coefficients, written into one gradient buffer that every model of every
    block reuses. Memory: the drawn block, the block's factors (block x k
    or n for k hidden units or n anchors, one per `factor_key`), the
    gradient buffer and an (L, m) array of squared norms for L models, plus,
    for one model at a time, its (k or n) x d operand and the block x d
    radial part of its gradients, and for an ntk_infinite factor one
    block x n term; the m * d limit bounds the draw's work."""
    if m < MIN_MC_SAMPLES:
        raise InvalidArgument(f"m must be >= {MIN_MC_SAMPLES}")
    check_mc_sample(m, d)
    sq = np.empty((len(models), m))
    # a fresh gradient per model, not one reused G, slowed rf_finite paths
    G = np.empty((min(m, BLOCK_ROWS), d))
    for start, Xb in zip(range(0, m, BLOCK_ROWS), sphere_blocks(d, m, seed)):
        Gb = G[:len(Xb)]
        factors = {}
        for row, model in zip(sq, models):
            key = model.factor_key
            if key not in factors:
                factors[key] = model.gradient_factor(Xb)
            model_gradient(model, Xb, factors[key], Gb)
            # |G - (G.x) x|^2 per row: the projection keeps the accuracy of a
            # nearly radial gradient, where |G|^2 - (G.x)^2 would cancel
            Gb -= np.einsum("ij,ij->i", Gb, Xb)[:, None] * Xb
            np.einsum("ij,ij->i", Gb, Gb, out=row[start:start + len(Xb)])
    return [_mc_estimate(row) for row in sq]


def _mc_estimate(sq: np.ndarray) -> SobolevEstimate:
    m = sq.shape[0]
    mean = float(np.mean(sq))
    se_sq = float(np.std(sq, ddof=1) / math.sqrt(m))
    value = math.sqrt(max(mean, 0.0))
    se = se_sq / (2 * value) if value > 0 else se_sq
    return SobolevEstimate(value=value, std_error=se)


def poincare_lower_bound(model, d: int, m: int, seed: int) -> float:
    """(d-1) Var f, the spherical-Poincare lower bound on S(f)^2, over the
    m-point sample of `sample_sphere(d, m, seed)`. The sample is drawn and
    predicted in blocks of BLOCK_ROWS rows, so besides the m-vector of
    values it holds one block and its design; the m * d limit bounds the
    draw's work."""
    if m < 10**3:
        raise InvalidArgument("m must be >= 1000")
    check_mc_sample(m, d)
    fvals = np.empty(m)
    for start, Xb in zip(range(0, m, BLOCK_ROWS), sphere_blocks(d, m, seed)):
        fvals[start:start + len(Xb)] = model.predict(Xb)
    return (d - 1) * float(np.var(fvals))


def eta_proxy(model) -> float:
    """sum_j |v_j| ||w_j||, the path-norm upper-bound proxy of a two-layer
    view; nan for a model without one."""
    view = model.two_layer
    if view is None:
        return math.nan
    W, v, _ = view
    return float(np.sum(np.abs(v) * np.linalg.norm(W.points, axis=1)))

