"""Fitting in the representer subspace: ridge(less) kernel interpolation,
feature-space ridge, linear least squares, and the Marchenko-Pastur
reference limits for ridgeless regression.

Solver policy: every gram is PSD, so a ridge solve is a Cholesky
factorization with jitter escalation 0 -> 1e-12*lmax -> 1e-10*lmax (lmax
the largest |diagonal entry|), or a `SingularKernel` error when no rung
factors. A jittered solve is recorded in the fit meta for reproducibility
audits. The factorization and its solves run on one thread of scipy's
OpenBLAS, so their bits do not depend on that library's thread count.

A `RidgePath` holds what a fit does not owe to lambda: the PSD matrix its
solves factor (K(X,X), Z Z^T or X X^T for a dual solve, Z^T Z or X^T X for a
primal one), the right-hand sides and the map from a solution to a model,
so one gram serves every lambda, and one factor per lambda every label
vector, of one input draw. The path is the gram's only owner: spectra and
the RKHS norm read `path.gram`, and a fitted model holds no reference to
it. A lambda = 0 solve can hand the gram's Cholesky factor to its caller,
so the spectra of a wide gram need no factorization of their own.

Every model reads an (m, d) batch X of points in rows and predicts
through a design: `predict(X)` is `design(X) @ coef`, with `design(X)` the
lambda-free matrix of the inputs (X itself, the kernel at the anchors or
the features), so the models of one ridge path can share one design of a
point set. Gradients split the same way: `gradient(X, factor)` is
`factor @ gradient_operand`, the coefficient-free (m, k, n or 1)
`gradient_factor(X)`, which the models of one `factor_key` share, times a
small (k, n or 1, d) operand into which the model folds its coefficients,
for k hidden units, n anchors or a linear model's one weight vector.
`two_layer` is the (hidden weights, output weights, activation) of a
two-layer network, which only a frozen_rf feature model is; a model without
one gives its closed-form Sobolev seminorm as `seminorm`. `_Model` holds
the defaults, None and nan.
"""

import ctypes
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np
import scipy
import scipy.linalg

from .activations import act_deriv
from .data import Dataset
from .errors import InvalidArgument, SingularKernel
from .kernels import (
    DotProductKernel,
    FeatureMap,
    _points,
    empirical_gram,
    features,
    gram_dot,
    kernel_matrix,
    kernel_profile_deriv,
)
from .sphere import SphereSample, check_unit_rows


class _Model:
    """What every model class shares: `predict(X)`, `design(X) @ coef`,
    `gradient(X)`, `factor @ gradient_operand` (into `out` when given) with
    the `gradient_factor(X)` made here unless passed as `factor`, and the
    defaults of a model that is no two-layer network and has no closed-form
    seminorm. A model equals and hashes as itself only, as
    its `factor_key` assumes of its sample."""

    two_layer = None
    seminorm = math.nan

    def predict(self, X):
        return self.design(X) @ self.coef

    def gradient(self, X, factor=None, out=None) -> np.ndarray:
        if factor is None:
            factor = self.gradient_factor(X)
        return np.matmul(factor, self.gradient_operand, out=out)


@dataclass(frozen=True, eq=False)
class LinearModel(_Model):
    w: np.ndarray
    meta: dict = field(default_factory=dict)

    factor_key = None

    @property
    def coef(self) -> np.ndarray:
        return self.w

    @property
    def seminorm(self) -> float:
        """||w|| sqrt(1 - 1/d) for f(x) = w . x on the sphere."""
        return float(np.linalg.norm(self.w)) * math.sqrt(1.0 - 1.0 / self.w.shape[0])

    @property
    def gradient_operand(self) -> np.ndarray:
        return self.w[None, :]

    def design(self, X) -> np.ndarray:
        return _points(X, self.w.shape[0])

    def gradient_factor(self, X) -> np.ndarray:
        """Ones, (m, 1): the gradient of w . x is w at every point."""
        return np.ones((len(_points(X, self.w.shape[0])), 1))


@dataclass(frozen=True, eq=False)
class KernelModel(_Model):
    kernel: DotProductKernel
    anchors: SphereSample
    c: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def coef(self) -> np.ndarray:
        return self.c

    @property
    def factor_key(self):
        return self.kernel, id(self.anchors.points)

    @property
    def gradient_operand(self) -> np.ndarray:
        return self.c[:, None] * self.anchors.points

    def design(self, X) -> np.ndarray:
        """K(X, anchors) for an (m, d) batch X of unit points
        (InvalidArgument otherwise). At the anchors it is the fit's gram
        bit for bit: `gram_dot` builds it with the same `kernel_matrix`."""
        X = _points(X, self.anchors.dim)
        check_unit_rows(X, "kernel model points must have unit norm")
        return kernel_matrix(self.kernel, X, self.anchors.points)

    def gradient_factor(self, X) -> np.ndarray:
        """phi'(X A^T) at the anchors A for unit points X, (m, n), with t
        clamped to |t| <= 1 - 1e-9, where the NTK phi' of relu and abs is
        finite; formed in place."""
        X = _points(X, self.anchors.dim)
        check_unit_rows(X, "kernel model points must have unit norm")
        T = X @ self.anchors.points.T
        np.clip(T, -(1 - 1e-9), 1 - 1e-9, out=T)
        return np.asarray(kernel_profile_deriv(self.kernel, T, T))


@dataclass(frozen=True, eq=False)
class FeatureModel(_Model):
    """The two-layer network sum_j v_j sigma(w_j . x) is the frozen_rf
    model of a = sqrt(k) v."""

    map: FeatureMap
    a: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def coef(self) -> np.ndarray:
        return self.a

    @property
    def factor_key(self):
        return self.map.activation, id(self.map.weights.points)

    @property
    def two_layer(self):
        """Random features are the network of output weights a / sqrt(k)."""
        if self.map.kind != "frozen_rf":
            return None
        k = self.map.weights.count
        return self.map.weights, self.a / math.sqrt(k), self.map.activation

    @property
    def gradient_operand(self) -> np.ndarray:
        """(a / sqrt(k)) W for random features, a in k blocks of d over
        sqrt(k) for NTK features, whose Jacobian drops the distributional
        sigma'' term (a.e. correct for piecewise-linear sigma')."""
        W = self.map.weights.points
        k = W.shape[0]
        if self.map.kind == "frozen_rf":
            return (self.a / math.sqrt(k))[:, None] * W
        return self.a.reshape(k, -1) / math.sqrt(k)

    def design(self, X) -> np.ndarray:
        """The feature rows of an (m, d) batch X."""
        return features(self.map, X)

    def gradient_factor(self, X) -> np.ndarray:
        """sigma'(X W^T), formed in place."""
        T = _points(X, self.map.weights.dim) @ self.map.weights.points.T
        return act_deriv(self.map.activation, T, T)


def _scipy_blas_threads() -> tuple:
    """(get, set) for the thread count of the OpenBLAS that scipy bundles
    in its own package directory, found among the libraries mapped into
    this process. Raises LookupError when there is no such library (scipy
    then shares numpy's BLAS or uses another one) or it has no entry
    points for the count."""
    root = os.path.dirname(os.path.realpath(scipy.__file__))
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError as exc:
        raise LookupError(f"cannot list the loaded libraries: {exc}") from exc
    own = [p for p in paths if p.startswith((root + os.sep, root + ".libs" + os.sep))]
    for path in own:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    if own:
        raise LookupError(f"no thread-count entry points in {', '.join(own)}")
    raise LookupError(f"scipy loads no OpenBLAS of its own under {root}")


@cache
def _scipy_blas_setter() -> Callable:
    """The thread-count setter of scipy's own OpenBLAS, looked up once. When
    the lookup fails, the reason is warned once and the setter does nothing:
    solves then run on scipy's default threads."""
    try:
        return _scipy_blas_threads()[1]
    except LookupError as exc:
        warnings.warn(f"ridge solves run on scipy's default BLAS threads: {exc}",
                      RuntimeWarning, stacklevel=3)
        return lambda count: None


def _one_scipy_thread() -> None:
    """Sets scipy's OpenBLAS to one thread for the scipy calls that follow,
    and leaves it there; numpy's OpenBLAS keeps its threads.

    numpy and scipy wheels each bundle an OpenBLAS with its own thread
    pool. On a small machine a factorization run on scipy's pool competes
    with numpy's still-spinning threads and takes over ten times as long
    as on one thread, and its bits depend on the count. The count belongs
    to the process. Every roblaw use of scipy's BLAS (a factorization, the
    solves with it that follow, Lanczos) sets it first, so none restores it."""
    _scipy_blas_setter()(1)


def cholesky(M: np.ndarray, overwrite_a: bool = False):
    """The lower Cholesky factor of a finite symmetric M, as
    `scipy.linalg.cho_factor` gives it, made on one thread of scipy's BLAS.
    Raises LinAlgError when M is not numerically positive definite. Every
    factor of a gram goes through here, so one matrix has one factor's
    bits whoever makes it. With `overwrite_a` the factor overwrites a
    C-ordered M: LAPACK reads its F-ordered transpose, equal to M, in place
    of the transposing copy that `cho_factor` would make of the same bytes."""
    _one_scipy_thread()
    if overwrite_a:
        return scipy.linalg.cho_factor(M.T, lower=True, overwrite_a=True,
                                       check_finite=False)
    return scipy.linalg.cho_factor(M, lower=True, check_finite=False)


def _each_row(f, y: np.ndarray) -> np.ndarray:
    """f of each vector of y, one vector or a stack of them in rows, stacked
    as y is. One call per vector: a product or solve of several columns at
    once may round differently from the same work on each vector."""
    out = np.stack([f(v) for v in np.reshape(y, (-1, np.shape(y)[-1]))])
    return out.reshape(np.shape(y)[:-1] + out.shape[1:])


def _numbers(a) -> np.ndarray:
    """a, an array of numbers or nested lists of them, as a float array."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:  # a ragged or non-numeric list
        raise InvalidArgument(f"K and y must be arrays of numbers: {exc}") from exc


def solve_psd(K: np.ndarray, y: np.ndarray, lam: float,
              on_factor: Callable | None = None, *,
              gram_checked: bool = False) -> tuple[np.ndarray, dict]:
    """Solve (K + lam*I) c = y for exactly symmetric PSD K (K == K.T bit
    for bit, as every path builder makes its gram) by Cholesky, with the
    jitter j*lmax added to the diagonal for j = 0, 1e-12, 1e-10 in turn
    until one factors. Raises `SingularKernel` when no rung factors, or
    before any attempt when lam and lmax, the largest |diagonal entry| of K,
    are both 0 (the one PSD K with a zero diagonal is K = 0). y is one right-hand
    side or a stack of them in rows; c is stacked as y is, and each row
    has the bits of its own solve with the one factor of K + lam*I.
    Returns (c, {"jitter", "fallback"}). K and y, arrays of numbers or
    nested lists of them, are checked here, K square and at least 1 x 1 and
    y at least one vector of its side, both finite and lam finite and
    nonnegative, so scipy does not check them again; a caller that has
    checked K finite, as a `RidgePath` does once for all its lambdas, passes
    `gram_checked`. Each attempt copies K into one buffer, adds lam and
    then the jitter to its diagonal and factors it in place: a solve holds
    one array besides K.

    When lam is 0 and K itself factors, `on_factor(factor)` is called with
    its `cholesky` factor before the solve returns: a caller can reuse the
    factor without holding it past the call."""
    if not 0 <= lam < math.inf:
        raise InvalidArgument(f"lambda must be finite and nonnegative, got {lam}")
    K, y = _numbers(K), _numbers(y)
    if (K.ndim != 2 or K.shape[0] != K.shape[1] or y.shape[-1:] != K.shape[:1]
            or not K.size or not y.size):
        raise InvalidArgument(f"K {K.shape} is not square or y {y.shape} does not fit it,"
                              " or one is empty")
    if (not gram_checked and not np.all(np.isfinite(K))) or not np.all(np.isfinite(y)):
        raise InvalidArgument("non-finite entries in solve")
    lmax = float(np.max(np.abs(np.diag(K))))
    if lmax <= 0 and lam == 0:
        raise SingularKernel("kernel matrix has a zero diagonal")
    n = K.shape[0]
    M = np.empty((n, n))  # C-ordered, so its diagonal is a strided view
    diag = M.reshape(-1)[::n + 1]
    for jitter in (0.0, 1e-12 * lmax, 1e-10 * lmax):
        np.copyto(M, K)  # a failed attempt leaves M half factored
        if lam > 0:
            diag += lam
        diag += jitter
        # K is finite, so only the shifted diagonal can overflow
        if not np.all(np.isfinite(diag)):
            raise InvalidArgument("K + lambda I overflows")
        try:
            cf = cholesky(M, overwrite_a=True)
            c = _each_row(lambda b: scipy.linalg.cho_solve(cf, b, check_finite=False), y)
        except np.linalg.LinAlgError:  # scipy.linalg raises this same class
            continue
        if on_factor is not None and lam == 0 and not jitter:
            on_factor(cf)
        return c, {"jitter": jitter, "fallback": jitter > 0}
    raise SingularKernel(f"K + lambda I does not factor, last jitter tried {jitter:.3g}")


@dataclass(frozen=True, eq=False)
class RidgePath:
    """The part of a ridge fit that does not depend on lambda: the PSD
    matrix every solve factors, the right-hand side (one, or the label
    vectors of one input draw stacked in rows) and the map from a solution
    to a model. `fit(lam)` costs one `solve_psd`, one factorization for
    every right-hand side, and returns a model, or a list of one per row of
    a stacked rhs. The fits over many lambdas share the gram, checked finite
    once; the models hold no reference to it, so dropping the path releases
    it. `on_factor` goes to `solve_psd`: a lambda = 0 fit hands it the
    gram's Cholesky factor. `solve_psd` checks every argument."""

    gram: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    #: (solution, meta) -> fitted model
    make_model: Callable = field(repr=False)

    @cached_property
    def _gram_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.gram)))

    def fit(self, lam: float, on_factor: Callable | None = None):
        x, meta = solve_psd(self.gram, self.rhs, lam, on_factor,
                            gram_checked=self._gram_finite)
        models = [self.make_model(c, dict(meta, **{"lambda": lam}))
                  for c in np.reshape(x, (-1, x.shape[-1]))]
        return models if x.ndim > 1 else models[0]


def kernel_path(kernel: DotProductKernel, X: SphereSample, y: np.ndarray) -> RidgePath:
    """Ridge(less) fits in the representer subspace of inputs X, for labels
    y (a vector or a stack of them in rows): c = (K(X,X) + lam I)^-1 y."""
    return RidgePath(gram_dot(kernel, X), y,
                     lambda c, meta: KernelModel(kernel=kernel, anchors=X, c=c, meta=meta))


def _ridge_path(Z: np.ndarray, y: np.ndarray, model: Callable) -> RidgePath:
    """Ridge on the rows of Z: dual (Z Z^T, coef Z^T c) when Z has no more
    rows than columns, else primal (Z^T Z); `model(coef, meta)`. Raises
    InvalidArgument unless y is numbers with Z's rows on its last axis."""
    if Z.shape[0] <= Z.shape[1]:
        return RidgePath(Z @ Z.T, y, lambda c, meta: model(Z.T @ c, meta))
    y = _numbers(y)
    if y.shape[-1:] != Z.shape[:1] or not y.size:
        raise InvalidArgument(f"y {y.shape} is empty or does not fit the {Z.shape[0]} rows of Z")
    return RidgePath(Z.T @ Z, _each_row(lambda v: Z.T @ v, y), model)


def feature_path(fmap: FeatureMap, X: SphereSample, y: np.ndarray) -> RidgePath:
    """Feature-space ridge on inputs X for labels y (a vector or a stack of
    them in rows). Dual solve when n <= feature dim (NTK feature vectors
    are recovered blockwise, never materialized), else primal normal
    equations."""
    if X.dim != fmap.weights.dim:
        raise InvalidArgument("sample dimension does not match weights")

    def model(a, meta):
        return FeatureModel(map=fmap, a=a, meta=meta)

    P = X.points
    if fmap.kind == "ntk" and X.count <= fmap.out_dim:
        W = fmap.weights.points
        # sigma'(X W^T) of the training set, for the recovery of a
        S = np.asarray(act_deriv(fmap.activation, P @ W.T))

        def recover(alpha, meta):
            a = ((S * alpha[:, None]).T @ P / math.sqrt(W.shape[0])).reshape(-1)
            return model(a, meta)

        return RidgePath(empirical_gram(fmap, X), y, recover)
    return _ridge_path(features(fmap, P), y, model)


def linear_path(X: SphereSample, y: np.ndarray) -> RidgePath:
    """Linear ridge / least squares for any n, d (dual when n <= d)."""
    return _ridge_path(X.points, y, lambda w, meta: LinearModel(w=w, meta=meta))


def train_mse(model, data: Dataset, design=None) -> float:
    """Mean squared residual of `model` on `data`. `design` is
    `model.design(data.X.points)` when the caller has it already."""
    if design is None:
        design = model.design(data.X.points)
    r = design @ model.coef - data.y
    return float(np.mean(r * r))


def test_mse(model, test: Dataset, design=None) -> float:
    return train_mse(model, test, design)


def rkhs_norm(model: KernelModel, K: np.ndarray) -> float:
    """sqrt(c^T K c), with K the gram of the model's anchors, such as the
    fit's `path.gram`."""
    q = float(model.c @ K @ model.c)
    return math.sqrt(max(q, 0.0))


def ridgeless_norm_limit(gamma: float) -> float:
    """Asymptotic |w_hat|^2 / (n ^ d) of the ridgeless regressor: 1/|1-gamma|.
    Diverges at the interpolation threshold gamma = 1."""
    if gamma <= 0:
        raise InvalidArgument("gamma must be positive")
    if gamma == 1:
        return math.inf
    return 1.0 / abs(1.0 - gamma)
