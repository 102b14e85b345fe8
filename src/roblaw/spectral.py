"""Spectra of gram matrices and of the feature-covariance random
matrices, their linearized (constant + linear + diagonal) surrogates, and
the Marchenko-Pastur density and its ridge integrals."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .activations import ActivationKind, integrate, kappa_tilde, phi_profile
from .errors import InvalidArgument, ResourceLimit
from .fit import _one_scipy_thread, cholesky
from .kernels import FeatureMap, features
from .sphere import SphereSample, sample_sphere

_MAX_COV_ELEMENTS = 2 * 10**8

#: grams of a larger side take their extremes from Lanczos, smaller ones
#: from `eigvalsh`: on ntk-width's side-1020 gram 0.07-0.09 s against 0.08-0.09 s
#: by Lanczos from the lambda = 0 factor, on its side-2000 gram 0.52-0.65 s
#: against 0.14-0.22 s (71 products, 21 solves; 2 CPUs, OpenBLAS 0.3.31)
DENSE_MAX_SIDE = 1024
#: seeds the Lanczos start vector and ARPACK's restart vectors; an eigsh
#: without `rng` (scipy < 1.17) raises TypeError rather than draw them from
#: OS entropy
_LANCZOS_SEED = 0


@dataclass(frozen=True)
class SpectrumSummary:
    """The extreme eigenvalues and the condition number of a symmetric
    matrix."""

    lambda_min: float
    lambda_max: float

    @property
    def cond(self) -> float:
        return self.lambda_max / self.lambda_min if self.lambda_min > 0 else math.inf


def sym_eigs(A: np.ndarray) -> SpectrumSummary:
    """`SpectrumSummary` of an exactly symmetric matrix (A == A^T bit for
    bit, as every gram and C matrix is) from its full spectrum by
    `eigvalsh`; InvalidArgument for any other A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise InvalidArgument(f"A must be square and at least 1 x 1, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidArgument("non-finite entries")
    if not np.array_equal(A, A.T):
        raise InvalidArgument("matrix is not exactly symmetric")
    evals = np.linalg.eigvalsh(A)
    return SpectrumSummary(lambda_min=float(evals[0]), lambda_max=float(evals[-1]))


def gram_spectrum(G: np.ndarray, factor=None) -> SpectrumSummary:
    """The extreme eigenvalues of an exactly symmetric PSD gram G, as a
    ridge path builds it. `factor` is G's `fit.cholesky` factor when the
    caller has it already.

    A gram of side at most DENSE_MAX_SIDE goes to `sym_eigs`. A wider one
    takes lambda_max from Lanczos (`eigsh`) on G and lambda_min as
    1/lambda_max(G^-1), from Lanczos on solves with the Cholesky factor of
    G. Both agree with `eigvalsh` within its own error bound, a small
    multiple of side * eps * lambda_max (Weyl). The start and restart
    vectors come from a fixed seed, so equal grams give equal bits. A gram
    whose Cholesky fails (lambda_min <= 0 in rounding) or whose Lanczos
    does not converge goes to `sym_eigs` instead. A kernel gram's bottom
    eigenvalues cluster, so a sweep sends it to `sym_eigs` at any side
    (rf_infinite, n = 1100, d = 500: 0.09 s, against 0.58 s by Lanczos)."""
    n = G.shape[0]
    if n <= DENSE_MAX_SIDE:
        return sym_eigs(G)
    if factor is None:
        try:
            factor = cholesky(G)
        except np.linalg.LinAlgError:
            return sym_eigs(G)
    inverse = LinearOperator((n, n), dtype=float,
                             matvec=lambda x: cho_solve(factor, x, check_finite=False))
    _one_scipy_thread()  # a factor handed in may predate the caller's count
    try:
        lmax = _top_eigenvalue(G)
        lmin = 1.0 / _top_eigenvalue(inverse)
    except ArpackError:  # ArpackNoConvergence among them
        return sym_eigs(G)
    return SpectrumSummary(lambda_min=lmin, lambda_max=lmax)


def _top_eigenvalue(A) -> float:
    """The largest eigenvalue of a symmetric matrix or operator A, by
    implicitly restarted Lanczos from fixed start and restart vectors."""
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 = rng.uniform(-1.0, 1.0, A.shape[0])
    [top] = eigsh(A, k=1, which="LA", v0=v0, rng=rng, return_eigenvectors=False)
    return float(top)


def op_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Spectral-norm distance between exactly symmetric matrices."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise InvalidArgument("shape mismatch")
    s = sym_eigs(A - B)
    return max(abs(s.lambda_min), abs(s.lambda_max))


def c_sigma_sobolev(W: SphereSample, kind: ActivationKind) -> np.ndarray:
    """The Sobolev quadratic-form matrix: entries are the kappa-tilde
    profile evaluated at w_j . w_l (finite-d correction included). Exactly
    symmetric, as W W^T is."""
    return np.asarray(kappa_tilde(kind, W.dim, W.cosines))


def c_sigma_cov(W: SphereSample, kind: ActivationKind) -> np.ndarray:
    """Covariance of sqrt(d) sigma(Wx) for x ~ tau_d, to O(1/d^2):
    entries phi(w_j . w_l) - phi(0), exactly symmetric as W W^T is."""
    return np.asarray(phi_profile(kind, "value", W.cosines)) - phi_profile(kind, "value", 0.0)


def c_phi_monte_carlo(fmap: FeatureMap, m: int, seed: int) -> np.ndarray:
    """Empirical covariance of sqrt(d) Phi(x) over m iid sphere samples:
    the sample mean is subtracted and the sum of outer products is divided
    by m. Rows and columns follow `features`, so for an NTK map entry
    j*d + i is coordinate i of block j, sigma'(w_j . x) x_i / sqrt(k)."""
    if m < 10**3:
        raise InvalidArgument("m must be >= 1000")
    d = fmap.weights.dim
    if fmap.out_dim * m > _MAX_COV_ELEMENTS:
        raise ResourceLimit(f"feature matrix {m} x {fmap.out_dim} too large")
    X = sample_sphere(d, m, seed)
    F = features(fmap, X.points) * math.sqrt(d)
    F -= F.mean(axis=0)
    return F.T @ F / m  # exactly symmetric: numpy forms F^T F by syrk


@dataclass(frozen=True)
class LinearizationCoeffs:
    """Coefficients of the constant + linear + diagonal surrogate of a
    dot-product kernel random matrix, plus the rank-one phi''(0)/(2d)
    adjustment."""

    beta1_const: float
    beta2_lin: float
    beta3_diag: float
    correction: float = 0.0


def linearized_c(W: SphereSample, coeffs: LinearizationCoeffs) -> np.ndarray:
    k = W.count
    ones = np.ones((k, k))
    return (
        (coeffs.beta1_const + coeffs.correction) * ones
        + coeffs.beta2_lin * (W.points @ W.points.T)
        + coeffs.beta3_diag * np.eye(k)
    )


def relu_cov_linearization(d: int) -> LinearizationCoeffs:
    """Linearization of the centered ReLU covariance phi(t) - phi(0):
    constant 0, linear phi'(0) = 1/4, diagonal
    phi(1) - phi(0) - phi'(0) = (pi-2)/(4pi), correction phi''(0)/(2d)."""
    return LinearizationCoeffs(
        beta1_const=0.0,
        beta2_lin=0.25,
        beta3_diag=(math.pi - 2) / (4 * math.pi),
        correction=1.0 / (2 * math.pi) / (2 * d),
    )


# ---------------------------------------------------------------------------
# Marchenko-Pastur law
# ---------------------------------------------------------------------------


def mp_edges(gamma: float) -> tuple[float, float]:
    if gamma <= 0:
        raise InvalidArgument("gamma must be positive")
    return (1 - math.sqrt(gamma)) ** 2, (1 + math.sqrt(gamma)) ** 2


def mp_atom(gamma: float) -> float:
    """Point mass at zero: (1 - 1/gamma)_+, also the asymptotic training MSE
    of the ridgeless regressor."""
    if gamma <= 0:
        raise InvalidArgument("gamma must be positive")
    return max(0.0, 1.0 - 1.0 / gamma)


def _mp_substitution(gamma: float, theta: np.ndarray) -> tuple:
    """(t, w) at theta in [0, pi]: t = lo + (hi - lo) sin^2(theta/2) and w
    the MP density at t times dt/dtheta. The substitution turns the
    square-root edges of the density into the smooth
    w = (r sin theta)^2 / (2 pi gamma t), r = (hi - lo)/2."""
    lo, hi = mp_edges(gamma)
    t = lo + (hi - lo) * np.sin(theta / 2) ** 2
    return t, ((hi - lo) / 2 * np.sin(theta)) ** 2 / (2 * math.pi * gamma * t)


def mp_cdf(gamma: float, t) -> np.ndarray | float:
    """CDF of the MP law including the atom at zero, a float for a scalar
    t and an array of t's shape otherwise; NaN entries stay NaN. The
    continuous mass below t is `integrate` over theta in [0, theta(t)] of
    the substituted density."""
    lo, hi = mp_edges(gamma)
    atom = mp_atom(gamma)
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, math.nan)
    out[t < 0] = 0.0
    out[(t >= 0) & (t <= lo)] = atom
    out[t >= hi] = 1.0
    inside = (t > lo) & (t < hi)
    upper = 2 * np.arcsin(np.sqrt((t[inside] - lo) / (hi - lo)))
    out[inside] = atom + integrate(lambda theta: _mp_substitution(gamma, theta)[1], 0.0, upper)
    return out if out.ndim else float(out)


def mp_integral(gamma: float, nlambda: float, which: str) -> float:
    """Integrals of the ridge resolvents against the MP law, by `integrate`
    over theta in [0, pi] of the substituted density (atom handled
    analytically):

      norm: int t/(t + nl)^2 dmu   (1/t at nl = 0; +inf if the atom is
            weighted by an unbounded integrand)
      mse:  1 - 2 int t/(t + nl) dmu + int t^2/(t + nl)^2 dmu, computed
            as atom + int (nl/(t + nl))^2 dmu over the continuous part,
            which cancels no digits when nl is small
    """
    if gamma <= 0:
        raise InvalidArgument("gamma must be positive")
    if nlambda < 0:
        raise InvalidArgument("nlambda must be nonnegative")
    lo, _ = mp_edges(gamma)
    atom = mp_atom(gamma)

    def against_mp(f):
        def g(theta):
            t, w = _mp_substitution(gamma, theta)
            return f(t) * w
        return float(integrate(g, 0.0, math.pi))

    if which == "norm":
        if nlambda == 0:
            if atom > 0:
                return math.inf  # atom weighted by 1/t
            if lo <= 0:
                return math.inf  # gamma = 1 edge at zero
            return against_mp(lambda t: 1.0 / t)
        return against_mp(lambda t: t / (t + nlambda) ** 2)
    if which == "mse":
        return atom + against_mp(lambda t: (nlambda / (t + nlambda)) ** 2)
    raise InvalidArgument(f"unknown integral kind {which}")
