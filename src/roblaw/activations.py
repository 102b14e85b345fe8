"""Activation catalog: values, a.e. derivatives, Gaussian curvature
coefficients, and the scalar kernel profiles they induce on the sphere;
the panel Gauss-Legendre rule that their reference integrals (and the
Marchenko-Pastur integrals of `spectral`) are computed with.

Conventions pinned here:
  * erf activation is sigma(t) = erf(t / sqrt(2)).
  * kink derivative sigma'(0) = 0 for ReLU and abs (measure-zero set).
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from .errors import InvalidArgument, NumericFailure, UnsupportedActivation


class ActivationKind(str, Enum):
    RELU = "relu"
    ABS = "abs"
    ERF = "erf"
    TANH = "tanh"
    IDENTITY = "identity"


#: the positively homogeneous kinds of order 1, the only ones with a
#: dimension-free profile
ORDER_ONE = frozenset({ActivationKind.RELU, ActivationKind.ABS, ActivationKind.IDENTITY})


def act_eval(kind: ActivationKind, t, out=None):
    """sigma(t), into `out` when given: a float array of t's shape, possibly t."""
    t = np.asarray(t, dtype=float)
    if kind == ActivationKind.RELU:
        return np.maximum(t, 0.0, out=out)
    if kind == ActivationKind.ABS:
        return np.abs(t, out=out)
    if kind == ActivationKind.ERF:
        return erf(np.divide(t, math.sqrt(2), out=out), out=out)
    if kind == ActivationKind.TANH:
        return np.tanh(t, out=out)
    if kind == ActivationKind.IDENTITY:
        return np.add(t, 0.0, out=out)
    raise UnsupportedActivation(str(kind))


def act_deriv(kind: ActivationKind, t, out=None):
    """Almost-everywhere derivative; returns 0 at the ReLU/abs kink. `out`,
    a float array of t's shape and possibly t itself, receives it."""
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty_like(t)
    if kind == ActivationKind.RELU:
        np.greater(t, 0.0, out=out)
    elif kind == ActivationKind.ABS:
        np.sign(t, out=out)
    elif kind == ActivationKind.ERF:
        # sqrt(2/pi) exp(-t^2 / 2); negating and halving are exact
        np.multiply(t, t, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= math.sqrt(2 / math.pi)
    elif kind == ActivationKind.TANH:
        np.tanh(t, out=out)
        np.multiply(out, out, out=out)
        np.subtract(1.0, out, out=out)
    elif kind == ActivationKind.IDENTITY:
        out[...] = 1.0
    else:
        raise UnsupportedActivation(str(kind))
    return out if out.ndim else out[()]


#: orders of the Gauss-Legendre rule: a panel's integral is the higher
#: order's, and the two must agree for the panel to be accepted
GAUSS_ORDERS = (24, 48)
#: relative tolerance of that agreement, see `integrate`
GAUSS_RTOL = 1e-14
#: panels one integral may be bisected into before NumericFailure
GAUSS_MAX_PANELS = 1000


def _legendre(order: int, x: np.ndarray) -> tuple:
    """(P_order(x), P_order'(x)) by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(2, order + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return p, order * (x * p - prev) / (x * x - 1)


@functools.cache
def _gauss_rule(order: int) -> tuple:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]:
    numpy's `leggauss` nodes after one more Newton step on the recurrence,
    and the weights 2 / ((1 - x^2) P'(x)^2). Its moments are then within a
    few ulp; `leggauss`'s own are up to 30 ulp off at order 40."""
    x, _ = leggauss(order)
    p, dp = _legendre(order, x)
    x = x - p / dp
    _, dp = _legendre(order, x)
    return x, 2 / ((1 - x * x) * dp * dp)


def integrate(f: Callable, a, b) -> np.ndarray:
    """The integrals of f over [a_j, b_j], for a and b of one shape, by the
    Gauss-Legendre rule of both GAUSS_ORDERS on each panel. f must be smooth
    on every [a_j, b_j]; it receives a float array of nodes and returns its
    values there, of the same shape. A panel whose two orders differ by more
    than GAUSS_RTOL times its own integral of |f| plus its width's share of
    the whole interval's is bisected, and the halves are checked again, so
    the error estimates of a result add up to at most 2 GAUSS_RTOL times the
    integral of |f| over its interval. An interval that needs more than
    GAUSS_MAX_PANELS panels raises NumericFailure."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lo, hi = a.ravel(), b.ravel()
    owner = np.arange(lo.size)
    share = np.ones(lo.size)  # each panel's width over its interval's
    total = np.zeros(lo.size)
    panels = np.ones(lo.size, dtype=int)
    (xc, wc), (xf, wf) = (_gauss_rule(n) for n in GAUSS_ORDERS)
    scale = None  # the integral of |f| over each interval
    while owner.size:
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        coarse = half * (f(mid[:, None] + half[:, None] * xc) @ wc)
        vals = f(mid[:, None] + half[:, None] * xf)
        fine = half * (vals @ wf)
        size = np.abs(half) * (np.abs(vals) @ wf)
        if scale is None:
            scale = size
        ok = np.abs(fine - coarse) <= GAUSS_RTOL * (size + share * scale[owner])
        np.add.at(total, owner[ok], fine[ok])
        bad = ~ok
        owner, lo, mid, hi, share = owner[bad], lo[bad], mid[bad], hi[bad], share[bad] / 2
        panels += np.bincount(owner, minlength=panels.size)
        if owner.size and panels.max() > GAUSS_MAX_PANELS:
            raise NumericFailure(
                f"Gauss-Legendre quadrature did not converge in {GAUSS_MAX_PANELS} panels")
        owner, share = np.tile(owner, 2), np.tile(share, 2)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return total.reshape(a.shape)


@dataclass(frozen=True)
class CurvatureCoeffs:
    """Gaussian moments of an activation: beta0 = E[s(z)]^2,
    beta1 = E[z s(z)]^2, beta_star = E[s(z)^2] - beta0 - beta1."""

    beta0: float
    beta1: float
    beta_star: float


def curvature_coeffs(kind: ActivationKind) -> CurvatureCoeffs:
    """Curvature coefficients by `integrate` against N(0,1) on [-12, 0] and
    [0, 12]: split at zero, so kinked activations are smooth on each panel."""

    def gauss_mean(f):
        pdf = lambda z: np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        return math.fsum(integrate(lambda z: f(z) * pdf(z), (-12.0, 0.0), (0.0, 12.0)))

    s = lambda z: act_eval(kind, z)
    m0 = gauss_mean(s)
    m1 = gauss_mean(lambda z: z * s(z))
    m2 = gauss_mean(lambda z: s(z) ** 2)
    beta0 = m0 * m0
    beta1 = m1 * m1
    return CurvatureCoeffs(beta0, beta1, m2 - beta0 - beta1)


def _log_cdp(d: int, p: float) -> float:
    # C_{d,p} = 2^{p/2-1} d Gamma((d+p)/2) / Gamma((d+2)/2)
    return (
        (p / 2 - 1) * math.log(2)
        + math.log(d)
        + math.lgamma((d + p) / 2)
        - math.lgamma((d + 2) / 2)
    )


def catalan_integral(h: Callable, t: float) -> float:
    """phi_h(t) = (1/2pi) int_0^{2pi} h(cos u) h(cos(u - arccos t)) du.

    `integrate` on the panels between the zeros of both cosine arguments:
    a positively homogeneous h can only be non-smooth where its argument
    vanishes, so the integrand is smooth on every panel and kinked
    activations converge at machine precision. h receives float arrays of
    cosines and must return its values there, elementwise.
    """
    if not abs(t) <= 1 + 1e-12:
        raise InvalidArgument(f"|t| must be <= 1, got {t}")
    theta = math.acos(min(1.0, max(-1.0, t)))
    two_pi = 2 * math.pi
    breaks = sorted(
        {0.0, two_pi}
        | {b % two_pi for b in (math.pi / 2, 3 * math.pi / 2,
                                theta + math.pi / 2, theta + 3 * math.pi / 2)}
    )
    f = lambda u: h(np.cos(u)) * h(np.cos(u - theta))
    return math.fsum(integrate(f, breaks[:-1], breaks[1:])) / two_pi


def induced_kappa_quadrature(h: Callable, p: float, d: int, t: float) -> float:
    """Induced-kernel profile of a positive-homogeneous h of order p:

        kappa_h(t) = C_{2,2p} / C_{d,2p} * phi_h(t)

    with phi_h the circle integral above and C_{d,p} the Gamma prefactor.
    """
    if d < 2 or p <= 0:
        raise InvalidArgument(f"needs d >= 2 and p > 0, got d={d}, p={p}")
    pref = math.exp(_log_cdp(2, 2 * p) - _log_cdp(d, 2 * p))
    return pref * catalan_integral(h, t)


#: how far past [-1, 1] a dot product of unit vectors may round
UNIT_SLACK = 1e-9


def clip_unit(t, message: str):
    """t as a float array, raising InvalidArgument(message) if an entry lies
    more than UNIT_SLACK outside [-1, 1], and clipped to [-1, 1]; NaN
    entries pass through. A contiguous, aligned array already in range
    comes back as it is, so callers must not write to the result. Any other
    is clipped into a fresh contiguous array: numpy evaluates arccos and
    arcsin of strided input with another loop, which rounds differently."""
    t = np.asarray(t, dtype=float)
    lo = np.fmin.reduce(t, axis=None, initial=math.inf)
    hi = np.fmax.reduce(t, axis=None, initial=-math.inf)
    if lo < -(1 + UNIT_SLACK) or hi > 1 + UNIT_SLACK:
        raise InvalidArgument(message)
    contiguous = t.flags.c_contiguous or t.flags.f_contiguous
    if lo < -1.0 or hi > 1.0 or not (contiguous and t.flags.aligned):
        t = np.clip(t, -1.0, 1.0)
    return t


def sqrt_one_minus_square(t: np.ndarray) -> np.ndarray:
    """sqrt(max(0, 1 - t^2)) in one fresh array of t's shape."""
    out = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, out, out=out)
    np.maximum(0.0, out, out=out)
    return np.sqrt(out, out=out)


def _profile(kind: ActivationKind, which: str, t: np.ndarray, out=None) -> np.ndarray:
    """The closed forms of `phi_profile` at a float array t in [-1, 1],
    evaluated into `out` (an array of t's shape, t itself only for the
    derivative) or one fresh array, with at most one temporary, in the
    operation order of the formulas, so the bits equal theirs."""
    if out is None:
        out = np.empty_like(t)
    if kind == ActivationKind.RELU:
        np.negative(t, out=out)
        np.arccos(out, out=out)
        if which == "value":
            out *= t
            out += sqrt_one_minus_square(t)
        out /= 2 * math.pi
    elif kind == ActivationKind.IDENTITY:
        out[...] = t if which == "value" else 1.0
    elif kind == ActivationKind.ABS:
        np.arcsin(t, out=out)
        if which == "value":
            out *= t
            out += sqrt_one_minus_square(t)
            out *= 2 / math.pi
        else:
            out *= 2
            out /= math.pi
    else:
        raise UnsupportedActivation(f"{kind} has no dimension-free profile")
    return out


def phi_profile(kind: ActivationKind, which: str, t):
    """Dimension-free profile of an order-1 homogeneous activation:
    E[s(x.u) s(x.v)] = phi(u.v)/d (value), or the dimension-free
    E[s'(x.u) s'(x.v)] = phi'(u.v) (derivative).

    ReLU: value (1/2pi)(t arccos(-t) + sqrt(1-t^2)), derivative
    arccos(-t)/(2pi). Identity: t and 1. Abs: closed forms of the circle
    integral, (2/pi)(t arcsin t + sqrt(1-t^2)) and 2 arcsin(t)/pi.
    """
    t = clip_unit(t, "|t| must be <= 1")
    if which not in ("value", "derivative"):
        raise InvalidArgument(f"which must be value|derivative, got {which}")
    out = _profile(kind, which, t)
    return out if out.ndim else float(out)


def kappa_tilde(kind: ActivationKind, d: int, t):
    """The Sobolev kernel profile t*phi'(t) - phi(t)/d of an order-1
    homogeneous activation; `phi_profile` rejects any other."""
    t = clip_unit(t, "|t| must be <= 1")
    out = _profile(kind, "derivative", t)
    out *= t
    value = _profile(kind, "value", t)
    value /= d
    out -= value
    return out if out.ndim else float(out)
