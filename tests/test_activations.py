import math

import numpy as np
import pytest
from scipy.special import erf

from roblaw import (
    ActivationKind,
    InvalidArgument,
    NumericFailure,
    UnsupportedActivation,
    act_deriv,
    act_eval,
    curvature_coeffs,
    kappa_tilde,
    moment_cpq,
    phi_profile,
)
from roblaw.activations import catalan_integral, induced_kappa_quadrature, integrate


def test_eval_and_deriv_pointwise():
    t = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(act_eval(ActivationKind.RELU, t), [0, 0, 0, 0.5, 2])
    np.testing.assert_allclose(act_deriv(ActivationKind.RELU, t), [0, 0, 0, 1, 1])
    np.testing.assert_allclose(act_eval(ActivationKind.ABS, t), [2, 0.5, 0, 0.5, 2])
    np.testing.assert_allclose(act_deriv(ActivationKind.ABS, t), [-1, -1, 0, 1, 1])
    np.testing.assert_allclose(act_eval(ActivationKind.IDENTITY, t), t)
    assert act_eval(ActivationKind.ERF, 0.7) == pytest.approx(
        math.erf(0.7 / math.sqrt(2)), rel=1e-12
    )


def _deriv_reference(kind, t):
    """act_deriv as whole-array expressions."""
    if kind == ActivationKind.RELU:
        return (t > 0).astype(float)
    if kind == ActivationKind.ABS:
        return np.sign(t)
    if kind == ActivationKind.ERF:
        return math.sqrt(2 / math.pi) * np.exp(-t * t / 2)
    if kind == ActivationKind.TANH:
        return 1.0 - np.tanh(t) ** 2
    return np.ones_like(t)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_deriv_equals_its_expression_bit_for_bit_in_place_or_not(kind):
    rng = np.random.default_rng(3)
    t = np.concatenate([rng.normal(scale=4, size=999), [0.0, -0.0, 1e-310, 40.0, -40.0]])
    want = _deriv_reference(kind, t)
    assert act_deriv(kind, t).tobytes() == want.tobytes()
    u = t.copy()
    assert act_deriv(kind, u, u) is u and u.tobytes() == want.tobytes()
    assert type(act_deriv(kind, 0.3)) is np.float64


def _eval_reference(kind, t):
    """act_eval as whole-array expressions."""
    if kind == ActivationKind.RELU:
        return np.maximum(t, 0.0)
    if kind == ActivationKind.ABS:
        return np.abs(t)
    if kind == ActivationKind.ERF:
        return erf(t / math.sqrt(2))
    if kind == ActivationKind.TANH:
        return np.tanh(t)
    return t + 0.0


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_eval_equals_its_expression_bit_for_bit_in_place_or_not(kind):
    rng = np.random.default_rng(4)
    t = np.concatenate([rng.normal(scale=4, size=999), [0.0, -0.0, 1e-310, 40.0, -40.0]])
    want = _eval_reference(kind, t)
    assert act_eval(kind, t).tobytes() == want.tobytes()
    u = t.copy()
    assert act_eval(kind, u, u) is u and u.tobytes() == want.tobytes()
    assert type(act_eval(kind, 0.3)) is np.float64


def test_deriv_matches_finite_difference_smooth_kinds():
    h = 1e-6
    for kind in (ActivationKind.ERF, ActivationKind.TANH):
        for t in (-1.3, -0.2, 0.4, 2.0):
            fd = (act_eval(kind, t + h) - act_eval(kind, t - h)) / (2 * h)
            assert act_deriv(kind, t) == pytest.approx(fd, abs=1e-8)


def test_curvature_closed_forms():
    relu = curvature_coeffs(ActivationKind.RELU)
    assert relu.beta0 == pytest.approx(1 / (2 * math.pi), abs=1e-10)
    assert relu.beta1 == pytest.approx(0.25, abs=1e-10)
    assert relu.beta_star == pytest.approx(0.25 - 1 / (2 * math.pi), abs=1e-10)
    ab = curvature_coeffs(ActivationKind.ABS)
    assert ab.beta0 == pytest.approx(2 / math.pi, abs=1e-10)
    assert ab.beta1 == pytest.approx(0.0, abs=1e-10)
    assert ab.beta_star == pytest.approx(1 - 2 / math.pi, abs=1e-10)
    iden = curvature_coeffs(ActivationKind.IDENTITY)
    assert iden.beta0 == pytest.approx(0.0, abs=1e-12)
    assert iden.beta1 == pytest.approx(1.0, abs=1e-10)
    assert iden.beta_star == pytest.approx(0.0, abs=1e-10)


def test_curvature_erf_closed_form():
    # sigma(t) = erf(t / sqrt 2): E[sigma] = 0 by symmetry, E[z sigma] =
    # E[sigma'] = 1/sqrt(pi) and E[sigma^2] = (2/pi) arcsin(1/2) = 1/3.
    # scipy's quad, which this rule replaced, was 0, 5.6e-17 and 5.6e-17
    # off: one ulp of 1/3
    c = curvature_coeffs(ActivationKind.ERF)
    assert c.beta0 == 0.0
    assert abs(c.beta1 - 1 / math.pi) <= math.ulp(1 / 3)
    assert abs(c.beta_star - (1 / 3 - 1 / math.pi)) <= math.ulp(1 / 3)


def test_curvature_matches_profile_identities():
    # beta0 = phi(0), beta1 = phi'(0), beta* = phi(1) - phi(0) - phi'(0),
    # with phi the d-free profile scaled to the Gaussian normalization
    for kind in (ActivationKind.RELU, ActivationKind.ABS, ActivationKind.IDENTITY):
        c = curvature_coeffs(kind)
        phi0 = phi_profile(kind, "value", 0.0)
        phi1 = phi_profile(kind, "value", 1.0)
        dphi0 = phi_profile(kind, "derivative", 0.0)
        assert c.beta0 == pytest.approx(phi0, abs=1e-9)
        assert c.beta1 == pytest.approx(dphi0, abs=1e-9)
        assert c.beta_star == pytest.approx(phi1 - phi0 - dphi0, abs=1e-9)


def test_circle_integral_relu_closed_form():
    for t in (-0.9, -0.3, 0.0, 0.4, 0.95):
        val = catalan_integral(lambda u: np.maximum(u, 0.0), t)
        # circle marginals carry half the variance of the Gaussian limit,
        # so the order-1 profile comes out at half strength
        ref = (t * math.acos(-t) + math.sqrt(1 - t * t)) / (2 * math.pi)
        assert val == pytest.approx(ref / 2, abs=1e-9)


def test_circle_integral_relu_near_the_poles():
    # at t = +-0.999 two panels are 0.045 wide; scipy's quad was 2.6e-17
    # (t = -0.999) and 8.3e-17 (t = 0.999) off the closed form
    for t in (-0.999, 0.999):
        val = catalan_integral(lambda u: np.maximum(u, 0.0), t)
        ref = (t * math.acos(-t) + math.sqrt(1 - t * t)) / (2 * math.pi)
        assert abs(val - ref / 2) <= 5e-17


def test_integrate_is_vectorized_over_intervals():
    got = integrate(np.cos, [[0.0, 0.0], [1.0, -1.0]], [[math.pi / 2, math.pi], [1.0, 1.0]])
    assert got.shape == (2, 2)
    np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 2 * math.sin(1.0)]], rtol=0, atol=1e-15)


def test_integrate_bisects_a_sharp_peak():
    # a Lorentzian of width 1e-3: neither order resolves it on [-1, 1]
    eps = 1e-3
    val = integrate(lambda x: 1 / (eps * eps + x * x), -1.0, 1.0)
    ref = 2 / eps * math.atan(1 / eps)
    assert abs(val - ref) <= 1e-13 * ref


def test_integrate_raises_past_its_panel_budget():
    with pytest.raises(NumericFailure):
        integrate(lambda x: np.full_like(x, math.nan), 0.0, 1.0)


def test_circle_integral_identity_is_half_cos():
    # (1/2pi) int cos(u) cos(u - theta) du = cos(theta)/2
    for t in (-0.8, 0.1, 0.6):
        assert catalan_integral(lambda u: u, t) == pytest.approx(t / 2, abs=1e-10)


def test_induced_kernel_quadrature_scaling():
    # the d-dependent prefactor rescales the circle integral; for d=2 the
    # prefactor is 1
    h = lambda u: np.abs(u)
    t = 0.3
    assert induced_kappa_quadrature(h, 1, 2, t) == pytest.approx(
        catalan_integral(h, t), rel=1e-12
    )
    # at general d the order-1 prefactor is 2/d
    d = 24
    assert induced_kappa_quadrature(h, 1, d, t) * d == pytest.approx(
        2 * catalan_integral(h, t), rel=1e-10
    )


@pytest.mark.parametrize("p, d", [(1, 1), (0, 5), (-0.5, 5)])
def test_induced_kernel_quadrature_rejects_bad_order_or_dimension(p, d):
    with pytest.raises(InvalidArgument):
        induced_kappa_quadrature(np.abs, p, d, 0.3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1.5, -1.5])
@pytest.mark.parametrize("of_t", [
    lambda t: catalan_integral(np.abs, t),
    lambda t: induced_kappa_quadrature(np.abs, 1, 5, t),
    lambda t: moment_cpq(2, 2, 5, t),
], ids=["catalan_integral", "induced_kappa_quadrature", "moment_cpq"])
def test_cosine_argument_outside_unit_interval_or_not_finite_is_rejected(of_t, t):
    # a NaN cosine used to be clipped to -1 and give the value there
    with pytest.raises(InvalidArgument):
        of_t(t)


def test_phi_profile_value_derivative_consistency():
    # d/dt of the value profile equals the derivative profile
    h = 1e-6
    for kind in (ActivationKind.RELU, ActivationKind.ABS, ActivationKind.IDENTITY):
        for t in (-0.7, -0.1, 0.2, 0.8):
            fd = (
                phi_profile(kind, "value", t + h) - phi_profile(kind, "value", t - h)
            ) / (2 * h)
            assert phi_profile(kind, "derivative", t) == pytest.approx(fd, abs=1e-6)


def test_phi_profile_unsupported_kind():
    with pytest.raises(UnsupportedActivation):
        phi_profile(ActivationKind.TANH, "value", 0.5)


def test_kappa_tilde_relu_values():
    # t*phi'(t) - phi(t)/d; at t=1, d=10 this is 1/2 - 1/20
    assert kappa_tilde(ActivationKind.RELU, 10, 1.0) == pytest.approx(0.45, abs=1e-12)
    ref = lambda t, d: t * math.acos(-t) / (2 * math.pi) - (
        t * math.acos(-t) + math.sqrt(1 - t * t)
    ) / (2 * math.pi * d)
    for t in (-0.9, 0.0, 0.5):
        assert kappa_tilde(ActivationKind.RELU, 7, t) == pytest.approx(
            ref(t, 7), abs=1e-12
        )


def test_kappa_tilde_abs_and_erf_values():
    t, d = 0.4, 9
    ref_abs = 2 * t * math.asin(t) / math.pi - (
        2 * t * math.asin(t) + 2 * math.sqrt(1 - t * t)
    ) / (math.pi * d)
    # assembled as t*phi_abs'(t) - phi_abs(t)/d with the 2/pi profiles
    assert kappa_tilde(ActivationKind.ABS, d, t) == pytest.approx(ref_abs, abs=1e-12)
    # erf is not homogeneous: no sweep or closed form reads its profile
    with pytest.raises(UnsupportedActivation):
        kappa_tilde(ActivationKind.ERF, d, t)


def test_kappa_tilde_unsupported():
    with pytest.raises(UnsupportedActivation):
        kappa_tilde(ActivationKind.TANH, 5, 0.1)


def _phi_reference(kind, which, t):
    """phi_profile as whole-array expressions, one temporary per operation;
    the in-place evaluation must give the same bits."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-9):
        raise InvalidArgument("|t| must be <= 1")
    t = np.clip(t, -1.0, 1.0)
    if kind == ActivationKind.RELU:
        if which == "value":
            out = (t * np.arccos(-t) + np.sqrt(np.maximum(0.0, 1 - t * t))) / (2 * math.pi)
        else:
            out = np.arccos(-t) / (2 * math.pi)
    elif kind == ActivationKind.IDENTITY:
        out = t if which == "value" else np.ones_like(t)
    else:
        if which == "value":
            out = 2 / math.pi * (t * np.arcsin(t) + np.sqrt(np.maximum(0.0, 1 - t * t)))
        else:
            out = 2 * np.arcsin(t) / math.pi
    return out if out.ndim else float(out)


def _kappa_reference(kind, d, t):
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    out = np.asarray(t * _phi_reference(kind, "derivative", t)
                     - _phi_reference(kind, "value", t) / d)
    return out if out.ndim else float(out)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


PROFILE_KINDS = (ActivationKind.RELU, ActivationKind.ABS, ActivationKind.IDENTITY)


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profiles_equal_their_closed_forms_bit_for_bit(kind, unit_inputs):
    for t in unit_inputs:
        before = np.array(t, copy=True)
        for which in ("value", "derivative"):
            got = phi_profile(kind, which, t)
            assert_same_bits(got, _phi_reference(kind, which, t))
            assert not np.shares_memory(got, t)
        for d in (2, 50):
            assert_same_bits(kappa_tilde(kind, d, t), _kappa_reference(kind, d, t))
        np.testing.assert_array_equal(np.asarray(t), before)  # not written to


@pytest.mark.parametrize("t", [
    1 + 2e-9, -1 - 2e-9, math.inf, -math.inf, [0.5, 1.01], [math.nan, 5.0], [-7.0, math.nan],
])
def test_profiles_reject_out_of_range_input_nan_or_not(t):
    for fn in (lambda: phi_profile(ActivationKind.RELU, "value", t),
               lambda: phi_profile(ActivationKind.ABS, "bogus", t),
               lambda: kappa_tilde(ActivationKind.RELU, 5, t)):
        with pytest.raises(InvalidArgument, match=r"\|t\| must be <= 1"):
            fn()


def test_profiles_pass_nan_through():
    t = np.array([math.nan, 0.5, -1.0])
    for kind in PROFILE_KINDS:
        for which in ("value", "derivative"):
            got = phi_profile(kind, which, t)
            assert_same_bits(got, _phi_reference(kind, which, t))
            assert math.isnan(got[0]) == (kind != ActivationKind.IDENTITY or which == "value")
        assert math.isnan(kappa_tilde(kind, 3, t)[0])
    assert math.isnan(phi_profile(ActivationKind.RELU, "value", math.nan))
