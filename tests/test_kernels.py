import math

import numpy as np
import pytest

from roblaw import (
    ActivationKind,
    DotProductKernel,
    FeatureMap,
    InvalidArgument,
    UnsupportedActivation,
    empirical_gram,
    features,
    gen_dataset,
    gram_dot,
    kernel_profile,
    kernel_profile_deriv,
    model_gradient,
    ntk_features,
    rf_features,
    sample_sphere,
)
from roblaw.fit import (
    FeatureModel, KernelModel, LinearModel, feature_path, kernel_path, train_mse,
)
from roblaw.kernels import PROFILE_BLOCK, kernel_matrix

from conftest import peak_bytes
from test_activations import _phi_reference, assert_same_bits


ALL_KERNELS = [
    DotProductKernel(name=name, activation=activation)
    for name in ("rf_infinite", "ntk_infinite")
    for activation in (ActivationKind.RELU, ActivationKind.ABS, ActivationKind.IDENTITY)
]


def test_infinite_width_profiles_match_arccos():
    # ReLU random-features kernel is the order-1 arc-cosine profile;
    # the width-limit tangent kernel is t * order-0 profile
    rf = DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU)
    ntk = DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU)
    for t in (-0.8, 0.0, 0.5, 1.0):
        assert kernel_profile(rf, t) == pytest.approx(
            (t * math.acos(-t) + math.sqrt(1 - t * t)) / math.pi, abs=1e-12
        )
        assert kernel_profile(ntk, t) == pytest.approx(
            t * math.acos(-t) / math.pi, abs=1e-12
        )


def test_infinite_kernels_reject_nonhomogeneous_activation():
    with pytest.raises(UnsupportedActivation):
        DotProductKernel(name="rf_infinite", activation=ActivationKind.TANH)


def test_only_the_infinite_width_kernels_exist():
    with pytest.raises(InvalidArgument):
        DotProductKernel(name="gaussian", activation=ActivationKind.RELU)


def test_profile_deriv_matches_finite_difference():
    h = 1e-6
    for kernel in ALL_KERNELS:
        for t in (-0.7, -0.1, 0.4, 0.9):
            fd = (kernel_profile(kernel, t + h) - kernel_profile(kernel, t - h)) / (2 * h)
            assert kernel_profile_deriv(kernel, t) == pytest.approx(
                fd, rel=1e-4, abs=1e-6
            ), (kernel.name, kernel.activation)


def test_gram_symmetric_psd():
    X = sample_sphere(9, 40, 0)
    for kernel in ALL_KERNELS:
        G = gram_dot(kernel, X)
        np.testing.assert_allclose(G, G.T, atol=1e-14)
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > -1e-8, (kernel.name, kernel.activation)


def test_rf_features_scaling():
    W = sample_sphere(6, 11, 1)
    fmap = FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.RELU)
    x = sample_sphere(6, 1, 2).points[0]
    z = rf_features(fmap, x)
    assert z.shape == (11,)
    np.testing.assert_allclose(
        z, np.maximum(W.points @ x, 0.0) / math.sqrt(11), atol=1e-14
    )


def test_ntk_features_block_structure():
    W = sample_sphere(4, 3, 1)
    fmap = FeatureMap(kind="ntk", weights=W, activation=ActivationKind.RELU)
    x = sample_sphere(4, 1, 2).points[0]
    z = ntk_features(fmap, x)
    assert z.shape == (12,)
    s = (W.points @ x > 0).astype(float)
    ref = np.concatenate([s[j] * x for j in range(3)]) / math.sqrt(3)
    np.testing.assert_allclose(z, ref, atol=1e-14)


def test_empirical_gram_matches_materialized_features():
    X = sample_sphere(5, 20, 3)
    W = sample_sphere(5, 7, 4)
    fmap = FeatureMap(kind="ntk", weights=W, activation=ActivationKind.RELU)
    Z = features(fmap, X.points)
    np.testing.assert_allclose(empirical_gram(fmap, X), Z @ Z.T, atol=1e-12)
    with pytest.raises(InvalidArgument, match="ntk map"):
        empirical_gram(FeatureMap(kind="frozen_rf", weights=W), X)


def _numeric_gradient(predict, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (predict(x + e) - predict(x - e)) / (2 * h)
    return g


def test_model_gradient_matches_finite_differences():
    d = 6
    rng = np.random.default_rng(11)
    x = sample_sphere(d, 1, 12).points[0]
    W = sample_sphere(d, 5, 13)

    two_layer = FeatureModel(map=FeatureMap(kind="frozen_rf", weights=W,
                                            activation=ActivationKind.RELU),
                             a=rng.normal(size=5))
    linear = LinearModel(w=rng.normal(size=d))
    data = gen_dataset(15, d, 0.2, 14)
    kern = kernel_path(DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU),
                       data.X, data.y).fit(1e-6)
    rf = feature_path(
        FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.RELU),
        data.X, data.y,
    ).fit(1e-6)
    ntk = feature_path(
        FeatureMap(kind="ntk", weights=W, activation=ActivationKind.RELU), data.X, data.y
    ).fit(1e-6)
    # a kernel model predicts on the sphere only; its gradient is that of the
    # ambient extension K(x, anchors) c, which `kernel_matrix` evaluates
    kern_extension = lambda p: kernel_matrix(kern.kernel, p, kern.anchors.points) @ kern.c
    for model in (two_layer, linear, kern, rf, ntk):
        f = kern_extension if model is kern else model.predict
        num = _numeric_gradient(lambda p: float(np.atleast_1d(f(p))[0]), x.copy())
        np.testing.assert_allclose(
            model_gradient(model, x), num, rtol=1e-4, atol=1e-6
        )


def test_models_and_feature_maps_compare_and_hash_without_raising():
    # a model, like its sample, equals itself only; a feature map equals
    # one built on the same sample object
    d, W = 4, sample_sphere(4, 3, 1)
    data = gen_dataset(6, d, 0.2, 2)
    fmap = FeatureMap(kind="frozen_rf", weights=W)
    models = [
        LinearModel(w=np.ones(d)),
        kernel_path(DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU),
                    data.X, data.y).fit(1e-3),
        feature_path(fmap, data.X, data.y).fit(1e-3),
    ]
    for model in models:
        assert (model == model) is True and len({model, model}) == 1
    assert (models[0] == LinearModel(w=np.ones(d))) is False
    same = FeatureMap(kind="frozen_rf", weights=W)
    assert same == fmap and hash(same) == hash(fmap)
    assert FeatureMap(kind="frozen_rf", weights=sample_sphere(4, 3, 1)) != fmap


def test_model_gradient_batched_matches_single():
    d = 5
    X = sample_sphere(d, 4, 1).points
    W = sample_sphere(d, 3, 2)
    fmap = FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.ABS)
    model = FeatureModel(map=fmap, a=np.array([1.0, -2.0, 0.5]))
    G = model_gradient(model, X)
    for i in range(4):
        np.testing.assert_allclose(G[i], model_gradient(model, X[i]), atol=1e-14)


def _kernel_reference(kernel, t, deriv=False):
    """kernel_profile / kernel_profile_deriv as whole-array expressions over
    the out-of-place phi profile; the in-place evaluation must give the
    same bits."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-9):
        raise InvalidArgument("dot products must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    act = kernel.activation
    if not deriv:
        if kernel.name == "rf_infinite":
            out = 2.0 * np.asarray(_phi_reference(act, "value", t))
        else:
            out = t * 2.0 * np.asarray(_phi_reference(act, "derivative", t))
        return out if out.ndim else float(out)
    phi0 = 2.0 * np.asarray(_phi_reference(act, "derivative", t))
    if kernel.name == "rf_infinite":
        out = phi0
    else:
        with np.errstate(divide="ignore"):
            if act == ActivationKind.RELU:
                dphi0 = 2.0 / (2 * math.pi * np.sqrt(np.maximum(0.0, 1 - t * t)))
            elif act == ActivationKind.ABS:
                dphi0 = 2.0 * (2 / math.pi) / np.sqrt(np.maximum(0.0, 1 - t * t))
            else:
                dphi0 = np.zeros_like(t)
        out = phi0 + t * dphi0
    return out if out.ndim else float(out)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}-{k.activation.value}")
def test_kernel_profiles_equal_their_closed_forms_bit_for_bit(kernel, unit_inputs):
    for t in unit_inputs + [np.array([math.nan, 0.5, -1.0])]:
        before = np.array(t, copy=True)
        for fn, deriv in ((kernel_profile, False), (kernel_profile_deriv, True)):
            got = fn(kernel, t)
            assert_same_bits(got, _kernel_reference(kernel, t, deriv))
            assert not np.shares_memory(got, t)
        np.testing.assert_array_equal(np.asarray(t), before)  # not written to
        if np.ndim(t):
            # the derivative may overwrite its input
            u = np.array(t, copy=True)
            assert kernel_profile_deriv(kernel, u, u) is u
            assert_same_bits(u, _kernel_reference(kernel, t, True))


@pytest.mark.parametrize("t", [1 + 2e-9, -math.inf, [math.nan, 5.0], [0.2, -1.1]])
def test_kernel_profiles_reject_out_of_range_dot_products(t):
    for kernel in ALL_KERNELS[:2]:
        for fn in (kernel_profile, kernel_profile_deriv):
            with pytest.raises(InvalidArgument, match=r"dot products must lie in \[-1, 1\]"):
                fn(kernel, t)


@pytest.mark.parametrize("name", ["rf_infinite", "ntk_infinite"])
@pytest.mark.parametrize("n", [1, 37, 400])
def test_kernel_gram_is_the_train_design_bit_for_bit(name, n):
    data = gen_dataset(n, 30, 0.5, n)
    path = kernel_path(DotProductKernel(name=name, activation=ActivationKind.RELU), data.X,
                       data.y)
    model = path.fit(1e-3)
    design = model.design(data.X.points)
    assert design.tobytes() == path.gram.tobytes()
    assert train_mse(model, data, path.gram) == train_mse(model, data)
    np.testing.assert_array_equal(model.predict(data.X.points), design @ model.c)


def test_ntk_features_peak_memory_is_about_its_output():
    fmap = FeatureMap("ntk", sample_sphere(50, 40, 1))
    X = sample_sphere(50, 500, 2).points
    Z, peak = peak_bytes(lambda: ntk_features(fmap, X))
    assert Z.shape == (500, 2000)
    assert peak < 1.25 * Z.nbytes  # one m x kd array, not two


def _builder_inputs(rows, cols, d=5):
    """rows points and cols anchors on the sphere in R^d, with the first
    point and its negation among the anchors, so products of +-1 and within
    rounding of them occur."""
    X = sample_sphere(d, rows, rows + cols).points
    A = sample_sphere(d, cols, cols).points.copy()
    A[:2] = (X[0], -X[0])[:cols]
    return X, A


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}-{k.activation.value}")
@pytest.mark.parametrize("cols", [1, 7, 1023, 1100])
def test_kernel_matrix_is_the_profile_of_the_clipped_product_bit_for_bit(kernel, cols):
    block_rows = PROFILE_BLOCK // cols
    for rows in (block_rows // 2 + 1, 2 * block_rows + 3):
        X, A = _builder_inputs(rows, cols)
        want = kernel_profile(kernel, np.clip(X @ A.T, -1.0, 1.0))
        assert_same_bits(kernel_matrix(kernel, X, A), want)
    # a single point, as `predict` at one x passes it
    want = kernel_profile(kernel, np.clip(X[0] @ A.T, -1.0, 1.0))
    assert_same_bits(kernel_matrix(kernel, X[0], A), want)


@pytest.mark.parametrize("kernel", ALL_KERNELS[:2], ids=lambda k: k.name)
def test_kernel_matrix_of_no_points_or_no_anchors_is_empty(kernel):
    X, A = _builder_inputs(4, 3)
    for x, anchors, shape in ((X, A[:0], (4, 0)), (X[:0], A, (0, 3)), (X[0], A[:0], (0,))):
        assert kernel_matrix(kernel, x, anchors).shape == shape


def test_kernel_gram_holds_one_array_of_its_size():
    X = sample_sphere(500, 1100, 3)
    kernel = DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU)
    G, peak = peak_bytes(lambda: gram_dot(kernel, X))
    # the product, its clip and a whole-matrix profile peaked at 3.00 grams
    assert peak < 1.25 * G.nbytes


@pytest.mark.parametrize("name", ["rf_infinite", "ntk_infinite"])
def test_kernel_design_holds_one_array_of_its_size(name):
    data = gen_dataset(1000, 500, 0.5, 4)
    model = KernelModel(kernel=DotProductKernel(name=name, activation=ActivationKind.RELU),
                        anchors=data.X, c=data.y)
    x = sample_sphere(500, 500, 5).points
    D, peak = peak_bytes(lambda: model.design(x))
    assert D.shape == (500, 1000)
    assert peak < 1.25 * D.nbytes


def test_rf_features_peak_memory_is_its_output():
    fmap = FeatureMap("frozen_rf", sample_sphere(300, 1000, 6))
    x = sample_sphere(300, 1000, 7).points
    Z, peak = peak_bytes(lambda: rf_features(fmap, x))
    assert Z.shape == (1000, 1000)
    assert peak < 1.1 * Z.nbytes  # sigma and the scale in the product's array


@pytest.mark.parametrize("n, d", [(7, 3), (100, 500), (1033, 17)])
def test_self_grams_are_exactly_symmetric(n, d):
    # X X^T, and so every entrywise profile of it, comes out exactly
    # symmetric; the ridge solves rely on it
    X = sample_sphere(d, n, n + d)
    W = sample_sphere(d, 40, 1)
    grams = {kernel: gram_dot(kernel, X) for kernel in ALL_KERNELS}
    for activation in (ActivationKind.RELU, ActivationKind.TANH):
        fmap = FeatureMap(kind="ntk", weights=W, activation=activation)
        grams["ntk", activation] = empirical_gram(fmap, X)
    for name, G in grams.items():
        assert G.shape == (n, n)
        assert G.tobytes() == G.T.tobytes(), name
