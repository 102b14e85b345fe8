import math
from dataclasses import replace

import numpy as np
import pytest

import roblaw.fit
import roblaw.sobolev
from roblaw import (
    ActivationKind,
    DotProductKernel,
    FeatureMap,
    InvalidArgument,
    ResourceLimit,
    SphereSample,
    c_sigma_sobolev,
    eta_proxy,
    gen_dataset,
    poincare_lower_bound,
    sample_sphere,
    sobolev_analytic,
    sobolev_monte_carlo,
)
from roblaw.fit import FeatureModel, KernelModel, LinearModel
from roblaw.kernels import model_gradient

from conftest import peak_bytes


def _network(W, a, activation=ActivationKind.RELU):
    """The two-layer network of hidden weights W and output weights
    a / sqrt(k)."""
    return FeatureModel(map=FeatureMap(kind="frozen_rf", weights=W, activation=activation), a=a)


def _relu_two_layer(d, k, seed):
    W = sample_sphere(d, k, seed)
    return _network(W, np.random.default_rng(seed + 1).normal(size=k))


def test_analytic_single_neuron():
    W = sample_sphere(10, 1, 0)
    m = _network(W, np.array([1.0]))
    assert sobolev_analytic([m])[0] == pytest.approx(math.sqrt(0.45), abs=1e-12)


def test_analytic_zero_output_weights():
    W = sample_sphere(6, 4, 1)
    m = _network(W, np.zeros(4))
    assert sobolev_analytic([m])[0] == 0.0


def test_analytic_orthonormal_pair():
    m = _network(SphereSample(np.eye(2)), np.full(2, math.sqrt(2)))  # v = (1, 1)
    # diagonal terms 1/2 - 1/4 each, cross terms -phi(0)/d each
    ref = math.sqrt(2 * 0.25 + 2 * (-1 / (4 * math.pi)))
    assert sobolev_analytic([m])[0] == pytest.approx(ref, abs=1e-12)


def test_analytic_is_nan_for_a_nonhomogeneous_activation(monkeypatch):
    W = sample_sphere(5, 2, 2)
    m = _network(W, np.ones(2), ActivationKind.TANH)
    monkeypatch.setattr(roblaw.sobolev, "c_sigma_sobolev", None)  # never built
    assert math.isnan(sobolev_analytic([m])[0])


def test_analytic_scale_equivariance():
    m = _relu_two_layer(12, 7, 3)
    base = sobolev_analytic([m])[0]
    scaled = replace(m, a=3.5 * m.a)
    assert sobolev_analytic([scaled])[0] == pytest.approx(3.5 * base, rel=1e-12)


def test_analytic_models_of_one_layer_share_its_matrix_bitwise():
    m = _relu_two_layer(12, 9, 21)
    W = m.map.weights
    models = [replace(m, a=m.a * s) for s in (1.0, -0.3, 2.5)]
    models.append(_network(W, m.a * 3.0))  # another map on the same layer
    C = c_sigma_sobolev(W, ActivationKind.RELU)
    together = sobolev_analytic(models)
    alone = [sobolev_analytic([model])[0] for model in models]
    reference = [math.sqrt(max(float(v @ C @ v), 0.0))
                 for _, v, _ in [x.two_layer for x in models]]
    assert together == alone == reference


def test_analytic_of_a_mixed_list_equals_each_model_alone(monkeypatch):
    # every model class in one list: a closed form for linear models and
    # order-1 homogeneous two-layer views, nan for the rest
    d = 8
    erf = FeatureMap(kind="frozen_rf", weights=sample_sphere(d, 6, 40),
                     activation=ActivationKind.ERF)
    models = _path_models(d, 41) + [
        _relu_two_layer(d, 5, 42), FeatureModel(map=erf, a=np.ones(6))]
    original, built = roblaw.sobolev.c_sigma_sobolev, []

    def counted(W, kind):
        built.append(id(W.points))
        return original(W, kind)

    monkeypatch.setattr(roblaw.sobolev, "c_sigma_sobolev", counted)
    together = sobolev_analytic(models)
    # the rf map, the first and the second two-layer model: three layers
    assert len(built) == len(set(built)) == 3
    alone = [sobolev_analytic([model])[0] for model in models]
    assert np.array_equal(together, alone, equal_nan=True)
    # relu rf x3, ntk x3, kernel x3, two-layer, linear, two-layer, erf rf
    has_form = [True] * 3 + [False] * 6 + [True] * 3 + [False]
    assert [math.isfinite(x) for x in together] == has_form
    assert sobolev_analytic([]) == []


def test_poincare_refuses_oversized_sample_before_drawing(monkeypatch):
    def no_draw(d, n, seed):
        raise AssertionError(f"drew a {n} x {d} sample")

    monkeypatch.setattr(roblaw.sobolev, "sphere_blocks", no_draw)
    with pytest.raises(ResourceLimit, match="too large"):
        poincare_lower_bound(LinearModel(w=np.ones(1000)), 1000, 10**6, 0)


def test_exact_linear_values():
    e1 = LinearModel(w=np.eye(100)[0])
    assert e1.seminorm == pytest.approx(math.sqrt(0.99), abs=1e-12)
    zero = LinearModel(w=np.zeros(5))
    assert zero.seminorm == 0.0
    w2 = LinearModel(w=np.array([3.0, 4.0]))
    assert sobolev_analytic([w2]) == [w2.seminorm]
    assert w2.seminorm == pytest.approx(5.0 / math.sqrt(2), rel=1e-12)


def test_monte_carlo_matches_exact_linear():
    m = LinearModel(w=np.random.default_rng(4).normal(size=20))
    [exact] = sobolev_analytic([m])
    [est] = sobolev_monte_carlo([m], 20, 100000, 5)
    assert abs(est.value - exact) < 3 * max(est.std_error, 1e-12)


def test_monte_carlo_matches_analytic_two_layer():
    m = _relu_two_layer(30, 25, 6)
    ref = sobolev_analytic([m])[0]
    [est] = sobolev_monte_carlo([m], 30, 20000, 7)
    assert est.value == pytest.approx(ref, rel=0.05)


def test_monte_carlo_stderr_shrinks_with_samples():
    m = _relu_two_layer(10, 6, 8)
    [e1] = sobolev_monte_carlo([m], 10, 2000, 9)
    [e2] = sobolev_monte_carlo([m], 10, 8000, 9)
    se1, se2 = e1.std_error, e2.std_error
    assert se2 < se1
    assert se1 / se2 == pytest.approx(2.0, rel=0.3)


def test_monte_carlo_constant_model_is_zero():
    data = gen_dataset(5, 8, 0.0, 10)
    model = KernelModel(
        kernel=DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU),
        anchors=data.X, c=np.zeros(5),
    )
    assert sobolev_monte_carlo([model], 8, 1000, 11)[0].value == 0.0


def _path_models(d, seed):
    """Models as one lambda path of each family gives them: three coefficient
    vectors on one RF map, one NTK map and one kernel with its anchors,
    plus a two-layer and a linear model."""
    rng = np.random.default_rng(seed)
    W = sample_sphere(d, 7, seed)
    rf = FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.RELU)
    ntk = FeatureMap(kind="ntk", weights=W, activation=ActivationKind.ABS)
    kernel = DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU)
    anchors = sample_sphere(d, 9, seed + 1)
    return (
        [FeatureModel(map=rf, a=rng.normal(size=7)) for _ in range(3)]
        + [FeatureModel(map=ntk, a=rng.normal(size=7 * d)) for _ in range(3)]
        + [KernelModel(kernel=kernel, anchors=anchors, c=rng.normal(size=9))
           for _ in range(3)]
        + [_relu_two_layer(d, 5, seed + 2), LinearModel(w=rng.normal(size=d))]
    )


def _whole_sample_estimate(model, d, m, seed):
    """(value, std_error) from the gradients of the whole sample at once."""
    X = sample_sphere(d, m, seed).points
    G = model_gradient(model, X)
    T = G - np.sum(G * X, axis=1)[:, None] * X
    sq = np.sum(T * T, axis=1)
    value = math.sqrt(np.mean(sq))
    return value, np.std(sq, ddof=1) / math.sqrt(m) / (2 * value)


@pytest.mark.parametrize("m", [100, 1024, 1025, 3 * 1024 + 5])
def test_monte_carlo_blocks_match_whole_sample(m):
    d, seed = 6, 31
    models = _path_models(d, 30)
    estimates = sobolev_monte_carlo(models, d, m, seed)
    for model, est in zip(models, estimates):
        value, se = _whole_sample_estimate(model, d, m, seed)
        assert est.value == pytest.approx(value, rel=1e-13)
        assert est.std_error == pytest.approx(se, rel=1e-13)


def test_monte_carlo_point_at_an_anchor_matches_whole_sample():
    # phi' of ntk_infinite relu is clamped near t = 1, so a sample point at
    # an anchor has a large, nearly radial gradient whose tangential part
    # the projection must not lose
    d, m, seed = 6, 2 * 1024 + 7, 31
    X = sample_sphere(d, m, seed).points
    anchors = SphereSample(X[[0, 1500, m - 1]])
    kernel = DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU)
    model = KernelModel(kernel=kernel, anchors=anchors, c=np.array([1.0, -0.5, 2.0]))
    [g] = model_gradient(model, X[:1])
    assert abs(g @ X[0]) > 0.999 * np.linalg.norm(g) > 1e3
    [est] = sobolev_monte_carlo([model], d, m, seed)
    value, se = _whole_sample_estimate(model, d, m, seed)
    assert est.value == pytest.approx(value, rel=1e-13)
    assert est.std_error == pytest.approx(se, rel=1e-13)


def test_monte_carlo_blocks_make_one_factor_per_key(monkeypatch):
    factor_calls, gradient_outs = [], []
    for cls in (FeatureModel, KernelModel, LinearModel):
        def recorded(self, X, original=cls.gradient_factor):
            factor_calls.append((self.factor_key, len(X)))
            return original(self, X)

        monkeypatch.setattr(cls, "gradient_factor", recorded)
    original_gradient = roblaw.sobolev.model_gradient

    def recorded_gradient(model, x, factor=None, out=None):
        gradient_outs.append(out)
        return original_gradient(model, x, factor, out)

    monkeypatch.setattr(roblaw.sobolev, "model_gradient", recorded_gradient)
    d, m = 6, 3 * 1024 + 5
    models = _path_models(d, 30)
    sobolev_monte_carlo(models, d, m, 3)

    rows = [1024, 1024, 1024, 5]
    keys = list(dict.fromkeys(model.factor_key for model in models))
    assert len(keys) == 5  # rf, ntk, kernel, two-layer and linear
    assert factor_calls == [(key, r) for r in rows for key in keys]
    assert [len(out) for out in gradient_outs] == [r for r in rows for _ in models]
    assert {out.shape[1] for out in gradient_outs} == {d}
    assert len({out.__array_interface__["data"][0] for out in gradient_outs}) == 1


@pytest.mark.parametrize("name, family", [
    ("act_deriv", slice(0, 3)),
    ("act_deriv", slice(3, 6)),
    ("kernel_profile_deriv", slice(6, 9)),
])
def test_monte_carlo_factor_once_per_block_for_a_path(monkeypatch, name, family):
    # each model class takes its gradient factor in roblaw.fit
    original = getattr(roblaw.fit, name)
    calls = []

    def counted(*args):
        calls.append(np.shape(args[-1])[0])
        return original(*args)

    monkeypatch.setattr(roblaw.fit, name, counted)
    m = 3 * 1024 + 5
    sobolev_monte_carlo(_path_models(6, 30)[family], 6, m, 3)
    assert calls == [1024, 1024, 1024, 5]


def test_monte_carlo_kernel_memory_is_bounded_by_the_block():
    n, d, m = 400, 20, 20_000
    data = gen_dataset(n, d, 0.5, 40)
    kernel = DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU)
    models = [KernelModel(kernel=kernel, anchors=data.X, c=data.y * s) for s in (1.0, 0.5)]
    _, peak = peak_bytes(lambda: sobolev_monte_carlo(models, d, m, 41))
    # one m x n array is 64 MB and the m x d sample 3.2 MB; whole-sample
    # gradients peaked at 323 MB here, 1024-row blocks at 20 MB
    assert peak < 32e6


def test_monte_carlo_holds_no_sample_sized_array():
    d, m = 100, 100_000
    model = LinearModel(w=np.random.default_rng(5).normal(size=d))
    _, peak = peak_bytes(lambda: sobolev_monte_carlo([model], d, m, 7))
    # the m x d sample is 80 MB; one 1024-row block is 0.8 MB and the squared
    # norms of one model 0.8 MB
    assert peak < 8e6


def test_monte_carlo_minimum_samples():
    with pytest.raises(InvalidArgument):
        sobolev_monte_carlo([LinearModel(w=np.ones(4))], 4, 50, 0)


def test_poincare_equality_for_linear():
    # (d-1) Var(x.w) = (d-1)|w|^2/d equals the squared seminorm exactly
    m = LinearModel(w=np.random.default_rng(12).normal(size=40))
    bound = poincare_lower_bound(m, 40, 200000, 13)
    exact_sq = m.seminorm ** 2
    assert bound == pytest.approx(exact_sq, rel=0.05)
    assert bound <= exact_sq * 1.05


def test_poincare_holds_no_sample_sized_array():
    d, m = 20, 200_000
    model = _relu_two_layer(d, 30, 17)
    _, peak = peak_bytes(lambda: poincare_lower_bound(model, d, m, 18))
    # the m x d sample is 32 MB and its m x k design 48 MB: the whole-sample
    # bound peaked at 128 MB here, 1024-row blocks at 3.4 MB (the m values
    # 1.6 MB)
    assert peak < 8e6


def test_poincare_below_seminorm_two_layer():
    m = _relu_two_layer(15, 10, 14)
    bound = poincare_lower_bound(m, 15, 50000, 15)
    [est] = sobolev_monte_carlo([m], 15, 50000, 16)
    assert bound <= est.value**2 * 1.1


def test_eta_proxy_direct_sum():
    W = np.array([[1.0, 0.0], [0.6, 0.8]])
    m = _network(SphereSample(W), np.array([1.0, -2.0]))
    assert eta_proxy(m) == pytest.approx(3.0 / math.sqrt(2))


def test_eta_proxy_chain_upper_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        k, d = 6, 9
        W = sample_sphere(d, k, int(rng.integers(1 << 30)))
        m = _network(W, rng.normal(size=k))
        _, v, _ = m.two_layer
        bound = math.sqrt(k) * np.linalg.norm(v) * np.linalg.norm(W.points, axis=1).max()
        assert eta_proxy(m) <= bound + 1e-12


def test_only_two_layer_networks_have_a_two_layer_view():
    rf, ntk, kernel, linear = [_path_models(6, 31)[i] for i in (0, 3, 6, 10)]
    W, v, activation = rf.two_layer
    k = rf.map.weights.count
    assert W is rf.map.weights and activation == rf.map.activation
    assert v.tobytes() == (rf.a / math.sqrt(k)).tobytes()
    # every hidden row has unit norm
    assert eta_proxy(rf) == pytest.approx(np.sum(np.abs(rf.a)) / math.sqrt(k), rel=1e-14)
    for model in (ntk, kernel, linear):
        assert model.two_layer is None
        assert math.isnan(eta_proxy(model))
    assert [math.isnan(x) for x in sobolev_analytic([ntk, kernel, linear])] == [
        True, True, False]


def test_analytic_over_v_norm_band_at_proportional_width():
    # seminorm and output-weight norm are equivalent at k ~ d
    for seed in range(20):
        m = _relu_two_layer(40, 40, 100 + seed)
        ratio = sobolev_analytic([m])[0] / np.linalg.norm(m.two_layer[1])
        assert 0.2 <= ratio <= 3.0
