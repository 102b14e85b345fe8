import math
import sys
import threading
import weakref
from functools import partial

import numpy as np
import pytest

from roblaw import (
    ActivationKind,
    DotProductKernel,
    FeatureMap,
    InvalidArgument,
    SingularKernel,
    gen_dataset,
    gram_dot,
    mp_atom,
    ridgeless_norm_limit,
    rkhs_norm,
    sample_sphere,
    test_mse as mse_on,
    train_mse,
)
import roblaw.fit
import roblaw.kernels
import scipy.linalg
from roblaw.fit import feature_path, kernel_path, linear_path, solve_psd

from conftest import peak_bytes


def test_solve_psd_matches_direct_solve():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(20, 20))
    K = A @ A.T + np.eye(20)
    y = rng.normal(size=20)
    c, meta = solve_psd(K, y, 0.5)
    np.testing.assert_allclose(c, np.linalg.solve(K + 0.5 * np.eye(20), y), atol=1e-10)
    assert meta == {"jitter": 0.0, "fallback": False}


@pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf, -1.0, -1e-300])
def test_solve_psd_rejects_non_finite_lambda(lam):
    K = np.eye(4) + 0.5
    with pytest.raises(InvalidArgument, match="lambda must be finite"):
        solve_psd(K, np.ones(4), lam)


@pytest.mark.parametrize("K, y", [
    (np.eye(4), np.ones(3)),
    (np.ones((3, 4)), np.ones(3)),
    (np.eye(3), np.ones((3, 4))),
], ids=["short_y", "oblong_K", "long_rows_of_y"])
def test_solve_psd_rejects_shapes_that_do_not_fit(K, y):
    with pytest.raises(InvalidArgument, match="is not square or y"):
        solve_psd(K, y, 0.1)


@pytest.mark.parametrize("n", [40, 2], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", ["linear", "frozen_rf", "ntk"])
def test_a_path_rejects_labels_that_do_not_fit_its_inputs(kind, n):
    # d = 5 and k = 3: 40 inputs take the primal solve of all three feature
    # widths (5, 3 and 15), and 2 inputs the dual one
    X = sample_sphere(5, n, 1)
    build = linear_path if kind == "linear" else partial(
        feature_path, FeatureMap(kind=kind, weights=sample_sphere(5, 3, 2)))
    for y in (np.ones(n - 1), np.ones((2, n + 1))):
        with pytest.raises(InvalidArgument, match="does not fit"):
            build(X, y).fit(0.1)
    with pytest.raises(InvalidArgument, match="arrays of numbers"):
        build(X, [[1.0] * n, [1.0] * (n - 1)]).fit(0.1)


def test_solve_psd_takes_nested_lists():
    c, meta = solve_psd([[2.0, 0], [0, 2.0]], [1.0, 1.0], 0.0)
    ref, ref_meta = solve_psd(np.array([[2.0, 0], [0, 2.0]]), np.array([1.0, 1.0]), 0.0)
    assert c.tobytes() == ref.tobytes() and meta == ref_meta
    with pytest.raises(InvalidArgument, match="arrays of numbers"):
        solve_psd([[2.0, 0], [0]], [1.0, 1.0], 0.0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -0.5])
def test_gen_dataset_rejects_a_noise_level_outside_zero_to_infinity(zeta):
    with pytest.raises(InvalidArgument, match="zeta must be finite and nonnegative"):
        gen_dataset(5, 3, zeta, 0)


def test_solve_psd_rejects_a_shift_that_overflows():
    K = np.eye(3) * 1e308 + 1.0
    with np.errstate(over="ignore"), pytest.raises(InvalidArgument, match="overflows"):
        solve_psd(K, np.ones(3), 1.7e308)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_psd_rejects_a_non_finite_gram_before_factoring(monkeypatch, bad):
    factored = []
    monkeypatch.setattr(roblaw.fit, "cholesky", lambda *args, **kwargs: factored.append(1))
    K = np.eye(4) + 0.5
    K[1, 2] = K[2, 1] = bad
    for lam in (0.0, 1e-3):
        with pytest.raises(InvalidArgument, match="non-finite"):
            solve_psd(K, np.ones(4), lam)
    assert factored == []


def _count_gram_checks(monkeypatch, side) -> list:
    """Record each np.isfinite call on a side x side array."""
    checks, original = [], np.isfinite

    def counted(x, *args, **kwargs):
        if np.shape(x) == (side, side):
            checks.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    return checks


def test_ridge_path_checks_its_gram_once_for_all_lambdas(monkeypatch):
    data = gen_dataset(6, 10, 0.5, 1)
    path = roblaw.fit.linear_path(data.X, data.y)
    checks = _count_gram_checks(monkeypatch, 6)
    lams = (0.0, 1e-4, 1e-3)
    fits = [path.fit(lam) for lam in lams]
    assert len(checks) == 1 and checks[0] is path.gram
    # the bits of a direct solve, which checks the gram itself
    for lam, model in zip(lams, fits):
        c, _ = solve_psd(path.gram, path.rhs, lam)
        assert model.w.tobytes() == (data.X.points.T @ c).tobytes()
    assert len(checks) == 1 + len(lams)


def test_ridge_path_with_a_non_finite_gram_fails_every_lambda_unfactored(monkeypatch):
    factored = []
    monkeypatch.setattr(roblaw.fit, "cholesky", lambda *args, **kwargs: factored.append(1))
    gram = np.eye(3)
    gram[0, 0] = math.nan
    path = roblaw.fit.RidgePath(gram, np.ones(3), lambda c, meta: c)
    for lam in (0.0, 1e-3):
        with pytest.raises(InvalidArgument, match="non-finite"):
            path.fit(lam)
    assert factored == []


@pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0, -1e-300])
def test_ridge_path_rejects_non_finite_lambda(lam):
    data = gen_dataset(6, 10, 0.5, 1)
    path = roblaw.fit.linear_path(data.X, data.y)
    with pytest.raises(InvalidArgument, match="lambda must be finite"):
        path.fit(lam)


def _identity_rf_gram(n, d):
    """The identity-activation rf_infinite gram of n points on S^{d-1}: a
    multiple of X X^T, PSD of rank d."""
    kernel = DotProductKernel(name="rf_infinite", activation=ActivationKind.IDENTITY)
    X = sample_sphere(d, n, 3)
    return gram_dot(kernel, X)


@pytest.mark.parametrize("K", [
    np.outer(np.ones(5), np.ones(5)),  # rank one
    _identity_rf_gram(200, 10),  # rank 10
], ids=["ones", "identity_rf_infinite"])
def test_solve_psd_singular_falls_back(K):
    # a rank-deficient PSD gram factors at the first jitter, 1e-12 * lmax
    y = K @ np.random.default_rng(1).normal(size=len(K))  # in the range of K
    c, meta = solve_psd(K, y, 0.0)
    assert meta == {"jitter": 1e-12 * np.max(np.diag(K)), "fallback": True}
    np.testing.assert_allclose(K @ c, y, rtol=0, atol=1e-10 * np.max(np.abs(y)))


def _spy_cholesky(monkeypatch, fail: bool) -> list:
    """Record the diagonal of each matrix `solve_psd` tries to factor; with
    `fail` every attempt fails."""
    diags, original = [], roblaw.fit.cholesky

    def spy(M, *args, **kwargs):
        diags.append(M.diagonal().copy())
        if fail:
            raise np.linalg.LinAlgError("planted")
        return original(M, *args, **kwargs)

    monkeypatch.setattr(roblaw.fit, "cholesky", spy)
    return diags


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_solve_psd_raises_when_no_jitter_factors(monkeypatch, lam):
    K, _ = _spd(20, 7)
    diags = _spy_cholesky(monkeypatch, fail=True)
    with pytest.raises(SingularKernel, match="does not factor"):
        solve_psd(K, np.ones(20), lam)
    lmax = np.max(np.diag(K))
    expect = [np.diag(K) + lam + j * lmax for j in (0.0, 1e-12, 1e-10)]
    assert len(diags) == 3
    for got, want in zip(diags, expect):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("K", [
    np.zeros((3, 3)),
    np.array([[0.0, 2.0], [2.0, 0.0]]),  # indefinite: eigenvalues 2, -2
], ids=["zero", "zero_diagonal"])
def test_solve_psd_rejects_a_zero_gram(monkeypatch, K):
    diags = _spy_cholesky(monkeypatch, fail=True)
    with pytest.raises(SingularKernel, match="zero diagonal"):
        solve_psd(K, np.ones(len(K)), 0.0)
    assert diags == []
    monkeypatch.undo()
    y = np.arange(1.0, len(K) + 1)
    if np.any(K):  # K + 0.5 I has eigenvalues 2.5 and -1.5
        with pytest.raises(SingularKernel, match="does not factor"):
            solve_psd(K, y, 0.5)
    else:  # K + lam I = lam I factors
        c, meta = solve_psd(K, y, 0.5)
        np.testing.assert_allclose(c, y / 0.5, rtol=1e-15)
        assert meta == {"jitter": 0.0, "fallback": False}


def test_solve_psd_rejects_an_indefinite_gram():
    # a pseudo-inverse would drop the -1 and give [1, 1, 0]
    with pytest.raises(SingularKernel, match="does not factor, last jitter tried 1e-10"):
        solve_psd(np.diag([1.0, 1.0, -1.0]), np.ones(3), 0.0)


def _spd(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return A @ A.T + n * np.eye(n), np.ones(n)


def _fail_first_factorization(monkeypatch) -> list:
    """Make the first `cho_factor` call fail as a factorization that stops
    halfway does: it scribbles NaN over an array it may overwrite, then
    raises. Later calls run; the returned list collects their factors."""
    original, made = scipy.linalg.cho_factor, []

    def fail_once(a, *args, **kwargs):
        if not made:
            made.append(None)
            if kwargs.get("overwrite_a"):
                a[...] = np.nan
            raise np.linalg.LinAlgError("planted")
        made.append(original(a, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scipy.linalg, "cho_factor", fail_once)
    return made


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("retry", [False, True])
def test_solve_psd_never_writes_to_its_gram(monkeypatch, lam, retry):
    K, y = _spd(200, 4)
    before = K.tobytes()
    if retry:
        _fail_first_factorization(monkeypatch)
    factors = []
    _, meta = solve_psd(K, y, lam, factors.append)
    assert K.tobytes() == before
    assert (meta["jitter"] > 0) == retry
    assert len(factors) == (lam == 0 and not retry)


def test_a_retry_factors_the_shifted_gram_with_its_jitter_bit_for_bit(monkeypatch):
    K, y = _spd(200, 5)
    lam, n = 1e-3, len(K)
    original = scipy.linalg.cho_factor
    made = _fail_first_factorization(monkeypatch)
    c, meta = solve_psd(K, y, lam)
    jitter = meta["jitter"]
    assert jitter == 1e-12 * float(np.max(np.diag(K)))
    roblaw.fit._one_scipy_thread()
    ref = original(K + lam * np.eye(n) + jitter * np.eye(n), lower=True, check_finite=False)
    ref_c = scipy.linalg.cho_solve(ref, y, check_finite=False)
    assert made[-1][0].tobytes() == ref[0].tobytes()
    assert c.tobytes() == ref_c.tobytes()


def test_every_path_builds_an_exactly_symmetric_gram():
    # solve_psd factors the transpose of its copy of the gram, which is the
    # gram itself only when the two agree bit for bit
    d, k = 10, 30
    W = sample_sphere(d, k, 3)
    small, large = gen_dataset(20, d, 0.5, 1), gen_dataset(400, d, 0.5, 2)
    paths = {
        f"kernel {name}": roblaw.fit.kernel_path(
            DotProductKernel(name=name, activation=ActivationKind.RELU), large.X, large.y)
        for name in ("rf_infinite", "ntk_infinite")
    }
    for kind in ("frozen_rf", "ntk"):
        fmap = FeatureMap(kind=kind, weights=W, activation=ActivationKind.RELU)
        paths[f"{kind} dual"] = roblaw.fit.feature_path(fmap, small.X, small.y)
        paths[f"{kind} primal"] = roblaw.fit.feature_path(fmap, large.X, large.y)
    tiny = gen_dataset(6, d, 0.5, 3)
    paths["linear dual"] = roblaw.fit.linear_path(tiny.X, tiny.y)
    paths["linear primal"] = roblaw.fit.linear_path(large.X, large.y)
    sides = {name: len(path.gram) for name, path in paths.items()}
    assert sides == {"kernel rf_infinite": 400, "kernel ntk_infinite": 400,
                     "frozen_rf dual": 20, "frozen_rf primal": k,
                     "ntk dual": 20, "ntk primal": k * d,
                     "linear dual": 6, "linear primal": d}
    for name, path in paths.items():
        assert path.gram.tobytes() == path.gram.T.tobytes(), name


def test_a_ridge_solve_holds_one_array_of_the_gram_size():
    K, y = _spd(1100, 6)
    _, peak = peak_bytes(lambda: solve_psd(K, y, 1e-3))
    # the shifted copy, factored in place, and the n x n boolean finiteness
    # check of K (an eighth of it); forming K + lam*I and letting cho_factor
    # make its transposing copy peaks at two copies
    assert peak < 1.5 * K.nbytes


def _record_threads(monkeypatch, get, fail=False):
    """Wrap scipy's cho_factor to record the scipy BLAS thread count each
    call sees; with fail, each call raises after recording."""
    seen, original = [], scipy.linalg.cho_factor

    def recorded(*args, **kwargs):
        seen.append(get())
        if fail:
            raise ValueError("planted failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recorded)
    return seen


@pytest.mark.parametrize("found", [2, 1])
def test_solve_psd_factors_on_one_scipy_thread(monkeypatch, scipy_blas_threads, found):
    get, put = scipy_blas_threads
    put(found)
    K, y = _spd(150, 1)
    seen = _record_threads(monkeypatch, get)
    c, _ = solve_psd(K, y, 0.0)
    np.testing.assert_allclose(K @ c, y, rtol=1e-10)
    assert seen == [1]
    put(found)
    seen = _record_threads(monkeypatch, get, fail=True)
    with pytest.raises(ValueError, match="planted"):
        solve_psd(K, y, 0.0)
    assert seen == [1]


def test_scipy_thread_pin_holds_across_threads(monkeypatch, scipy_blas_threads):
    # more threads than CPUs and a short switch interval: a holder that
    # restored the count while another still solves would show a 2
    get, put = scipy_blas_threads
    put(2)
    seen = _record_threads(monkeypatch, get)
    K, y = _spd(120, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [solve_psd(K, y, 1e-3) for _ in range(30)])
                   for _ in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(seen) == 180 and set(seen) == {1}


def test_solve_psd_without_setter_runs_unpinned_and_warns_once(monkeypatch):
    def no_setter():
        raise LookupError("no setter")

    # the setter is looked up once per process: clear what an earlier test
    # cached, and leave no no-op setter behind for a later one
    roblaw.fit._scipy_blas_setter.cache_clear()
    monkeypatch.setattr(roblaw.fit, "_scipy_blas_threads", no_setter)
    K, y = _spd(20, 3)
    try:
        with pytest.warns(RuntimeWarning, match="no setter") as caught:
            for lam in (0.0, 0.5):
                c, _ = solve_psd(K, y, lam)
                np.testing.assert_allclose(c, np.linalg.solve(K + lam * np.eye(20), y))
    finally:
        roblaw.fit._scipy_blas_setter.cache_clear()
    assert len(caught) == 1


def test_kernel_fit_interpolates_at_zero_ridge():
    data = gen_dataset(30, 50, 0.5, 1)
    model = kernel_path(DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU),
                        data.X, data.y).fit(0.0)
    assert train_mse(model, data) < 1e-12


def test_kernel_fit_ridge_normal_equations():
    data = gen_dataset(25, 40, 0.3, 2)
    kernel = DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU)
    lam = 0.1
    model = kernel_path(kernel, data.X, data.y).fit(lam)
    K = gram_dot(kernel, data.X)
    ref = np.linalg.solve(K + lam * np.eye(25), data.y)
    np.testing.assert_allclose(model.c, ref, atol=1e-10)


def test_feature_fit_dual_primal_agree():
    # with a ridge both solve paths give the same predictor
    d, k, lam = 20, 12, 0.05
    W = sample_sphere(d, k, 3)
    fmap = FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.RELU)
    data_small = gen_dataset(8, d, 0.2, 4)   # n < k: dual path
    data_large = gen_dataset(40, d, 0.2, 5)  # n > k: primal path
    from roblaw import features

    for data in (data_small, data_large):
        model = feature_path(fmap, data.X, data.y).fit(lam)
        Z = features(fmap, data.X.points)
        a_ref = np.linalg.solve(Z.T @ Z + lam * np.eye(k), Z.T @ data.y)
        np.testing.assert_allclose(model.a, a_ref, atol=1e-8)


def _rf_map(kind):
    return FeatureMap(kind=kind, weights=sample_sphere(20, 12, 3))


@pytest.mark.parametrize("n, path", [
    (8, lambda X, y: roblaw.fit.kernel_path(
        DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU), X, y)),
    (8, lambda X, y: roblaw.fit.feature_path(_rf_map("frozen_rf"), X, y)),
    (40, lambda X, y: roblaw.fit.feature_path(_rf_map("frozen_rf"), X, y)),
    (8, lambda X, y: roblaw.fit.feature_path(_rf_map("ntk"), X, y)),
    (8, roblaw.fit.linear_path),
    (40, roblaw.fit.linear_path),
], ids=["kernel", "rf-dual", "rf-primal", "ntk-dual", "linear-dual", "linear-primal"])
def test_every_path_rejects_a_nan_label_in_solve_psd(n, path):
    data = gen_dataset(n, 20, 0.2, 4)
    y = data.y.copy()
    y[1] = math.nan
    with pytest.raises(InvalidArgument, match="non-finite entries in solve"):
        path(data.X, y).fit(0.0)


def test_dual_rf_fit_builds_features_once(monkeypatch):
    d, k = 20, 12
    fmap = FeatureMap(kind="frozen_rf", weights=sample_sphere(d, k, 3))
    data = gen_dataset(8, d, 0.2, 4)  # n < k: dual path
    calls = []
    original = roblaw.kernels.rf_features

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(roblaw.kernels, "rf_features", counted)
    path = roblaw.fit.feature_path(fmap, data.X, data.y)
    model = path.fit(0.0)
    assert len(calls) == 1
    np.testing.assert_array_equal(path.gram, path.gram.T)
    assert train_mse(model, data) < 1e-12


def test_ntk_feature_fit_interpolates():
    d, k = 10, 6
    W = sample_sphere(d, k, 6)
    fmap = FeatureMap(kind="ntk", weights=W, activation=ActivationKind.RELU)
    data = gen_dataset(20, d, 0.4, 7)  # n < k*d: dual path
    model = feature_path(fmap, data.X, data.y).fit(0.0)
    assert model.a.shape == (k * d,)
    assert train_mse(model, data) < 1e-12


def test_linear_minnorm_matches_lstsq():
    data = gen_dataset(15, 30, 0.2, 8)
    model = linear_path(data.X, data.y).fit(0.0)
    ref, *_ = np.linalg.lstsq(data.X.points, data.y, rcond=None)
    np.testing.assert_allclose(model.w, ref, atol=1e-9)
    assert train_mse(model, data) < 1e-20


def test_linear_ridge_overdetermined_matches_lstsq():
    data = gen_dataset(60, 20, 0.5, 10)
    model = linear_path(data.X, data.y).fit(0.0)
    ref, *_ = np.linalg.lstsq(data.X.points, data.y, rcond=None)
    np.testing.assert_allclose(model.w, ref, atol=1e-8)


def test_train_test_mse_definitions():
    data = gen_dataset(8, 12, 0.0, 11)
    model = linear_path(data.X, data.y).fit(0.0)
    assert train_mse(model, data) == pytest.approx(
        float(np.mean((model.predict(data.X.points) - data.y) ** 2))
    )
    fresh = gen_dataset(20, 12, 0.0, 12)
    assert mse_on(model, fresh) >= 0


def test_every_model_predicts_through_its_design():
    data = gen_dataset(9, 5, 0.3, 21)
    W = sample_sphere(5, 7, 22)
    kernel = DotProductKernel(name="ntk_infinite", activation=ActivationKind.ABS)
    models = [
        linear_path(data.X, data.y).fit(1e-3),
        kernel_path(kernel, data.X, data.y).fit(1e-3),
        feature_path(FeatureMap(kind="frozen_rf", weights=W), data.X, data.y).fit(1e-3),
        feature_path(FeatureMap(kind="ntk", weights=W), data.X, data.y).fit(1e-3),
        roblaw.fit.FeatureModel(map=FeatureMap(kind="frozen_rf", weights=W,
                                               activation=ActivationKind.RELU),
                                a=np.arange(7.0)),
    ]
    X = sample_sphere(5, 13, 23).points
    for model in models:
        design = model.design(X)
        assert design.shape[0] == 13
        assert model.predict(X).tobytes() == (design @ model.coef).tobytes()
        assert train_mse(model, data, model.design(data.X.points)) == train_mse(model, data)
        # one point: the same product, a numpy scalar from every class
        one = model.predict(X[0])
        assert type(one) is np.float64
        assert one.tobytes() == (model.design(X[0]) @ model.coef).tobytes()


@pytest.mark.parametrize("name", ["rf_infinite", "ntk_infinite"])
def test_kernel_model_rejects_points_off_the_sphere(name):
    data = gen_dataset(20, 5, 0.1, 1)
    kernel = DotProductKernel(name=name, activation=ActivationKind.RELU)
    model = roblaw.fit.kernel_path(kernel, data.X, data.y).fit(1e-3)
    x = data.X.points[0]
    assert np.isfinite(model.predict(x))
    for point in (2 * x, np.vstack([x, 2 * x])):
        for f in (model.design, model.predict,
                  lambda p: roblaw.kernels.model_gradient(model, p)):
            with pytest.raises(InvalidArgument, match="unit norm"):
                f(point)


@pytest.mark.parametrize("entry", [
    lambda model, x: model.design(x),
    lambda model, x: model.predict(x),
    roblaw.kernels.model_gradient,
], ids=["design", "predict", "model_gradient"])
@pytest.mark.parametrize("model_class", ["LinearModel", "KernelModel", "FeatureModel",
                                         "FeatureModel-ntk"])
def test_a_point_of_another_dimension_raises_invalid_argument(model_class, entry):
    data = gen_dataset(9, 5, 0.3, 21)
    W = sample_sphere(5, 7, 22)
    model = {
        "LinearModel": lambda: linear_path(data.X, data.y).fit(1e-3),
        "KernelModel": lambda: kernel_path(
            DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU),
            data.X, data.y).fit(1e-3),
        "FeatureModel": lambda: feature_path(
            FeatureMap(kind="frozen_rf", weights=W), data.X, data.y).fit(1e-3),
        "FeatureModel-ntk": lambda: feature_path(
            FeatureMap(kind="ntk", weights=W), data.X, data.y).fit(1e-3),
    }[model_class]()
    assert type(model).__name__ == model_class.split("-")[0]
    x = sample_sphere(3, 2, 23).points  # unit points of dimension 3, not 5
    for point in (x[0], x):
        with pytest.raises(InvalidArgument, match="must have dimension 5"):
            entry(model, point)


def test_rkhs_norm_quadratic_form():
    data = gen_dataset(10, 16, 0.1, 13)
    kernel = DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU)
    path = roblaw.fit.kernel_path(kernel, data.X, data.y)
    model = path.fit(0.0)
    K = gram_dot(kernel, data.X)
    np.testing.assert_array_equal(path.gram, K)
    assert rkhs_norm(model, path.gram) == pytest.approx(math.sqrt(model.c @ K @ model.c))


@pytest.mark.parametrize("n", [8, 40])  # an NTK dual and primal path, k d = 20
def test_fitted_models_do_not_keep_their_path_gram_alive(n):
    d, k = 5, 4
    W = sample_sphere(d, k, 3)
    data = gen_dataset(n, d, 0.5, 4)
    kernel = DotProductKernel(name="ntk_infinite", activation=ActivationKind.RELU)
    paths = [roblaw.fit.kernel_path(kernel, data.X, data.y),
             roblaw.fit.linear_path(data.X, data.y)] + [
        roblaw.fit.feature_path(FeatureMap(kind=kind, weights=W), data.X, data.y)
        for kind in ("frozen_rf", "ntk")]
    models, grams = [], []
    for path in paths:
        models += [path.fit(lam) for lam in (0.0, 1e-3)]
        grams.append(weakref.ref(path.gram))
    del paths, path
    assert [gram() for gram in grams] == [None] * 4
    assert all(math.isfinite(train_mse(model, data)) for model in models)


def test_reference_limits():
    assert ridgeless_norm_limit(0.5) == 2.0
    assert ridgeless_norm_limit(2.0) == 1.0
    assert ridgeless_norm_limit(1.0) == math.inf
    assert mp_atom(0.5) == 0.0
    assert mp_atom(2.0) == 0.5
