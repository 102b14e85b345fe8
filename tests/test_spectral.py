import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.integrate import quad

import roblaw.fit
import roblaw.spectral
from roblaw import (
    ActivationKind,
    FeatureMap,
    InvalidArgument,
    LinearizationCoeffs,
    c_phi_monte_carlo,
    c_sigma_cov,
    c_sigma_sobolev,
    gen_dataset,
    gram_spectrum,
    kappa_tilde,
    linearized_c,
    mp_atom,
    mp_cdf,
    mp_edges,
    mp_integral,
    op_distance,
    relu_cov_linearization,
    SphereSample,
    sample_sphere,
    sym_eigs,
)
from roblaw.fit import feature_path, linear_path
from roblaw.spectral import DENSE_MAX_SIDE
from roblaw.sweep import REGIME_TABLE


def test_sym_eigs_matches_numpy():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(12, 12))
    A = A + A.T
    s = sym_eigs(A)
    ref = np.linalg.eigvalsh(A)[::-1]
    assert s.lambda_max == pytest.approx(ref[0])
    assert s.lambda_min == pytest.approx(ref[-1])
    assert s.cond == math.inf  # indefinite matrix


def test_sym_eigs_cond_of_a_positive_definite_matrix():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(9, 9))
    A = A @ A.T
    s = sym_eigs(A)
    assert s.cond == pytest.approx(np.linalg.cond(A), rel=1e-8)


def test_sym_eigs_is_eigvalsh_of_an_exactly_symmetric_matrix_bitwise():
    B = np.random.default_rng(3).normal(size=(30, 30))
    A = B @ B.T
    ref = np.linalg.eigvalsh(A)
    s = sym_eigs(A)
    assert (s.lambda_min, s.lambda_max) == (ref[0], ref[-1])


@pytest.mark.parametrize("skew", [1e-13, 1.0])
def test_sym_eigs_rejects_a_matrix_not_exactly_symmetric(skew):
    B = np.random.default_rng(3).normal(size=(30, 30))
    with pytest.raises(InvalidArgument, match="not exactly symmetric"):
        sym_eigs(B @ B.T + skew * np.triu(B))


def test_sym_eigs_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        sym_eigs(np.ones((2, 3)))
    with pytest.raises(InvalidArgument):
        sym_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidArgument):
        sym_eigs(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_op_distance_basic():
    A = np.diag([3.0, 1.0])
    B = np.diag([1.0, 1.0])
    assert op_distance(A, B) == pytest.approx(2.0)
    assert op_distance(A, A) == pytest.approx(0.0, abs=1e-14)


def test_c_sigma_sobolev_entries():
    d = 8
    W = sample_sphere(d, 4, 1)
    C = c_sigma_sobolev(W, ActivationKind.RELU)
    T = W.points @ W.points.T
    for i in range(4):
        for j in range(4):
            assert C[i, j] == pytest.approx(
                kappa_tilde(ActivationKind.RELU, d, T[i, j]), abs=1e-12
            )


def test_c_sigma_cov_matches_feature_covariance():
    # entries phi(w_i . w_j) - phi(0) equal cov(sqrt(d) sigma(Wx)) up to
    # O(1/d) sphere corrections; check against Monte Carlo at moderate d
    d, k = 60, 5
    W = sample_sphere(d, k, 2)
    C = c_sigma_cov(W, ActivationKind.RELU)
    X = sample_sphere(d, 300000, 3).points
    Z = np.maximum(X @ W.points.T, 0.0) * math.sqrt(d)
    emp = np.cov(Z.T)
    assert np.abs(C - emp).max() < 0.02


def test_linearized_c_assembly():
    W = SphereSample(np.eye(3))
    L = linearized_c(W, LinearizationCoeffs(0.1, 0.25, 0.05, correction=0.01))
    ref = 0.11 * np.ones((3, 3)) + 0.25 * np.eye(3) + 0.05 * np.eye(3)
    np.testing.assert_allclose(L, ref, atol=1e-14)


def test_relu_linearization_improves_with_dimension():
    dists = []
    for d in (40, 160):
        W = sample_sphere(d, d, d)
        C = c_sigma_cov(W, ActivationKind.RELU)
        dists.append(op_distance(C, linearized_c(W, relu_cov_linearization(d))))
    assert dists[1] < dists[0]


def test_c_phi_monte_carlo_rf_close_to_analytic():
    d, k = 80, 6
    W = sample_sphere(d, k, 9)
    fmap = FeatureMap(kind="frozen_rf", weights=W, activation=ActivationKind.RELU)
    C = c_phi_monte_carlo(fmap, 200000, 10) * k  # undo 1/sqrt(k) twice
    ref = c_sigma_cov(W, ActivationKind.RELU)
    assert np.abs(C - ref).max() < 0.02


def _mp_density(gamma: float, t: float) -> float:
    """The continuous Marchenko-Pastur density with ratio gamma, unit scale:
    sqrt((t+ - t)(t - t-)) / (2 pi gamma t) on [t-, t+], 0 elsewhere; the
    atom at zero (gamma > 1) is `mp_atom`. The reference `mp_cdf` is
    checked against."""
    lo, hi = mp_edges(gamma)
    if not lo < t < hi:
        return 0.0
    return math.sqrt((hi - t) * (t - lo)) / (2 * math.pi * gamma * t)


def test_mp_density_normalizes():
    for gamma in (0.3, 1.0, 2.5):
        lo, hi = mp_edges(gamma)
        mass, _ = quad(lambda t: _mp_density(gamma, t), lo, hi, limit=300)
        assert mass + mp_atom(gamma) == pytest.approx(1.0, abs=1e-6)


def test_mp_cdf_monotone_and_bounded():
    gamma = 2.0
    ts = np.linspace(-0.5, 10.0, 40)
    F = np.asarray(mp_cdf(gamma, ts))
    assert np.all(np.diff(F) >= -1e-12)
    assert F[0] == 0.0 and F[-1] == 1.0
    assert mp_cdf(gamma, 0.0) == pytest.approx(0.5)  # atom (1 - 1/2)


def test_mp_integral_reference_values():
    assert mp_integral(0.5, 0.0, "norm") == pytest.approx(2.0, abs=1e-6)
    assert mp_integral(2.0, 0.0, "mse") == pytest.approx(0.5, abs=1e-12)
    assert mp_integral(2.0, 0.0, "norm") == math.inf
    assert mp_integral(0.5, 1e6, "norm") == pytest.approx(0.0, abs=1e-5)
    assert mp_integral(0.5, 0.0, "mse") == pytest.approx(0.0, abs=1e-12)


def test_mp_cdf_matches_quad():
    # scipy's quad at its default tolerance, which mp_cdf used before, was
    # 5.8e-11 off the tight quad below on this grid
    worst = 0.0
    for gamma in (0.25, 0.9, 2.0, 4.0):
        lo, hi = mp_edges(gamma)
        ts = np.linspace(lo, hi, 13)[1:-1]
        got = mp_cdf(gamma, ts)
        for t, f in zip(ts, got):
            mass, _ = quad(lambda u: _mp_density(gamma, u), lo, t,
                           epsabs=1e-14, epsrel=1e-13, limit=500)
            worst = max(worst, abs(f - mp_atom(gamma) - mass))
    assert worst <= 1e-13


def test_mp_cdf_returns_a_float_only_for_a_scalar():
    gamma = 0.5
    t = 1.2
    assert type(mp_cdf(gamma, t)) is float
    assert type(mp_cdf(gamma, np.float64(t))) is float
    one = mp_cdf(gamma, np.array([t]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == mp_cdf(gamma, t)
    grid = np.array([[-1.0, 0.0, 1.2], [3.0, 10.0, math.nan]])
    got = mp_cdf(gamma, grid)
    assert got.shape == grid.shape
    assert got[0, 0] == 0.0 and got[0, 1] == 0.0 and got[1, 1] == 1.0
    assert got[0, 2] == mp_cdf(gamma, 1.2) and math.isnan(got[1, 2])


def _mp_closed_forms(gamma: float, nlambda: float) -> tuple:
    """(norm, mse) of `mp_integral` from the MP Stieltjes transform
    m(z) = (1 - g - z - sqrt((z - 1 - g)^2 - 4g)) / (2 g z) and its
    derivative at z = -s, s = nlambda, in 40-digit decimals: with the atom
    (1 - 1/g)_+ removed from m, int t/(t+s)^2 = m - s m' and
    1 - 2 int t/(t+s) + int t^2/(t+s)^2 = atom + s^2 m'. At z = -s,
    m = (R - b)/(2 g s) with b = 1 - g + s and R = sqrt((s + 1 + g)^2 - 4g),
    and m' = (g m^2 + m)/R."""
    with localcontext() as ctx:
        ctx.prec = 40
        g, s = Decimal(gamma), Decimal(nlambda)
        atom = max(Decimal(0), 1 - 1 / g)
        b = 1 - g + s
        R = ((s + 1 + g) ** 2 - 4 * g).sqrt()
        m = (R - b) / (2 * g * s)
        dm = (g * m * m + m) / R
        m_cont, dm_cont = m - atom / s, dm - atom / (s * s)
        return float(m_cont - s * dm_cont), float(atom + s * s * dm_cont)


def test_mp_integral_matches_stieltjes_closed_form():
    # scipy's quad, which this rule replaced, was off by 2.0e-11 (norm) and
    # 1.4e-8 (mse) relative on this grid
    for gamma in (0.25, 0.5, 0.9, 1.5, 2.0, 4.0):
        for nlambda in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            norm, mse = _mp_closed_forms(gamma, nlambda)
            assert mp_integral(gamma, nlambda, "norm") == pytest.approx(norm, rel=1e-13, abs=0)
            assert mp_integral(gamma, nlambda, "mse") == pytest.approx(mse, rel=1e-13, abs=0)


def test_mp_integral_matches_empirical_resolvent():
    # direct eigenvalue average of a big sample covariance matrix
    n, d, nlam = 400, 800, 5.0
    G = sample_sphere(d, n, 11).points * math.sqrt(d)
    ev = np.linalg.eigvalsh(G @ G.T / d)
    emp = np.mean(ev / (ev + nlam) ** 2)
    ref = mp_integral(0.5, nlam, "norm")
    assert emp == pytest.approx(ref, rel=0.05)


def test_mp_invalid_arguments():
    with pytest.raises(InvalidArgument):
        mp_integral(-1.0, 0.0, "norm")
    with pytest.raises(InvalidArgument):
        mp_integral(0.5, 0.0, "other")


def _ntk_gram(n, d, k):
    """The gram an ntk_finite path factors: Z^T Z for n > kd, else Z Z^T."""
    W = sample_sphere(d, k, 2)
    data = gen_dataset(n, d, 0.5, 1)
    return feature_path(FeatureMap("ntk", W), data.X, data.y).gram


WIDE_GRAMS = {
    "ntk_primal": lambda: _ntk_gram(1045, 26, 40),  # 1040 x 1040, cond 1.3e7
    "ntk_dual": lambda: _ntk_gram(1100, 50, 40),    # 1100 x 1100
    "linear_dual": lambda: linear_path(sample_sphere(1100, 1050, 1), np.zeros(1050)).gram,
}


@pytest.fixture(scope="module", params=sorted(WIDE_GRAMS))
def wide_gram(request):
    G = WIDE_GRAMS[request.param]()
    assert G.shape[0] > DENSE_MAX_SIDE
    return request.param, G


@pytest.fixture
def dense_calls(monkeypatch):
    """The matrices that `gram_spectrum` hands to `sym_eigs`."""
    calls, original = [], roblaw.spectral.sym_eigs

    def recorded(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(roblaw.spectral, "sym_eigs", recorded)
    return calls


def test_wide_gram_extremes_agree_with_eigvalsh_within_weyl_bound(wide_gram, dense_calls):
    name, G = wide_gram
    s = gram_spectrum(G)
    ref = np.linalg.eigvalsh(G)
    assert dense_calls == []  # from Lanczos, not a fallback
    bound = 10 * G.shape[0] * np.finfo(float).eps * ref[-1]
    assert abs(s.lambda_max - ref[-1]) <= bound
    assert abs(s.lambda_min - ref[0]) <= bound
    assert s.cond == s.lambda_max / s.lambda_min
    if name == "ntk_primal":
        assert ref[-1] / ref[0] >= 1e6


def test_wide_gram_spectrum_takes_a_given_factor(wide_gram):
    _, G = wide_gram
    factor = roblaw.fit.cholesky(G)
    assert gram_spectrum(G, factor) == gram_spectrum(G)


def test_wide_gram_spectrum_bits_survive_an_unrelated_eigsh_call(wide_gram):
    _, G = wide_gram
    first = gram_spectrum(G)
    A = np.random.default_rng().standard_normal((60, 60))
    scipy.sparse.linalg.eigsh(A + A.T, k=2)  # start vector from OS entropy
    again = gram_spectrum(G)
    assert (again.lambda_min, again.lambda_max, again.cond) == (
        first.lambda_min, first.lambda_max, first.cond)


def test_singular_wide_gram_falls_back_to_eigvalsh(dense_calls):
    Z = np.random.default_rng(3).standard_normal((1100, 40))
    G = Z @ Z.T  # rank 40: its Cholesky fails
    with pytest.raises(np.linalg.LinAlgError):
        roblaw.fit.cholesky(G)
    s = gram_spectrum(G)
    assert len(dense_calls) == 1 and dense_calls[0] is G
    assert s == sym_eigs(G)


def test_wide_gram_falls_back_to_eigvalsh_when_lanczos_does_not_converge(monkeypatch,
                                                                         dense_calls):
    G = _ntk_gram(1100, 50, 40)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("planted", np.empty(0), np.empty(0))

    monkeypatch.setattr(roblaw.spectral, "eigsh", no_convergence)
    s = gram_spectrum(G)
    assert len(dense_calls) == 1 and dense_calls[0] is G
    assert s == sym_eigs(G)


@pytest.mark.parametrize("handed_in", [False, True], ids=["own_factor", "handed_in_factor"])
def test_wide_gram_lanczos_runs_on_one_scipy_thread(monkeypatch, scipy_blas_threads, handed_in,
                                                    dense_calls):
    # the caller sets the count to 2 after making the factor it hands in
    get, put = scipy_blas_threads
    monkeypatch.setattr(roblaw.spectral, "DENSE_MAX_SIDE", 40)
    Z = np.random.default_rng(5).standard_normal((60, 80))
    G = Z @ Z.T
    factor = roblaw.fit.cholesky(G) if handed_in else None
    put(2)
    seen = {"cho_solve": [], "eigsh": []}

    def recorded(name):
        original = getattr(roblaw.spectral, name)

        def call(*args, **kwargs):
            seen[name].append(get())
            return original(*args, **kwargs)
        return call

    for name in seen:
        monkeypatch.setattr(roblaw.spectral, name, recorded(name))
    gram_spectrum(G, factor)
    assert dense_calls == []  # from Lanczos, not a fallback
    assert len(seen["eigsh"]) == 2 and seen["cho_solve"]
    assert set(seen["eigsh"] + seen["cho_solve"]) == {1}


@pytest.mark.parametrize("n", [1, 30, DENSE_MAX_SIDE])
def test_narrow_gram_spectrum_is_sym_eigs(n):
    Z = np.random.default_rng(n).standard_normal((n, n + 5))
    G = Z @ Z.T
    assert gram_spectrum(G) == sym_eigs(G)


def test_hidden_weights_build_their_cosines_once():
    W = sample_sphere(7, 30, 4)
    T = W.cosines
    assert T is W.cosines
    assert not T.flags.writeable
    assert np.array_equal(T, np.clip(W.points @ W.points.T, -1.0, 1.0))


@pytest.mark.parametrize("k", [7, 1000])
@pytest.mark.parametrize("kind", [ActivationKind.RELU, ActivationKind.ABS])
def test_every_c_matrix_is_exactly_symmetric(kind, k):
    # each is an entrywise profile of W W^T, itself exactly symmetric, so
    # sym_eigs takes it as it is
    d = 17
    W = sample_sphere(d, k, k)
    mats = {"c_sigma_sobolev": c_sigma_sobolev(W, kind), "c_sigma_cov": c_sigma_cov(W, kind)}
    mats.update((name, regime.c_matrix(W, kind)) for name, regime in REGIME_TABLE.items()
                if regime.c_matrix is not None)
    assert set(mats) == {"c_sigma_sobolev", "c_sigma_cov", "rf_finite", "ntk_finite"}
    for name, C in mats.items():
        assert C.shape == (k, k)
        assert C.tobytes() == C.T.tobytes(), name


@pytest.mark.parametrize("kind", ["frozen_rf", "ntk"])
def test_monte_carlo_feature_covariance_is_exactly_symmetric(kind):
    W = sample_sphere(5, 7, 1)
    C = c_phi_monte_carlo(FeatureMap(kind=kind, weights=W), 1000, 2)
    assert C.tobytes() == C.T.tobytes()
