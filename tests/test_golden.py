"""Golden SHA-256 hashes of small sweep CSVs, one grid per regime, and
counts of the work a trial does: one gram per trial, and one dataset draw,
one test set, one gram, one train and one test design, one Monte-Carlo
sample, one Sobolev matrix and one solve and factorization per lambda for
each (X, W) group of a sweep, whatever its number of noise levels.

Together the grids run the dual (n <= feature dim) and primal (n > feature
dim) solves of `linear`, `rf_finite` and `ntk_finite` and the kernel solve
of `rf_infinite` and `ntk_infinite`, each at lambda 0 and 1e-3. The
finite-width and rf_infinite grids run once more with a Monte-Carlo sample
of several blocks. One more ntk_finite grid has grams wider than
`spectral.DENSE_MAX_SIDE`, whose extremes come from Lanczos; its hash was
recorded after the Lanczos extremes were held to `eigvalsh` within Weyl's
bound (tests/test_spectral.py). Every hash but GOLDEN["rf_infinite"] was
recorded again after the Monte-Carlo estimator folded each model's
coefficients into its gradient operand and projected blocks in its
workspace, once its blocks were held to the whole-sample projection
(tests/test_sobolev.py); only `sobolev_mc` and `sobolev_mc_stderr` moved,
by at most 4.1e-16 relative. `GOLDEN_ZETAS` runs each golden grid at two
noise levels, so its groups solve stacked label vectors; it was recorded
once the rows of such groups were held to their cells run alone
(tests/test_sweep.py), on a SkylakeX kernel. A change that alters any
number a sweep writes, down to the last bit, changes a hash.

The bytes depend on the CPU kernel OpenBLAS picks at run time and on the
thread count of numpy's OpenBLAS, not only on the program. Every hash here
holds with Python 3.11.7, numpy 2.4.6 (scipy-openblas64 0.3.31.188.0) and
scipy 1.17.1 (OpenBLAS 0.3.30), both DYNAMIC_ARCH builds picking their
SkylakeX kernel, on a 2-CPU x86-64 host with no BLAS variable set (numpy's
OpenBLAS on 2 threads). On that host, under `OPENBLAS_CORETYPE=Haswell`
every hash test here fails and the other tests of this file pass; at
`OPENBLAS_NUM_THREADS=1` only the wide-gram hash fails, its grams being
large enough for numpy's threaded GEMM to split them differently. Another
BLAS build, CPU kernel or thread count may so change a hash without any
change to the program.
"""

import csv
import hashlib
import io
import sys
from dataclasses import replace

import numpy as np
import pytest

import roblaw
import roblaw.data
import roblaw.fit
import roblaw.spectral
import roblaw.sphere
from roblaw import ActivationKind, SweepConfig, TrialCell
from roblaw.sweep import TEST_SET_SIZE, run_sweep, run_trial

GRIDS = {
    "linear": dict(n_grid=(6, 20), d_grid=(10,), k_grid=(0,)),
    "rf_finite": dict(n_grid=(8, 30), d_grid=(6,), k_grid=(16,)),
    "ntk_finite": dict(n_grid=(10, 30), d_grid=(4,), k_grid=(5,)),
    "rf_infinite": dict(n_grid=(12,), d_grid=(6,), k_grid=(0,)),
    "ntk_infinite": dict(n_grid=(12,), d_grid=(6,), k_grid=(0,)),
}

GOLDEN = {
    "linear": "5529f2eebd12d0a707bc7923b76c6d9220d87f88f450b2ffca08073b4a9dc6cb",
    "rf_finite": "3fe71e629d05541f2c013914ce37ba48f3504d38c172a25276c125332985af7e",
    "ntk_finite": "818d5701fa44e47da50dbb8dcf317b6cb3a8b5ce2f19f7e58c295b345fdca649",
    "rf_infinite": "c05a75e9ca4a5478ff6cfb42c8461c7a407c5f431d6fffd19b19a95b0eface9c",
    "ntk_infinite": "f748e2323e8149e706d739253723e1515d315e260ced904aebb1970f68de30d7",
}


def _sweep_hash(regime, mc_samples, tmp_path, grid=None, zetas=(0.5,)) -> str:
    """sha256 of the CSV of `grid` (by default the golden grid of `regime`)
    at noise levels `zetas`, every row successful."""
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, lambda_grid=(0.0, 1e-3),
        zeta_grid=zetas, mc_samples=mc_samples, base_seed=3,
        output_path=str(tmp_path / f"{regime}.csv"), **(grid or GRIDS[regime]),
    )
    with open(run_sweep(cfg), "rb") as fh:
        data = fh.read()
    assert all(row["reason"] == "" for row in csv.DictReader(io.StringIO(data.decode())))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("regime", sorted(GRIDS))
def test_sweep_csv_matches_golden_hash(regime, tmp_path):
    assert _sweep_hash(regime, 200, tmp_path) == GOLDEN[regime]


#: the golden grids at two noise levels: each (X, W) group labels one draw at
#: both, and factors its gram once per lambda for the two label vectors
ZETAS = (0.2, 0.7)
GOLDEN_ZETAS = {
    "linear": "92286a5da8e1961db9d0a3ca25879cac4bc3b19d1658ff054d5a2322b190c332",
    "rf_finite": "32a64511e6794239344dd209d89b0ad3d844591f595a74fc9d5d1f7467aac48f",
    "ntk_finite": "db365a5a9379b4412809ae7c399ba8bcd50df8a7baa8ba85ac76a5230baece35",
    "rf_infinite": "5bf96b567a8ef2a98dd2ffb17ac626aafa8f03ed9647546663596c10286b3439",
    "ntk_infinite": "6703ac14d614114c896be81a5252a1c0225e3ce75fd31b40432502f34346ea95",
}


@pytest.mark.parametrize("regime", sorted(GRIDS))
def test_two_zeta_sweep_csv_matches_golden_hash(regime, tmp_path):
    assert _sweep_hash(regime, 200, tmp_path, zetas=ZETAS) == GOLDEN_ZETAS[regime]


#: grids whose Monte-Carlo sample spans two full blocks of
#: `sphere.BLOCK_ROWS` rows and a partial third
BLOCK_MC_SAMPLES = 2 * 1024 + 37
GOLDEN_BLOCKS = {
    "rf_finite": "3342af6ae27f2e4cfcf535e05d7478ed4fd4fe0d22084f20425c172261540419",
    "ntk_finite": "36b277a1fae57ca8a7326d0ca041ccf3856b7b79aa88dab0b65cfa473b68768c",
    "rf_infinite": "a34bb96a7470b17119ccd7369dc811fa563abb8275482b7321061556aa92ec3c",
}


@pytest.mark.parametrize("regime", sorted(GOLDEN_BLOCKS))
def test_multi_block_sweep_csv_matches_golden_hash(regime, tmp_path):
    assert _sweep_hash(regime, BLOCK_MC_SAMPLES, tmp_path) == GOLDEN_BLOCKS[regime]


#: an ntk_finite grid whose grams are wider than `spectral.DENSE_MAX_SIDE`,
#: so their extremes come from Lanczos: n = 1030 runs the dual solve on a
#: 1030 x 1030 gram, n = 1045 the primal one on a 1040 x 1040 gram
WIDE_GRID = dict(n_grid=(1030, 1045), d_grid=(26,), k_grid=(40,))
GOLDEN_WIDE = "79db99f0cf370f215a547b2d9cba752c561dba2b7f2f4804999982ae846f1f39"


def test_wide_gram_sweep_csv_matches_golden_hash(monkeypatch, tmp_path):
    lanczos = _count_calls(monkeypatch, "_top_eigenvalue", roblaw.spectral)
    assert _sweep_hash("ntk_finite", 200, tmp_path, WIDE_GRID) == GOLDEN_WIDE
    assert len(lanczos) == 2 * len(WIDE_GRID["n_grid"])  # lambda_max and lambda_min


def _count_calls(monkeypatch, name, module=roblaw.kernels) -> list:
    """Wrap <module>.<name> wherever a roblaw module bound it; each call
    appends its positional arguments to the returned list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("roblaw") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("regime, n, d, k, name", [
    ("rf_infinite", 12, 6, 0, "gram_dot"),
    ("ntk_finite", 10, 4, 5, "empirical_gram"),
])
def test_one_gram_per_trial(monkeypatch, regime, n, d, k, name):
    calls = _count_calls(monkeypatch, name)
    [rec] = run_trial([TrialCell(regime=regime, activation=ActivationKind.RELU,
                                 n=n, d=d, k=k, lam=0.0, zeta=0.5,
                                 dataset_seed=5, weight_seed=6, mc_samples=200)])
    assert rec.reason == ""
    assert len(calls) == 1


def test_ntk_dual_path_builds_one_gram_and_one_train_design(monkeypatch):
    n, d, k = 30, 4, 10  # n <= k * d: the dual solve
    grams = _count_calls(monkeypatch, "empirical_gram")
    feats = _count_calls(monkeypatch, "features")
    cells = [TrialCell(regime="ntk_finite", activation=ActivationKind.RELU, n=n, d=d, k=k,
                       lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6, mc_samples=200)
             for lam in (0.0, 1e-3)]
    recs = run_trial(cells)
    assert [rec.reason for rec in recs] == ["", ""]
    assert len(grams) == 1 and sum(len(args[1]) == n for args in feats) == 1
    # the rows are those of the cells run alone
    assert [rec.csv_row() for rec in recs] == [run_trial([c])[0].csv_row() for c in cells]


@pytest.mark.parametrize("zetas", [(0.5,), (0.0, 0.5, 1.0)])
@pytest.mark.parametrize("regime, n_grid, d, k", [
    ("ntk_finite", (10, 30), 4, 5),  # n=10 <= kd: empirical_gram; n=30: Z^T Z
    ("rf_finite", (8,), 6, 16),      # Z Z^T
])
def test_sweep_builds_one_gram_and_one_sample_per_lambda_path(
        monkeypatch, tmp_path, regime, n_grid, d, k, zetas):
    lams, mc = (0.0, 1e-4, 1e-3), 200
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, n_grid=n_grid, d_grid=(d,),
        k_grid=(k,), lambda_grid=lams, zeta_grid=zetas, mc_samples=mc,
        base_seed=3, output_path=str(tmp_path / "path.csv"),
    )
    grams = _count_calls(monkeypatch, "empirical_gram")
    feats = _count_calls(monkeypatch, "features")
    solves = _count_calls(monkeypatch, "solve_psd", roblaw.fit)
    factors = _count_calls(monkeypatch, "cholesky", roblaw.fit)
    datasets = _count_calls(monkeypatch, "gen_dataset", roblaw.data)
    tests = _count_calls(monkeypatch, "gen_test_set", roblaw.sweep)
    # every sphere draw, whole or block by block, goes through the drawer
    samples = _count_calls(monkeypatch, "sphere_blocks", roblaw.sphere)
    sobolev_mats = _count_calls(monkeypatch, "c_sigma_sobolev", roblaw.spectral)
    # a singular gram's jitter retries factor again, as often for one zeta
    run_sweep(replace(cfg, zeta_grid=zetas[:1]))
    factors_one_zeta = len(factors)
    for calls in (grams, feats, solves, factors, datasets, tests, samples, sobolev_mats):
        calls.clear()
    run_sweep(cfg)
    # one (X, W) group per n serves every lambda and zeta
    groups = len(n_grid)
    ntk_dual = [n for n in n_grid if regime == "ntk_finite" and n <= k * d]
    assert len(grams) == len(ntk_dual)
    for n in n_grid:
        # features of the training points: one for a gram built from them,
        # and one train design for the predictions of every lambda and zeta
        on_train = sum(len(args[1]) == n for args in feats)
        assert on_train == (n not in ntk_dual) + 1
    assert sum(len(args[1]) == TEST_SET_SIZE for args in feats) == groups
    assert len(datasets) == len(tests) == groups
    # one factorization per lambda solves the labels of every zeta
    assert len(solves) == groups * len(lams)
    assert len(factors) == factors_one_zeta >= len(solves)
    assert [np.shape(args[1]) for args in solves] == [
        (len(zetas), args[0].shape[0]) for args in solves]
    assert len({id(args[0]) for args in solves}) == groups
    assert sum(args[1] == mc for args in samples) == groups
    assert len(sobolev_mats) == (groups if regime == "rf_finite" else 0)


@pytest.mark.parametrize("regime", ["rf_infinite", "ntk_infinite"])
def test_kernel_path_evaluates_one_kernel_matrix_per_point_set(monkeypatch, tmp_path, regime):
    n_grid, lams = (12, 20), (0.0, 1e-4, 1e-3)
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, n_grid=n_grid, d_grid=(6,),
        k_grid=(0,), lambda_grid=lams, zeta_grid=(0.5,), mc_samples=200,
        base_seed=3, output_path=str(tmp_path / "path.csv"),
    )
    builds = _count_calls(monkeypatch, "kernel_matrix")
    run_sweep(cfg)
    # the (points, anchors) of each kernel matrix built
    shapes = [(len(args[1]), len(args[2])) for args in builds]
    for n in n_grid:
        # the gram, which is also the train design, and one test design
        assert shapes.count((n, n)) == 1
        assert shapes.count((TEST_SET_SIZE, n)) == 1
    assert len(shapes) == 2 * len(n_grid)
