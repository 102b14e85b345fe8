"""Golden SHA-256 hashes of small sweep CSVs, one grid per regime, and
counts of the work a trial does: one gram per trial, and one gram, one
train and one test design, one Monte-Carlo sample, one Sobolev matrix and
one solve per lambda for each lambda path of a sweep.

Together the grids run the dual (n <= feature dim) and primal (n > feature
dim) solves of `linear`, `rf_finite` and `ntk_finite` and the kernel solve
of `rf_infinite` and `ntk_infinite`, each at lambda 0 and 1e-3. The
finite-width and rf_infinite grids run once more with a Monte-Carlo sample
of several blocks. One more ntk_finite grid has grams wider than
`spectral.DENSE_MAX_SIDE`, whose extremes come from Lanczos; its hash was
recorded after the Lanczos extremes were held to `eigvalsh` within Weyl's
bound (tests/test_spectral.py). A change that alters any number a sweep
writes, down to the last bit, changes a hash.

The hashes were recorded with Python 3.11.7, numpy 2.4.6 (scipy-openblas64
0.3.31.188.0) and scipy 1.17.1 (OpenBLAS 0.3.30), DYNAMIC_ARCH on an x86-64
Haswell kernel (`GOLDEN_BLOCKS` on a SkylakeX kernel, where `GOLDEN` holds
too). Another BLAS build or CPU kernel may round differently and
change the hashes without any change to the program.
"""

import csv
import hashlib
import io
import sys

import numpy as np
import pytest

import roblaw
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
    "linear": "06bc76717192076a8b4284964bd7a34cf9ec30cab22885fe379b65b6e9c656f5",
    "rf_finite": "8969f7e93883baadb9a8909376c46b7b4b16955ce14cb1cec6687921f9ec0b3a",
    "ntk_finite": "65deb11f2485faaf82907e6bc29e3cc2497b530639e3540d90c5880a14112daf",
    "rf_infinite": "c05a75e9ca4a5478ff6cfb42c8461c7a407c5f431d6fffd19b19a95b0eface9c",
    "ntk_infinite": "dbd00933e6193d018d9ca5977587da3e2b19b95c921cc8bbb713f8e08cb524d3",
}


def _sweep_hash(regime, mc_samples, tmp_path, grid=None) -> str:
    """sha256 of the CSV of `grid` (by default the golden grid of `regime`),
    every row successful."""
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, lambda_grid=(0.0, 1e-3),
        zeta_grid=(0.5,), mc_samples=mc_samples, base_seed=3,
        output_path=str(tmp_path / f"{regime}.csv"), **(grid or GRIDS[regime]),
    )
    with open(run_sweep(cfg), "rb") as fh:
        data = fh.read()
    assert all(row["reason"] == "" for row in csv.DictReader(io.StringIO(data.decode())))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("regime", sorted(GRIDS))
def test_sweep_csv_matches_golden_hash(regime, tmp_path):
    assert _sweep_hash(regime, 200, tmp_path) == GOLDEN[regime]


#: grids whose Monte-Carlo sample spans two full blocks of
#: `sphere.BLOCK_ROWS` rows and a partial third; recorded before the
#: estimator walked its sample in blocks
BLOCK_MC_SAMPLES = 2 * 1024 + 37
GOLDEN_BLOCKS = {
    "rf_finite": "98083adfd718e48f24cc0234f9a979e8ac97e72d36fe5e2812bab357e56ad4c0",
    "ntk_finite": "b13be77bb7c196f45496b419aa8cbf11b69dd2598ad50fdc5c1530a2a7f0cd7d",
    "rf_infinite": "09b009671498ed0e066669ff8f11aaa98509196043ae99c35991cd5b56dd001d",
}


@pytest.mark.parametrize("regime", sorted(GOLDEN_BLOCKS))
def test_multi_block_sweep_csv_matches_golden_hash(regime, tmp_path):
    assert _sweep_hash(regime, BLOCK_MC_SAMPLES, tmp_path) == GOLDEN_BLOCKS[regime]


#: an ntk_finite grid whose grams are wider than `spectral.DENSE_MAX_SIDE`,
#: so their extremes come from Lanczos: n = 1030 runs the dual solve on a
#: 1030 x 1030 gram, n = 1045 the primal one on a 1040 x 1040 gram
WIDE_GRID = dict(n_grid=(1030, 1045), d_grid=(26,), k_grid=(40,))
GOLDEN_WIDE = "d11b99a6682fb58a6e1d5c8e9aade49da19190ac1e53e01b03302209620b5b99"


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


@pytest.mark.parametrize("regime, n_grid, d, k", [
    ("ntk_finite", (10, 30), 4, 5),  # n=10 <= kd: empirical_gram; n=30: Z^T Z
    ("rf_finite", (8,), 6, 16),      # Z Z^T
])
def test_sweep_builds_one_gram_and_one_sample_per_lambda_path(
        monkeypatch, tmp_path, regime, n_grid, d, k):
    lams, mc = (0.0, 1e-4, 1e-3), 200
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, n_grid=n_grid, d_grid=(d,),
        k_grid=(k,), lambda_grid=lams, zeta_grid=(0.5,), mc_samples=mc,
        base_seed=3, output_path=str(tmp_path / "path.csv"),
    )
    grams = _count_calls(monkeypatch, "empirical_gram")
    feats = _count_calls(monkeypatch, "features")
    solves = _count_calls(monkeypatch, "solve_psd", roblaw.fit)
    # every sphere draw, whole or block by block, goes through the drawer
    samples = _count_calls(monkeypatch, "sphere_blocks", roblaw.sphere)
    sobolev_mats = _count_calls(monkeypatch, "c_sigma_sobolev", roblaw.spectral)
    run_sweep(cfg)
    ntk_dual = [n for n in n_grid if regime == "ntk_finite" and n <= k * d]
    assert len(grams) == len(ntk_dual)
    for n in n_grid:
        # features of the training points: one for a gram built from them,
        # and one train design for the predictions of every lambda
        on_train = sum(len(args[1]) == n for args in feats)
        assert on_train == (n not in ntk_dual) + 1
    assert sum(len(args[1]) == TEST_SET_SIZE for args in feats) == len(n_grid)
    assert len(solves) == len(n_grid) * len(lams)
    assert len({id(args[0]) for args in solves}) == len(n_grid)
    assert sum(args[1] == mc for args in samples) == len(n_grid)
    assert len(sobolev_mats) == (len(n_grid) if regime == "rf_finite" else 0)


@pytest.mark.parametrize("regime", ["rf_infinite", "ntk_infinite"])
def test_kernel_path_evaluates_one_kernel_matrix_per_point_set(monkeypatch, tmp_path, regime):
    n_grid, lams = (12, 20), (0.0, 1e-4, 1e-3)
    cfg = SweepConfig(
        regime=regime, activation=ActivationKind.RELU, n_grid=n_grid, d_grid=(6,),
        k_grid=(0,), lambda_grid=lams, zeta_grid=(0.5,), mc_samples=200,
        base_seed=3, output_path=str(tmp_path / "path.csv"),
    )
    profiles = _count_calls(monkeypatch, "kernel_profile")
    run_sweep(cfg)
    shapes = [np.shape(args[1]) for args in profiles]
    for n in n_grid:
        # the gram, which is also the train design, and one test design
        assert shapes.count((n, n)) == 1
        assert shapes.count((TEST_SET_SIZE, n)) == 1
    assert len(shapes) == 2 * len(n_grid)
