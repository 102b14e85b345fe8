import csv
import math
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import roblaw.fit
import roblaw.spectral
import roblaw.sweep
from roblaw import (
    ActivationKind,
    DotProductKernel,
    InvalidArgument,
    NumericFailure,
    SingularKernel,
    SweepConfig,
    TrialCell,
    gen_dataset,
    sym_eigs,
)
from roblaw.sweep import (
    CSV_COLUMNS,
    PRESETS,
    blank_record,
    fill_record,
    gen_test_set,
    iter_cells,
    run_sweep,
    run_trial,
    splitmix64,
)

from conftest import peak_bytes


def small_config(tmp_path, **overrides):
    fields = dict(
        regime="rf_finite", activation=ActivationKind.RELU,
        n_grid=(12,), d_grid=(10,), k_grid=(8,), lambda_grid=(0.0, 1e-3),
        zeta_grid=(0.5,), datasets_per_cell=1, weight_draws_per_dataset=1,
        mc_samples=200, base_seed=7, output_path=str(tmp_path / "out.csv"),
    )
    fields.update(overrides)
    return SweepConfig(**fields)


def test_splitmix_deterministic_and_distinct():
    a = splitmix64(1, 0)
    assert a == splitmix64(1, 0)
    seen = {splitmix64(5, i) for i in range(1000)}
    assert len(seen) == 1000


def test_config_validation():
    with pytest.raises(InvalidArgument):
        SweepConfig(regime="bogus", activation=ActivationKind.RELU,
                    n_grid=(5,), d_grid=(4,), k_grid=(3,),
                    lambda_grid=(0.0,), zeta_grid=(0.5,))
    with pytest.raises(InvalidArgument):
        SweepConfig(regime="linear", activation=ActivationKind.RELU,
                    n_grid=(5,), d_grid=(4,), k_grid=(3,),
                    lambda_grid=(0.0,), zeta_grid=(1.5,))
    for bad in (dict(regime="bogus"), dict(zeta=2.0), dict(zeta=-0.1),
                dict(lam=-1.0)):
        fields = dict(regime="linear", activation=ActivationKind.RELU, n=10,
                      d=20, k=0, lam=0.0, zeta=0.5, dataset_seed=1, weight_seed=2)
        with pytest.raises(InvalidArgument):
            TrialCell(**dict(fields, **bad))


def test_dataset_generation_contract():
    data = gen_dataset(50, 9, 0.0, 3)
    np.testing.assert_allclose(data.y, data.X.points @ data.w0, atol=1e-14)
    assert np.linalg.norm(data.w0) == pytest.approx(1.0)
    noisy = gen_dataset(10000, 9, 0.5, 4)
    resid = noisy.y - noisy.X.points @ noisy.w0
    assert np.var(resid) == pytest.approx(0.25, abs=0.015)


def test_zero_signal_flag():
    data = gen_dataset(20, 6, 1.0, 5, zero_signal=True)
    assert np.all(data.w0 == 0)


def test_test_set_shares_signal_vector():
    data = gen_dataset(15, 8, 0.3, 6)
    t = gen_test_set(data)
    np.testing.assert_array_equal(t.w0, data.w0)
    assert t.n == 500 and t.seed != data.seed
    # fresh inputs
    assert t.X.points.shape != data.X.points.shape or np.abs(
        t.X.points[: data.n] - data.X.points
    ).max() > 1e-6


def _seeds_with_zeta_axis(cfg):
    """(dataset seed, weight seed) of each cell when the flat index of a
    dataset seed also counts the zeta axis, in `iter_cells` order."""
    axes = (len(cfg.n_grid), len(cfg.d_grid), len(cfg.k_grid), len(cfg.zeta_grid),
            cfg.datasets_per_cell)
    out = []
    for i_n, i_d, i_k in np.ndindex(*axes[:3]):
        for _ in cfg.lambda_grid:
            for i_z in range(axes[3]):
                for i_ds in range(axes[4]):
                    flat = int(np.ravel_multi_index((i_n, i_d, i_k, i_z, i_ds), axes))
                    seed = splitmix64(cfg.base_seed, flat)
                    out += [(seed, splitmix64(seed, i_w))
                            for i_w in range(cfg.weight_draws_per_dataset)]
    return out


@pytest.mark.parametrize("zetas", [(0.5,), (0.0, 0.5, 1.0)])
def test_iter_cells_counts_and_seed_sharing(zetas):
    cfg = small_config(Path("/tmp"), n_grid=(10, 20), d_grid=(10, 12),
                       lambda_grid=(0.0, 1e-3), zeta_grid=zetas,
                       datasets_per_cell=2, weight_draws_per_dataset=3)
    cells = list(iter_cells(cfg))
    assert len(cells) == 2 * 2 * 2 * len(zetas) * 2 * 3
    # dataset seeds repeat across lambda and zeta but not across dataset index
    by_key = {}
    for c in cells:
        by_key.setdefault((c.n, c.d, c.dataset_seed), set()).add((c.lam, c.zeta))
    assert len(by_key) == 2 * 2 * 2
    assert all(len(grid) == 2 * len(zetas) for grid in by_key.values())
    assert len({seed for _, _, seed in by_key}) == len(by_key)
    seeds = [(c.dataset_seed, c.weight_seed) for c in cells]
    if len(zetas) == 1:
        assert seeds == _seeds_with_zeta_axis(cfg)
    else:
        assert seeds != _seeds_with_zeta_axis(cfg)


def test_run_trial_populates_metrics():
    cell = TrialCell(regime="rf_finite", activation=ActivationKind.RELU,
                     n=8, d=12, k=20, lam=0.0, zeta=0.4,
                     dataset_seed=11, weight_seed=12, mc_samples=200)
    [rec] = run_trial([cell])
    assert rec.reason == ""
    assert rec.train_mse < 1e-10  # interpolation below width
    assert math.isfinite(rec.test_mse)
    assert rec.sobolev_mc > 0 and rec.sobolev_analytic > 0
    assert rec.sobolev_mc == pytest.approx(rec.sobolev_analytic, rel=0.25)
    assert rec.eta > 0 and math.isfinite(rec.gram_cond)
    assert math.isnan(rec.rkhs_norm)


def test_ridge_on_a_zero_gram_is_a_row_not_a_singular_kernel():
    # all four inputs fall on the dead side of the one ReLU unit, so the
    # gram is 0 and K + lambda I = lambda I
    cell = TrialCell(regime="rf_finite", activation=ActivationKind.RELU,
                     n=4, d=2, k=1, lam=0.1, zeta=0.5, dataset_seed=54, weight_seed=55)
    [rec] = run_trial([cell])
    assert rec.reason == "" and rec.sobolev_mc == 0
    assert all(math.isfinite(getattr(rec, name)) for name in (
        "train_mse", "test_mse", "sobolev_mc_stderr", "sobolev_analytic", "coef_norm",
        "eta", "lambda_min_C", "lambda_max_C"))


def test_run_trial_failure_is_tagged_not_raised():
    # tanh has no infinite-width kernel profile; the trial must come back
    # as a tagged row
    cell = TrialCell(regime="rf_infinite", activation=ActivationKind.TANH,
                     n=5, d=6, k=0, lam=0.0, zeta=0.1,
                     dataset_seed=1, weight_seed=2, mc_samples=200)
    [rec] = run_trial([cell])
    assert rec.reason != ""
    assert math.isnan(rec.train_mse)


def test_failure_row_keeps_spectra_computed_before_it():
    # mc_samples below the estimator's minimum fails after the fit
    cell = TrialCell(regime="rf_infinite", activation=ActivationKind.RELU,
                     n=8, d=6, k=0, lam=0.0, zeta=0.1,
                     dataset_seed=1, weight_seed=2, mc_samples=50)
    with pytest.raises(InvalidArgument):
        fill_record(blank_record(cell), cell)
    [rec] = run_trial([cell])
    assert rec.reason.startswith("InvalidArgument")
    assert all(math.isfinite(getattr(rec, name)) for name in
               ("gram_cond", "lambda_min_C", "lambda_max_C", "rkhs_norm"))
    assert math.isnan(rec.sobolev_mc)


def test_run_trial_linear_and_infinite_regimes():
    [lin] = run_trial([TrialCell(regime="linear", activation=ActivationKind.RELU,
                                 n=10, d=20, k=0, lam=0.0, zeta=0.2,
                                 dataset_seed=3, weight_seed=4, mc_samples=200)])
    assert lin.reason == "" and lin.train_mse < 1e-10
    [inf] = run_trial([TrialCell(regime="ntk_infinite", activation=ActivationKind.RELU,
                                 n=10, d=20, k=0, lam=0.0, zeta=0.2,
                                 dataset_seed=3, weight_seed=4, mc_samples=200)])
    assert inf.reason == "" and inf.train_mse < 1e-10
    assert inf.rkhs_norm > 0


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfg = small_config(tmp_path)
    path = run_sweep(cfg)
    with open(path, encoding="utf-8") as fh:
        first = fh.read()
    rows = list(csv.reader(first.splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2  # two lambda values, one rep each
    path2 = run_sweep(small_config(tmp_path))
    with open(path2, encoding="utf-8") as fh:
        assert fh.read() == first


def test_sweep_workers_same_output(tmp_path):
    cfg = small_config(tmp_path, weight_draws_per_dataset=2)
    serial = run_sweep(cfg)
    with open(serial, encoding="utf-8") as fh:
        a = fh.read()
    par = run_sweep(small_config(tmp_path, weight_draws_per_dataset=2), workers=4)
    with open(par, encoding="utf-8") as fh:
        assert fh.read() == a


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_bytes_do_not_depend_on_scipy_blas_threads(tmp_path, scipy_blas_threads, workers):
    # without the one-thread pin this grid's solves round differently on
    # one and on two scipy OpenBLAS threads
    _, put = scipy_blas_threads
    cfg = small_config(tmp_path, regime="rf_infinite", n_grid=(150, 300), d_grid=(10,),
                       k_grid=(0,))
    out = []
    for count in (2, 1):
        put(count)
        out.append(Path(run_sweep(cfg, workers=workers)).read_bytes())
    assert out[0] == out[1]


def test_sweep_runs_its_groups_in_grid_order_on_the_calling_thread(tmp_path, monkeypatch):
    started, original = [], roblaw.sweep.run_trial

    def recorded(cells):
        started.append((threading.get_ident(), cells[0].n))
        return original(cells)

    monkeypatch.setattr(roblaw.sweep, "run_trial", recorded)
    run_sweep(small_config(tmp_path, n_grid=(6, 40, 12), k_grid=(16,)), workers=3)
    assert started == [(threading.get_ident(), n) for n in (6, 40, 12)]


def test_csv_row_formats_fields_by_type():
    cell = TrialCell(regime="linear", activation=ActivationKind.RELU, n=3, d=4,
                     k=0, lam=1e-3, zeta=0.5, dataset_seed=5, weight_seed=6)
    rec = blank_record(cell)
    rec.train_mse, rec.solver_fallback, rec.reason = 0.1, True, "a, b"
    row = dict(zip(CSV_COLUMNS, rec.csv_row()))
    assert CSV_COLUMNS[5] == "lambda" and len(row) == 22
    assert (row["n"], row["lambda"], row["train_mse"], row["test_mse"]) == (
        "3", "0.001", "0.10000000000000001", "nan")
    assert (row["solver_fallback"], row["reason"]) == ("true", "a; b")


@pytest.mark.parametrize("axis", ["n_grid", "d_grid", "k_grid", "lambda_grid", "zeta_grid"])
def test_empty_grid_axis_is_rejected(tmp_path, axis):
    with pytest.raises(InvalidArgument, match=f"empty grid axis: {axis}"):
        small_config(tmp_path, **{axis: ()})


def test_too_few_monte_carlo_samples_are_rejected_by_the_config_only(tmp_path):
    with pytest.raises(InvalidArgument, match="mc_samples must be >= 100"):
        small_config(tmp_path, mc_samples=99)
    small_config(tmp_path, mc_samples=100)
    # a lone cell still takes them, and fails after its fit
    [cell] = iter_cells(small_config(tmp_path, lambda_grid=(0.0,)))
    [rec] = run_trial([replace(cell, mc_samples=99)])
    assert rec.reason == "InvalidArgument: m must be >= 100"
    assert math.isfinite(rec.train_mse)


def test_presets_shapes():
    e1 = PRESETS["exp1"]
    assert len(list(iter_cells(e1))) == 31 * 6 * 4 * 10 * 15 == 111600
    assert e1.d_grid == (50,) and e1.k_grid == (40,)
    e2 = PRESETS["exp2"]
    assert e2.regime == "rf_finite" and e2.d_grid == (300,)
    e3 = PRESETS["exp3"]
    assert e3.regime == "rf_infinite" and e3.lambda_grid == (0.0,)
    for name in ("exp1-mini", "exp2-mini", "exp3-mini"):
        cfg = PRESETS[name]
        assert cfg.datasets_per_cell <= 5 and cfg.weight_draws_per_dataset <= 5


def _path_config(tmp_path, name):
    return small_config(tmp_path, regime="ntk_finite", n_grid=(10, 30), d_grid=(4,),
                        k_grid=(5,), lambda_grid=(0.0, 1e-4, 1e-3),
                        zeta_grid=(0.2, 0.6), weight_draws_per_dataset=2,
                        output_path=str(tmp_path / name))


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _alone(cfg):
    """The CSV rows of cfg's cells, each run as an (X, W) group of its own."""
    return [run_trial([c])[0].csv_row() for c in iter_cells(cfg)]


@pytest.mark.parametrize("regime, n_grid, d, k", [
    ("linear", (7, 23), 10, 0),        # dual and primal
    ("rf_finite", (9, 31), 6, 16),     # dual and primal
    ("ntk_finite", (11, 33), 4, 5),    # dual (n <= kd = 20) and primal
    ("rf_infinite", (13,), 6, 0),
])
def test_multi_zeta_sweep_rows_equal_their_cells_run_alone(tmp_path, regime, n_grid, d, k):
    # odd sides, so a row of a stacked solve is not aligned as a lone solve is
    cfg = small_config(tmp_path, regime=regime, n_grid=n_grid, d_grid=(d,), k_grid=(k,),
                       lambda_grid=(0.0, 1e-4, 1e-3), zeta_grid=(0.0, 0.3, 1.0),
                       datasets_per_cell=2, weight_draws_per_dataset=2, mc_samples=150)
    rows = _csv_rows(run_sweep(cfg))
    assert len(rows) == len(n_grid) * 3 * 3 * 2 * 2
    assert all(row[-1] == "" for row in rows)
    assert rows == _alone(cfg)


@pytest.mark.parametrize("grid", [
    dict(n_grid=(8, 8, 30), lambda_grid=(0.0, 1e-3, 0.0)),
    dict(d_grid=(6, 10), k_grid=(8, 16)),
], ids=["repeated_n_and_lambda", "two_d_and_two_k"])
def test_each_block_writes_the_rows_of_its_cells_run_alone(tmp_path, grid):
    # blocks are cut by cell count: a repeated n is two blocks of two seeds
    cfg = small_config(tmp_path, zeta_grid=(0.0, 0.7), datasets_per_cell=2,
                       weight_draws_per_dataset=3, **grid)
    assert _csv_rows(run_sweep(cfg)) == _alone(cfg)


def test_a_run_that_dies_in_its_second_block_keeps_the_first(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, n_grid=(8, 12, 16), zeta_grid=(0.0, 0.7),
                       weight_draws_per_dataset=2)
    whole = Path(run_sweep(cfg)).read_text(encoding="utf-8").splitlines(keepends=True)
    first = "".join(whole[:1 + 2 * 2 * 2])  # the header, then 2 lambdas x 2 zetas x 2 draws
    original, on_disk = roblaw.sweep.run_trial, []

    def dies_in_block_two(cells):
        if cells[0].n == 12:
            on_disk.append(Path(cfg.output_path).read_text(encoding="utf-8"))
            raise RuntimeError("killed")
        return original(cells)

    monkeypatch.setattr(roblaw.sweep, "run_trial", dies_in_block_two)
    with pytest.raises(RuntimeError, match="killed"):
        run_sweep(cfg)
    # flushed before the second block started, not only when the file closed
    assert on_disk == [first]
    assert Path(cfg.output_path).read_text(encoding="utf-8") == first


def test_sweep_holds_one_block_not_the_grid(tmp_path):
    def peak(blocks):
        cfg = small_config(tmp_path, regime="linear", n_grid=(8,) * blocks,
                           zeta_grid=(0.0, 0.5), datasets_per_cell=4,
                           weight_draws_per_dataset=5)
        return peak_bytes(lambda: run_sweep(cfg))[1]

    peak(1)  # first-call allocations
    one, many = peak(1), peak(20)
    # 20 blocks' cells and records held at once took 5 one-block peaks
    assert many < 1.15 * one


def test_failure_at_one_zeta_stays_in_its_rows(tmp_path, monkeypatch):
    clean = _csv_rows(run_sweep(_path_config(tmp_path, "clean.csv")))
    original = roblaw.sweep.test_mse

    def fails_at_one_zeta(model, test, design):
        if test.zeta == 0.6:
            raise NumericFailure("planted")
        return original(model, test, design)

    monkeypatch.setattr(roblaw.sweep, "test_mse", fails_at_one_zeta)
    cfg = _path_config(tmp_path, "planted.csv")
    rows = _csv_rows(run_sweep(cfg))
    assert rows == _alone(cfg)
    zeta = CSV_COLUMNS.index("zeta")
    for row, ref in zip(rows, clean):
        if float(row[zeta]) == 0.6:
            assert row[-1] == "NumericFailure: planted"
        else:
            assert row == ref


def test_solve_failure_at_one_lambda_stays_in_its_row(tmp_path, monkeypatch):
    clean = _csv_rows(run_sweep(_path_config(tmp_path, "clean.csv")))
    original = roblaw.fit.solve_psd

    def singular_at_zero(K, y, lam, on_factor=None, **kwargs):
        if lam == 0:
            raise SingularKernel("planted")
        return original(K, y, lam, on_factor, **kwargs)

    monkeypatch.setattr(roblaw.fit, "solve_psd", singular_at_zero)
    cfg = _path_config(tmp_path, "planted.csv")
    rows = _csv_rows(run_sweep(cfg))
    alone = _alone(cfg)
    lam = CSV_COLUMNS.index("lambda")
    assert len(rows) == len(clean) == 24
    for row, ref, single in zip(rows, clean, alone):
        if float(row[lam]) == 0:
            assert row[-1] == "SingularKernel: planted"
            assert row == single
        else:
            assert row == ref


def test_shared_stage_failure_tags_every_row_of_the_path(tmp_path, monkeypatch):
    def no_test_set(data):
        raise NumericFailure("planted")

    monkeypatch.setattr(roblaw.sweep, "gen_test_set", no_test_set)
    cfg = _path_config(tmp_path, "planted.csv")
    rows = _csv_rows(run_sweep(cfg))
    assert rows == _alone(cfg)
    train, test = CSV_COLUMNS.index("train_mse"), CSV_COLUMNS.index("test_mse")
    for row in rows:
        assert row[-1] == "NumericFailure: planted"
        assert math.isfinite(float(row[train])) and math.isnan(float(row[test]))


def test_failure_of_one_lambda_in_a_stage_all_lambdas_share_stays_in_its_row(monkeypatch):
    # one sobolev_analytic call serves every lambda of the path; a lone
    # lambda = 0 cell does not fail, so its row must not be tagged
    original = roblaw.sweep.sobolev_analytic

    def fails_above_zero(models):
        if any(model.meta["lambda"] != 0 for model in models):
            raise NumericFailure("planted")
        return original(models)

    monkeypatch.setattr(roblaw.sweep, "sobolev_analytic", fails_above_zero)
    cells = [TrialCell(regime="rf_finite", activation=ActivationKind.RELU, n=12, d=10,
                       k=8, lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6,
                       mc_samples=200) for lam in (0.0, 1e-4, 1e-3)]
    recs = run_trial(cells)
    assert [rec.csv_row() for rec in recs] == [run_trial([c])[0].csv_row() for c in cells]
    assert recs[0].reason == "" and math.isfinite(recs[0].sobolev_analytic)
    assert [rec.reason for rec in recs[1:]] == ["NumericFailure: planted"] * 2


def test_failed_path_is_rerun_only_after_its_gram_is_freed(monkeypatch):
    # the traceback of a failure holds the failed path's frame, and with it
    # the gram, until the `except` block that caught it ends
    original_path, grams = roblaw.sweep.kernel_path, []

    def tracked_path(kernel, X, y):
        if grams:
            assert grams[0]() is None, "rerun started while the failed gram was alive"
        path = original_path(kernel, X, y)
        grams.append(weakref.ref(path.gram))
        return path

    original_rkhs, calls = roblaw.sweep.rkhs_norm, []

    def fails_first(model, K):
        calls.append(model.meta["lambda"])
        if len(calls) == 1:
            raise NumericFailure("planted")
        return original_rkhs(model, K)

    monkeypatch.setattr(roblaw.sweep, "kernel_path", tracked_path)
    monkeypatch.setattr(roblaw.sweep, "rkhs_norm", fails_first)
    cells = [TrialCell(regime="rf_infinite", activation=ActivationKind.RELU, n=30, d=6,
                       k=0, lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6,
                       mc_samples=200) for lam in (0.0, 1e-3)]
    recs = run_trial(cells)
    assert len(grams) == 3  # the path, then each cell alone
    assert [rec.reason for rec in recs] == ["", ""]


@pytest.mark.parametrize("n", [12, 30])  # a dual and a primal gram of width k = 20
def test_designs_are_built_after_the_gram_is_freed(monkeypatch, n):
    original_path, grams = roblaw.sweep.feature_path, []

    def tracked_path(fmap, X, y):
        path = original_path(fmap, X, y)
        grams.append(weakref.ref(path.gram))
        return path

    original_design, gram_alive = roblaw.fit.FeatureModel.design, []

    def checked(model, X):
        gram_alive.append(grams[0]() is not None)
        return original_design(model, X)

    monkeypatch.setattr(roblaw.sweep, "feature_path", tracked_path)
    monkeypatch.setattr(roblaw.fit.FeatureModel, "design", checked)
    recs = run_trial([TrialCell(regime="rf_finite", activation=ActivationKind.RELU, n=n,
                                d=10, k=20, lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6,
                                mc_samples=200) for lam in (0.0, 1e-3)])
    assert [rec.reason for rec in recs] == ["", ""]
    assert gram_alive == [False, False]  # the train and the test design


def test_run_trial_rejects_cells_of_two_paths():
    cells = [TrialCell(regime="linear", activation=ActivationKind.RELU, n=n, d=4,
                       k=0, lam=0.0, zeta=0.5, dataset_seed=5, weight_seed=6)
             for n in (3, 4)]
    with pytest.raises(InvalidArgument):
        run_trial(cells)


@pytest.mark.parametrize("workers", [0, -1])
def test_run_sweep_rejects_fewer_than_one_worker(tmp_path, workers):
    cfg = small_config(tmp_path)
    with pytest.raises(InvalidArgument):
        run_sweep(cfg, workers=workers)
    assert not (tmp_path / "out.csv").exists()


def _wide_path(lams):
    """An ntk_finite lambda path whose dual gram, of side 1100, is wider
    than `spectral.DENSE_MAX_SIDE`, so its spectrum comes from Lanczos."""
    return [TrialCell(regime="ntk_finite", activation=ActivationKind.RELU, n=1100, d=50,
                      k=40, lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6,
                      mc_samples=200) for lam in lams]


@pytest.mark.parametrize("lams, factors", [
    ((0.0, 1e-3), 2),   # the lambda = 0 solve's factor serves the spectrum
    ((1e-4, 1e-3), 3),  # the spectrum factors the gram itself
])
def test_wide_path_factors_its_gram_once(monkeypatch, lams, factors):
    original = scipy.linalg.cho_factor
    factored = []

    def counted(M, *args, **kwargs):
        factored.append(M.shape)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    recs = run_trial(_wide_path(lams))
    assert [r.reason for r in recs] == [""] * len(lams)
    assert factored == [(1100, 1100)] * factors


def test_wide_path_releases_the_lambda_zero_factor_before_the_next_solve(monkeypatch):
    original = roblaw.fit.cholesky
    made = []

    def tracked(M, *args, **kwargs):
        assert all(ref() is None for ref in made)
        factor = original(M, *args, **kwargs)
        made.append(weakref.ref(factor[0]))
        return factor

    monkeypatch.setattr(roblaw.fit, "cholesky", tracked)
    recs = run_trial(_wide_path((0.0, 1e-4, 1e-3)))
    assert [r.reason for r in recs] == [""] * 3
    assert len(made) == 3


def test_wide_kernel_path_takes_its_spectrum_from_eigvalsh(monkeypatch):
    # a kernel gram's clustered bottom makes inverse Lanczos slower than
    # eigvalsh, so a kernel path never calls eigsh or factors for spectra
    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh called on a kernel gram")

    monkeypatch.setattr(roblaw.spectral, "eigsh", no_lanczos)
    original, factored = scipy.linalg.cho_factor, []

    def counted(M, *args, **kwargs):
        factored.append(M.shape)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    cells = [TrialCell(regime="rf_infinite", activation=ActivationKind.RELU, n=1100, d=500,
                       k=0, lam=lam, zeta=0.5, dataset_seed=5, weight_seed=6, mc_samples=200)
             for lam in (0.0, 1e-3)]
    recs = run_trial(cells)
    assert [r.reason for r in recs] == ["", ""]
    assert factored == [(1100, 1100)] * 2  # the two solves
    kernel = DotProductKernel(name="rf_infinite", activation=ActivationKind.RELU)
    data = gen_dataset(1100, 500, 0.5, 5)
    s = sym_eigs(roblaw.fit.kernel_path(kernel, data.X, data.y).gram)
    for r in recs:
        assert (r.gram_cond, r.lambda_min_C, r.lambda_max_C) == (s.cond, s.lambda_min,
                                                                s.lambda_max)


def test_wide_path_rows_equal_their_cells_run_alone():
    cells = _wide_path((0.0, 1e-4, 1e-3))
    rows = [rec.csv_row() for rec in run_trial(cells)]
    assert rows == [run_trial([cell])[0].csv_row() for cell in cells]


_METRICS = ("train_mse", "test_mse", "sobolev_mc", "sobolev_mc_stderr", "sobolev_analytic",
            "coef_norm", "eta", "rkhs_norm", "lambda_min_C", "lambda_max_C", "gram_cond")
_NO_C = {"lambda_min_C", "lambda_max_C"}
#: (regime, order-1 homogeneous activation) -> the metric columns left nan
_NAN_COLUMNS = {
    ("linear", True): {"eta", "rkhs_norm"},
    ("linear", False): {"eta", "rkhs_norm"},
    ("rf_finite", True): {"rkhs_norm"},
    ("rf_finite", False): {"rkhs_norm", "sobolev_analytic"} | _NO_C,
    ("ntk_finite", True): {"sobolev_analytic", "eta", "rkhs_norm"},
    ("ntk_finite", False): {"sobolev_analytic", "eta", "rkhs_norm"} | _NO_C,
    ("rf_infinite", True): {"sobolev_analytic", "eta"},
    ("rf_infinite", False): set(_METRICS),
    ("ntk_infinite", True): {"sobolev_analytic", "eta"},
    ("ntk_infinite", False): set(_METRICS),
}


@pytest.mark.parametrize("activation", ["relu", "abs", "tanh", "erf"])
@pytest.mark.parametrize("regime", roblaw.sweep.REGIMES)
def test_each_regime_and_activation_fills_its_columns(regime, activation):
    homogeneous = activation in ("relu", "abs")
    cells = [TrialCell(regime=regime, activation=ActivationKind(activation),
                       n=8, d=5, k=6, lam=lam, zeta=0.3, dataset_seed=13,
                       weight_seed=14, mc_samples=100) for lam in (0.0, 1e-3)]
    for rec in run_trial(cells):
        nan = {name for name in _METRICS if math.isnan(getattr(rec, name))}
        assert nan == _NAN_COLUMNS[regime, homogeneous]
        if regime.endswith("_infinite") and not homogeneous:
            assert rec.reason.startswith("UnsupportedActivation: ")
        else:
            assert rec.reason == ""


@pytest.mark.parametrize("n", [2, 3, 4, 12, 20])
@pytest.mark.parametrize("regime", roblaw.sweep.REGIMES)
def test_gram_side_is_the_side_of_the_gram_the_path_solves(monkeypatch, regime, n):
    # widths d = 4, k = 3 and k * d = 12: n runs below, at and above each;
    # a path solves on the n x n dual gram when n <= width, else on the primal
    width = {"linear": 4, "rf_finite": 3, "ntk_finite": 12}.get(regime, n)
    sides, original = [], roblaw.fit.solve_psd

    def recorded(K, *args, **kwargs):
        sides.append(K.shape[0])
        return original(K, *args, **kwargs)

    monkeypatch.setattr(roblaw.fit, "solve_psd", recorded)
    cell = TrialCell(regime=regime, activation=ActivationKind.RELU, n=n, d=4, k=3,
                     lam=0.0, zeta=0.3, dataset_seed=15, weight_seed=16, mc_samples=100)
    [rec] = run_trial([cell])
    assert rec.reason == ""
    assert sides == [min(n, width)]
