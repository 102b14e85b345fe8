"""The benchmark's workloads and the checks on the CSVs they produce.

Each workload is a `lawbench sweep` grid, run in-process through
`roblaw.sweep.run_sweep` with the workload seed as `base_seed`. The grid
axes follow the paper's three experiments; the repetition counts are set
so one sweep takes a few seconds on a 2-core machine, which lets a run
repeat it and report a median.
"""

import math
import os
from dataclasses import dataclass

#: train_mse on lambda=0 rows with n <= feature dimension (measured <= 3e-15)
INTERPOLATION_MSE_TOL = 1e-8
#: analyze_descent's ridgeless peak ratio at n = k (measured 16-72)
MIN_PEAK_RATIO = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: keyword arguments of roblaw.sweep.SweepConfig, without base_seed and output_path
    grid: dict
    #: run with one worker per CPU instead of one worker
    pool: bool = False
    #: checks on the whole CSV: (roblaw module, csv path) -> list of failures
    sweep_checks: tuple = ()

    @property
    def workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.pool else 1


def _descent_peak(roblaw, path):
    lam0 = roblaw.analyze.analyze_descent(path, "n_eq_k")["per_lambda"].get("0")
    if lam0 is None:
        return ["analyze_descent: no lambda=0 group"]
    if lam0["center_coord"] != 1.0 or not lam0["peak_ratio"] > MIN_PEAK_RATIO:
        return [f"analyze_descent: no ridgeless peak at n=k "
                f"(center {lam0['center_coord']}, ratio {lam0['peak_ratio']:.3g})"]
    return []


def _law_correlation(roblaw, path):
    groups = roblaw.analyze.analyze_law(path, "sqrt_n")["groups"]
    if not groups:
        return ["analyze_law: no group with 3 or more points"]
    return [f"analyze_law: correlation {g['correlation']:.3g} in {key}"
            for key, g in groups.items() if not g["correlation"] > 0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ntk-width",
            "exp1 shape: n on both sides of kd=2000 runs the dual and primal NTK "
            "paths; three lambdas per dataset; spectra and solves dominate",
            dict(regime="ntk_finite", n_grid=(1020, 2020), d_grid=(50,),
                 k_grid=(40,), lambda_grid=(0.0, 1e-4, 1e-3), zeta_grid=(0.5,)),
        ),
        Workload(
            "rf-descent",
            "exp2-mini grid crosses the n=k interpolation peak (gram cond ~1e9); "
            "the only workload with a worker pool, one worker per CPU",
            dict(regime="rf_finite", n_grid=(200, 400, 800), d_grid=(300,),
                 k_grid=(400,), lambda_grid=(0.0, 1e-3), zeta_grid=(1.0,),
                 weight_draws_per_dataset=3),
            pool=True,
            sweep_checks=(_descent_peak,),
        ),
        Workload(
            "rf-kernel",
            "exp3-mini grid: the only infinite-width kernel path; gram and "
            "prediction dominate; one lambda, so nothing is shared across lambdas",
            dict(regime="rf_infinite", n_grid=(100, 400, 700, 1000), d_grid=(500,),
                 k_grid=(0,), lambda_grid=(0.0,), zeta_grid=(0.2, 0.6, 1.0)),
            sweep_checks=(_law_correlation,),
        ),
        Workload(
            "mc-seminorm",
            "rf_finite with 100000 Monte-Carlo points: sphere sampling, model "
            "gradients and the seminorm estimate dominate; fits and spectra are small",
            dict(regime="rf_finite", n_grid=(100, 300), d_grid=(100,), k_grid=(200,),
                 lambda_grid=(0.0, 1e-3), zeta_grid=(0.5,), mc_samples=100_000),
        ),
    )
}


def sweep_config(roblaw, workload: Workload, seed: int, output_path: str):
    return roblaw.sweep.SweepConfig(
        activation=roblaw.ActivationKind.RELU, base_seed=seed,
        output_path=output_path, **workload.grid,
    )


def _feature_dim(row) -> float:
    k, d = int(row["k"]), int(row["d"])
    if row["regime"] == "rf_finite":
        return k
    if row["regime"] == "ntk_finite":
        return k * d
    return math.inf


def check_rows(roblaw, config, header, rows) -> list:
    """Per-row failures: one list per expected trial, empty when the row
    passes; a schema or row-count failure fails every trial."""
    expected = list(roblaw.sweep.iter_cells(config))
    if header != roblaw.sweep.CSV_COLUMNS:
        return [[f"schema: got {header}"]] * len(expected)
    if len(rows) != len(expected):
        return [[f"row count: {len(rows)} rows for {len(expected)} trials"]] * len(expected)
    # relative Monte-Carlo tolerance: 4.5% at 500 samples, 0.32% at 100000;
    # the worst measured over seeds 0-7 was 0.56% and 0.05%
    tol = 1 / math.sqrt(config.mc_samples)
    out = []
    for row, cell in zip(rows, expected):
        bad = []
        if row["reason"]:
            bad.append(f"reason: {row['reason']}")
        if (int(row["n"]), int(row["dataset_seed"]), int(row["weight_seed"])) != (
                cell.n, cell.dataset_seed, cell.weight_seed):
            bad.append("row does not match its grid cell")
        if row["regime"] == "rf_finite":
            mc, exact = float(row["sobolev_mc"]), float(row["sobolev_analytic"])
            if not abs(mc - exact) <= tol * abs(exact):
                bad.append(f"sobolev_mc {mc:.6g} vs analytic {exact:.6g} (tol {tol:.2%})")
        if float(row["lambda"]) == 0 and int(row["n"]) <= _feature_dim(row):
            mse = float(row["train_mse"])
            if not mse <= INTERPOLATION_MSE_TOL:
                bad.append(f"interpolating row has train_mse {mse:.3g}")
        out.append(bad)
    return out
