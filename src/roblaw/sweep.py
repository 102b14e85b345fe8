"""Reproducible experiment sweeps: grid configs, per-trial execution, and
deterministic CSV output.

Seeding: per-trial seeds derive from (base_seed, flattened grid index) via
splitmix64, so reruns of the same config are byte-identical and any cell
can be recomputed in isolation. A dataset seed indexes (n, d, k, dataset)
without the noise level: every zeta of a dataset labels one draw of its
inputs, signal and noise, y = X w0 + zeta g (common random numbers), and
its weight draws and ridge values share it too.

The unit of work is an (X, W) group: the cells that differ only in lambda
and zeta. Its inputs, hidden weights, gram and its spectra, train and test
designs, test inputs and Monte-Carlo sample are built once for all its
rows; each lambda factors once and solves for every zeta's labels, and each
row pays only for its own solve, predictions and seminorm. A group that
fails is run again one cell at a time, so every row still equals the row
of its cell run alone, byte for byte, failures included.
"""

import csv
import math
from dataclasses import dataclass, fields, replace
from itertools import islice, product
from typing import Callable

import numpy as np

from .activations import ORDER_ONE, ActivationKind, phi_profile
from .data import Dataset, gen_dataset
from .errors import InvalidArgument, IoError, RoblawError
from .fit import (
    feature_path,
    kernel_path,
    linear_path,
    rkhs_norm,
    test_mse,
    train_mse,
)
from .kernels import DotProductKernel, FeatureMap
from .sobolev import (
    MIN_MC_SAMPLES,
    eta_proxy,
    sobolev_analytic,
    sobolev_monte_carlo,
)
from .spectral import DENSE_MAX_SIDE, c_sigma_cov, gram_spectrum, sym_eigs
from .sphere import sample_sphere

TEST_SET_SIZE = 500
TEST_SEED_OFFSET = 77003


def splitmix64(seed: int, index: int) -> int:
    """Stateless seed derivation: one splitmix64 step on seed + index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


def _check_grid(regime: str, ns, ds, ks, lambdas, zetas) -> None:
    """The checks a sweep grid and a single trial share."""
    if regime not in REGIMES:
        raise InvalidArgument(f"unknown regime {regime}")
    sizes = {"n": (ns, 1), "d": (ds, 2)}
    if REGIME_TABLE[regime].hidden is not None:
        sizes["k"] = (ks, 1)
    for name, (values, least) in sizes.items():
        if not all(v >= least for v in values):
            raise InvalidArgument(f"{regime} needs {name} >= {least}")
    if not all(0 <= z <= 1 for z in zetas):
        raise InvalidArgument("zeta values must lie in [0, 1]")
    if not all(0 <= l < math.inf for l in lambdas):
        raise InvalidArgument("lambda values must be finite and nonnegative")


@dataclass(frozen=True)
class SweepConfig:
    regime: str
    activation: ActivationKind
    n_grid: tuple[int, ...]
    d_grid: tuple[int, ...]
    k_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    zeta_grid: tuple[float, ...]
    datasets_per_cell: int = 1
    weight_draws_per_dataset: int = 1
    mc_samples: int = 500
    base_seed: int = 0
    output_path: str = "sweep.csv"

    def __post_init__(self):
        _check_grid(self.regime, self.n_grid, self.d_grid, self.k_grid,
                    self.lambda_grid, self.zeta_grid)
        if self.datasets_per_cell < 1 or self.weight_draws_per_dataset < 1:
            raise InvalidArgument("repetition counts must be >= 1")
        # a grid that can give no successful row fails before any compute
        empty = [f.name for f in fields(self)
                 if f.name.endswith("_grid") and not getattr(self, f.name)]
        if empty:
            raise InvalidArgument(f"empty grid axis: {', '.join(empty)}")
        if self.mc_samples < MIN_MC_SAMPLES:
            raise InvalidArgument(f"mc_samples must be >= {MIN_MC_SAMPLES}")
        if self.base_seed < 0:
            raise InvalidArgument(f"seeds must be >= 0, got {self.base_seed}")
        # a lone cell of this pair comes back as a tagged row; a grid fails first
        if REGIME_TABLE[self.regime].kernel:
            DotProductKernel(name=self.regime, activation=ActivationKind(self.activation))


@dataclass(frozen=True)
class TrialCell:
    """One fully-specified trial: a grid point plus its derived seeds."""

    regime: str
    activation: ActivationKind
    n: int
    d: int
    k: int
    lam: float
    zeta: float
    dataset_seed: int
    weight_seed: int
    mc_samples: int = SweepConfig.mc_samples

    def __post_init__(self):
        _check_grid(self.regime, (self.n,), (self.d,), (self.k,), (self.lam,), (self.zeta,))


#: how csv_row writes a TrialRecord field of each declared type
_CSV_FORMAT = {
    str: lambda v: v.replace(",", ";"),
    int: str,
    float: lambda v: "%.17g" % v,
    bool: lambda v: "true" if v else "false",
}


@dataclass
class TrialRecord:
    """One CSV row: the fields in order are the columns, `lam` written as
    `lambda`; schema changes are breaking."""

    regime: str
    activation: str
    n: int
    d: int
    k: int
    lam: float
    zeta: float
    dataset_seed: int
    weight_seed: int
    train_mse: float = math.nan
    test_mse: float = math.nan
    sobolev_mc: float = math.nan
    sobolev_mc_stderr: float = math.nan
    sobolev_analytic: float = math.nan
    coef_norm: float = math.nan
    eta: float = math.nan
    rkhs_norm: float = math.nan
    lambda_min_C: float = math.nan
    lambda_max_C: float = math.nan
    gram_cond: float = math.nan
    solver_fallback: bool = False
    reason: str = ""

    def csv_row(self) -> list:
        return [_CSV_FORMAT[f.type](getattr(self, f.name)) for f in fields(self)]


CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(TrialRecord)]


@dataclass(frozen=True)
class Regime:
    """How a sweep runs the (X, W) groups of one regime: the FeatureMap kind
    of its `hidden` layer, if it has one; its `path`(cell, inputs, stacked
    labels, hidden layer), a RidgePath; the ridge `solve_lambda`(cell) a
    solve adds to the gram;
    the `c_matrix`(hidden weights, activation) of lambda_min_C and
    lambda_max_C, if not the gram's; and whether it is an infinite-width
    `kernel` path.
    The entries call library functions by their module-level names, so a
    wrapper bound to such a name sees every call."""

    hidden: str | None = None
    path: Callable = lambda cell, X, y, fmap: feature_path(fmap, X, y)
    solve_lambda: Callable = lambda cell: cell.lam
    c_matrix: Callable | None = None
    kernel: bool = False


def _kernel_path(cell: TrialCell, X, y, fmap):
    kernel = DotProductKernel(name=cell.regime, activation=ActivationKind(cell.activation))
    return kernel_path(kernel, X, y)


#: regime name -> how its (X, W) groups run
REGIME_TABLE = {
    "linear": Regime(path=lambda cell, X, y, fmap: linear_path(X, y)),
    "rf_finite": Regime(
        hidden="frozen_rf", solve_lambda=lambda cell: cell.k * cell.lam / cell.d,
        c_matrix=lambda W, kind: c_sigma_cov(W, kind)),
    "ntk_finite": Regime(
        hidden="ntk",
        c_matrix=lambda W, kind: np.asarray(phi_profile(kind, "derivative", W.cosines)) / W.count),
    "rf_infinite": Regime(path=_kernel_path, kernel=True),
    "ntk_infinite": Regime(path=_kernel_path, kernel=True),
}
REGIMES = tuple(REGIME_TABLE)


def gen_test_set(data: Dataset) -> Dataset:
    """Fresh inputs and noise under the same signal vector as `data`."""
    seed = data.seed + TEST_SEED_OFFSET
    X = sample_sphere(data.d, TEST_SET_SIZE, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    return Dataset(X=X, w0=data.w0, noise=rng.standard_normal(TEST_SET_SIZE),
                   zeta=data.zeta, seed=seed)


def blank_record(cell: TrialCell) -> TrialRecord:
    """The record of `cell` before any metric is computed."""
    return TrialRecord(
        regime=cell.regime, activation=ActivationKind(cell.activation).value,
        n=cell.n, d=cell.d, k=cell.k, lam=cell.lam, zeta=cell.zeta,
        dataset_seed=cell.dataset_seed, weight_seed=cell.weight_seed,
    )


def _fill_path(recs: list, cells: list) -> None:
    """Compute the metrics of an (X, W) group's cells into their records,
    stage by stage, and raise the first failure, leaving in the records the
    metrics computed before it.

    The dataset draw, hidden weights, gram, spectra, train and test designs,
    test inputs and Monte-Carlo sample are built once; each zeta adds a
    label vector of the training and of the test inputs, each lambda one
    factorization that solves for every zeta's labels, and each row a
    solve, a product per prediction and its seminorm. A kernel group's gram
    is its train design; any other group builds that design after releasing
    the gram.
    Every solve, product and seminorm runs on one row's vectors, in the
    stages a lone cell passes, so a group that does not fail ends with the
    metrics of its cells run alone."""
    cell = cells[0]
    regime = REGIME_TABLE[cell.regime]
    activation = ActivationKind(cell.activation)
    zetas = list(dict.fromkeys(c.zeta for c in cells))
    data = gen_dataset(cell.n, cell.d, cell.zeta, cell.dataset_seed)
    fmap = None
    if regime.hidden is not None:
        fmap = FeatureMap(
            kind=regime.hidden, activation=activation,
            weights=sample_sphere(cell.d, cell.k, cell.weight_seed))
    draws = {z: replace(data, zeta=z) for z in zetas}
    path = regime.path(cell, data.X, np.stack([draws[z].y for z in zetas]), fmap)
    # inverse Lanczos is slower than `eigvalsh` on a kernel gram's clustered
    # bottom at any side, so only wide feature and linear grams go to Lanczos,
    # from the lambda = 0 solve's Cholesky factor while that solve holds it:
    # no factor outlives its solve
    lanczos = not regime.kernel and path.gram.shape[0] > DENSE_MAX_SIDE
    spectra = []
    on_factor = ((lambda factor: spectra.append(gram_spectrum(path.gram, factor)))
                 if lanczos else None)
    fits = {}
    for c in cells:
        if c.lam not in fits:
            fits[c.lam] = path.fit(regime.solve_lambda(c), on_factor)
    models = [fits[c.lam][zetas.index(c.zeta)] for c in cells]
    for rec, model in zip(recs, models):
        rec.solver_fallback = bool(model.meta.get("fallback", False))
    s = spectra[0] if spectra else (gram_spectrum if lanczos else sym_eigs)(path.gram)
    for rec in recs:
        rec.gram_cond = s.cond
    # a hidden layer's C matrix has a closed form only for an order-1
    # homogeneous activation
    closed = activation in ORDER_ONE
    c_spec = s if regime.c_matrix is None else (
        sym_eigs(regime.c_matrix(fmap.weights, activation)) if closed else None)
    if c_spec is not None:
        for rec in recs:
            rec.lambda_min_C, rec.lambda_max_C = c_spec.lambda_min, c_spec.lambda_max
    if regime.kernel:
        for rec, model in zip(recs, models):
            rec.rkhs_norm = rkhs_norm(model, path.gram)
    # A kernel group's train design is its gram, K(X, X) bit for bit; any
    # other design is built once the gram is gone, so the two are never
    # held together.
    design = path.gram if regime.kernel else None
    del path
    if design is None:
        design = models[0].design(data.X.points)
    for rec, c, model in zip(recs, cells, models):
        rec.train_mse = train_mse(model, draws[c.zeta], design)
    del design
    test = gen_test_set(data)
    tests = {z: replace(test, zeta=z) for z in zetas}
    design = models[0].design(test.X.points)
    for rec, c, model in zip(recs, cells, models):
        rec.test_mse = test_mse(model, tests[c.zeta], design)
    del design
    mc = sobolev_monte_carlo(models, cell.d, cell.mc_samples, splitmix64(cell.weight_seed, 3))
    for rec, model, est in zip(recs, models, mc):
        rec.sobolev_mc, rec.sobolev_mc_stderr = est.value, est.std_error
        rec.coef_norm = float(np.linalg.norm(model.coef))
    for rec, model, exact in zip(recs, models, sobolev_analytic(models)):
        rec.sobolev_analytic, rec.eta = exact, eta_proxy(model)


def fill_record(rec: TrialRecord, cell: TrialCell) -> TrialRecord:
    """Compute the metrics of `cell` into `rec` and return it. Raises on
    failure, leaving in `rec` the metrics computed before it."""
    _fill_path([rec], [cell])
    return rec


def run_trial(cells: list[TrialCell]) -> list[TrialRecord]:
    """Execute one (X, W) group, cells that differ only in lambda and zeta,
    and return their records in order. A failure while computing comes back
    as a tagged row, never as an exception: a lone cell keeps the metrics
    computed before it, and a larger group is run again one cell at a time,
    so every row is the row of its cell run alone."""
    if len({replace(c, lam=0.0, zeta=0.0) for c in cells}) != 1:
        raise InvalidArgument("an (X, W) group needs cells that differ only in lambda and zeta")
    recs = [blank_record(c) for c in cells]
    try:
        _fill_path(recs, cells)
        return recs
    except (RoblawError, np.linalg.LinAlgError) as exc:
        if len(cells) == 1:
            recs[0].reason = f"{type(exc).__name__}: {exc}"
            return recs
    # rerun only here: the traceback holds the failed group's gram and
    # designs until its `except` block ends
    return [run_trial([cell])[0] for cell in cells]


def iter_cells(config: SweepConfig):
    """Cells in deterministic cell-major order (n, d, k, lambda, zeta,
    dataset, weight draw). Dataset seeds index (n, d, k, dataset) and weight
    seeds follow from them, neither depending on lambda or zeta, so the
    cells that differ only in lambda and zeta form an (X, W) group that
    `run_sweep` computes as one unit on one draw of inputs, weights and
    noise and one gram. A grid of one zeta keeps the seeds of an index that
    also counted the zeta axis, which then has size 1."""
    data_axes = (len(config.n_grid), len(config.d_grid), len(config.k_grid),
                 config.datasets_per_cell)
    for (i_n, n), (i_d, d), (i_k, k), lam, zeta, i_ds, i_w in product(
            enumerate(config.n_grid), enumerate(config.d_grid), enumerate(config.k_grid),
            config.lambda_grid, config.zeta_grid, range(config.datasets_per_cell),
            range(config.weight_draws_per_dataset)):
        ds_seed = splitmix64(config.base_seed,
                             int(np.ravel_multi_index((i_n, i_d, i_k, i_ds), data_axes)))
        yield TrialCell(
            regime=config.regime, activation=config.activation, n=n, d=d, k=k, lam=lam,
            zeta=zeta, dataset_seed=ds_seed, weight_seed=splitmix64(ds_seed, i_w),
            mc_samples=config.mc_samples,
        )


def run_sweep(config: SweepConfig, workers: int = 1) -> str:
    """Run the full grid, one `run_trial` per (X, W) group on the calling
    thread, into the output path, which it returns and opens before the
    first trial. Rows go out in `iter_cells` order, flushed after each
    (n, d, k) block, so a run holds one block and a killed run keeps every
    finished block. `workers` >= 1 does not change the run."""
    if workers < 1:
        raise InvalidArgument(f"workers must be >= 1, got {workers}")
    # (lambda, zeta) outer, (dataset, weight draw) inner: group g is block[g::groups]
    groups = config.datasets_per_cell * config.weight_draws_per_dataset
    size = groups * len(config.lambda_grid) * len(config.zeta_grid)
    cells = iter_cells(config)
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            while block := list(islice(cells, size)):
                records = [run_trial(block[g::groups]) for g in range(groups)]
                writer.writerows(rec.csv_row() for row in zip(*records) for rec in row)
                fh.flush()
                del records  # before the next block runs
    except OSError as exc:
        raise IoError(f"cannot write {config.output_path}: {exc}") from exc
    return config.output_path


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


_FULL_LAMBDAS = (0.0, 1e-5, 1e-4, 1e-3)
_FULL_ZETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
_RELU = ActivationKind.RELU

#: named experiment grids; the -mini variants are desk-scale versions with
#: ~1/10 of the grid density and at most 5 repetitions per cell
PRESETS = {
    "exp1": SweepConfig(
        regime="ntk_finite", activation=_RELU, n_grid=tuple(range(20, 3021, 100)),
        d_grid=(50,), k_grid=(40,), lambda_grid=_FULL_LAMBDAS,
        zeta_grid=_FULL_ZETAS, datasets_per_cell=10, weight_draws_per_dataset=15,
    ),
    "exp1-mini": SweepConfig(
        regime="ntk_finite", activation=_RELU, n_grid=(20, 1020, 2020, 3020),
        d_grid=(50,), k_grid=(40,), lambda_grid=(0.0, 1e-3),
        zeta_grid=(0.0, 0.5, 1.0), datasets_per_cell=3, weight_draws_per_dataset=2,
    ),
    "exp2": SweepConfig(
        regime="rf_finite", activation=_RELU, n_grid=tuple(range(200, 1001, 100)),
        d_grid=(300,), k_grid=tuple(range(100, 1001, 50)),
        lambda_grid=_FULL_LAMBDAS, zeta_grid=_FULL_ZETAS,
        datasets_per_cell=10, weight_draws_per_dataset=15,
    ),
    "exp2-mini": SweepConfig(
        regime="rf_finite", activation=_RELU, n_grid=(200, 400, 800),
        d_grid=(300,), k_grid=(400,), lambda_grid=(0.0, 1e-3),
        zeta_grid=(1.0,), datasets_per_cell=3, weight_draws_per_dataset=3,
    ),
    "exp3": SweepConfig(
        regime="rf_infinite", activation=_RELU, n_grid=tuple(range(100, 1001, 100)),
        d_grid=(500,), k_grid=(0,), lambda_grid=(0.0,),
        zeta_grid=_FULL_ZETAS, datasets_per_cell=10,
    ),
    "exp3-mini": SweepConfig(
        regime="rf_infinite", activation=_RELU, n_grid=(100, 400, 700, 1000),
        d_grid=(500,), k_grid=(0,), lambda_grid=(0.0,),
        zeta_grid=(0.2, 0.6, 1.0), datasets_per_cell=3,
    ),
}

