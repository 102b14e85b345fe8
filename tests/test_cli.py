import argparse
import csv
import inspect
import json
import math
from dataclasses import fields

import numpy as np
import pytest

import roblaw.analyze
import roblaw.fit
import roblaw.sobolev
import roblaw.sweep
from roblaw import ActivationKind, SweepConfig
from roblaw.cli import build_parser, main, parse_config_file
from roblaw.errors import InvalidArgument, SingularKernel
from roblaw.spectral import sym_eigs
from roblaw.sphere import sample_sphere
from roblaw.sweep import CSV_COLUMNS, splitmix64


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_asymptotics_json(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "--gamma", "0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["norm_limit"] == pytest.approx(2.0)
    assert obj["mse_limit"] == pytest.approx(0.0)
    code, out, _ = run_cli(capsys, "asymptotics", "--gamma", "2.0")
    assert json.loads(out)["mse_limit"] == pytest.approx(0.5)


def test_gen_data_writes_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, out, _ = run_cli(capsys, "gen-data", "--n", "7", "--d", "4",
                           "--zeta", "0.3", "--out", str(path))
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["x1", "x2", "x3", "x4", "y"]
    assert len(rows) == 8
    x = np.array([[float(v) for v in r[:4]] for r in rows[1:]])
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_gen_data_unwritable_path_exits_3(capsys):
    code, _, err = run_cli(capsys, "gen-data", "--n", "3", "--d", "3",
                           "--out", "/no/such/dir/data.csv")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("argv", [
    ("gen-data", "--n", "5", "--d", "3"),
    ("fit", "--regime", "linear", "--n", "5", "--d", "6"),
    ("sweep", "--preset", "exp3-mini"),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out_path = tmp_path / "data.csv"
    extra = ("--out", str(out_path)) if argv[0] != "fit" else ()
    code, out, err = run_cli(capsys, *argv, *extra, "--seed", "-1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "seeds must be >= 0" in err and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("zeta", ["nan", "inf", "-1"])
def test_gen_data_non_finite_or_negative_zeta_exits_2(tmp_path, capsys, zeta):
    path = tmp_path / "data.csv"
    code, out, err = run_cli(capsys, "gen-data", "--n", "5", "--d", "3",
                             "--zeta", zeta, "--out", str(path))
    assert code == 2 and out == "" and "zeta must be finite and nonnegative" in err
    assert not path.exists()


def test_fit_prints_full_record(capsys):
    code, out, _ = run_cli(capsys, "fit", "--regime", "linear", "--n", "10",
                           "--d", "20", "--zeta", "0.2", "--mc-samples", "300")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == set(CSV_COLUMNS)
    assert float(obj["train_mse"]) < 1e-10


@pytest.mark.parametrize("bad", [
    ("--regime", "linear", "--mc-samples", "10"),
    ("--regime", "rf_finite", "--k", "0"),
    # tanh has no infinite-width kernel profile
    ("--regime", "rf_infinite", "--activation", "tanh"),
])
def test_unsupported_trial_arguments_exit_2(capsys, bad):
    code, out, err = run_cli(capsys, "fit", "--n", "5", "--d", "6", *bad)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("sizes, needle", [
    (("--n", "5", "--d", "6"), "rf_finite needs k >= 1"),  # --k defaults to 0
    (("--n", "0", "--d", "6", "--k", "4"), "rf_finite needs n >= 1"),
    (("--n", "5", "--d", "1", "--k", "4"), "rf_finite needs d >= 2"),
])
def test_trial_names_the_size_it_rejects_before_any_compute(capsys, monkeypatch, sizes, needle):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "gen_dataset", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "fit", "--regime", "rf_finite", *sizes)
    assert code == 2 and out == "" and needle in err and calls == []


def test_too_few_monte_carlo_samples_exit_2_before_any_compute(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "gen_dataset", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "fit", "--regime", "rf_infinite", "--n", "1500",
                             "--d", "100", "--mc-samples", "99")
    assert code == 2 and out == "" and "--mc-samples must be >= 100" in err
    assert calls == []


def test_fit_numeric_failure_exits_4(capsys, monkeypatch):
    for exc in (SingularKernel("forced"), np.linalg.LinAlgError("forced")):
        def failing_solve(*args, **kwargs):
            raise exc

        monkeypatch.setattr(roblaw.fit, "solve_psd", failing_solve)
        code, out, err = run_cli(capsys, "fit", "--regime", "linear", "--n", "10",
                                 "--d", "20")
        assert code == 4 and out == "" and "forced" in err


def test_oversized_monte_carlo_sample_exits_2_before_it_is_drawn(capsys, monkeypatch):
    original = roblaw.sobolev.sphere_blocks

    def small_only(d, n, seed, *args):
        if n * d > 10**6:
            raise AssertionError(f"drew a {n} x {d} sample")
        return original(d, n, seed, *args)

    monkeypatch.setattr(roblaw.sobolev, "sphere_blocks", small_only)
    code, out, err = run_cli(capsys, "fit", "--regime", "linear", "--n", "5",
                             "--d", "5", "--mc-samples", "100000000")
    assert code == 2 and out == "" and "too large" in err


@pytest.mark.parametrize("command", ["sweep", "fit"])
def test_monte_carlo_sample_over_the_work_limit_exits_2_before_any_dataset(
        tmp_path, capsys, monkeypatch, command):
    # a 5000000 x 50 sample is over the limit, so every group would draw its
    # dataset, fail, and draw it again for each cell
    calls = []
    monkeypatch.setattr(roblaw.sweep, "gen_dataset", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "over.csv"
    argv = {
        "sweep": ("sweep", "--out", str(out), "--config", _sweep_config_file(
            tmp_path, "n_grid = 10\nd_grid = 50\nlambda_grid = 0, 1e-3\nmc_samples = 5000000")),
        "fit": ("fit", "--regime", "linear", "--n", "10", "--d", "50",
                "--mc-samples", "5000000"),
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == "" and "sphere sample 5000000 x 50 too large" in err
    assert calls == [] and not out.exists()


def test_invalid_regime_exits_2(capsys):
    code, _, err = run_cli(capsys, "fit", "--regime", "bogus", "--n", "5",
                           "--d", "6")
    assert code == 2


@pytest.mark.parametrize("bad", [
    ("--zeta", "2"), ("--lambda", "-1"),
    ("--zeta", "nan"), ("--lambda", "nan"), ("--lambda", "inf"),
])
def test_fit_out_of_range_exits_2(capsys, bad):
    code, out, err = run_cli(capsys, "fit", "--regime", "linear", "--n", "10",
                             "--d", "20", *bad)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("argv", [
    ("asymptotics", "--gamma", "2", "--workers", "2"),
    ("eigs", "--d", "5", "--k", "3"),
    ("fit", "--regime", "linear", "--n", "10", "--d", "20", "--workers", "2"),
    ("analyze-law", "--csv", "x.csv", "--seed", "1"),
    ("sweep", "--preset", "exp3-mini", "--workers", "2"),
    ("sobolev", "--regime", "linear", "--n", "5", "--d", "6"),
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("regime", ["rf_finite", "ntk_finite"])
def test_fit_record_carries_the_spectrum_of_its_hidden_layer(capsys, regime):
    code, out, _ = run_cli(capsys, "fit", "--regime", regime, "--n", "10", "--d", "12",
                           "--k", "8", "--activation", "relu", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    W = sample_sphere(12, 8, int(obj["weight_seed"]))
    s = sym_eigs(roblaw.sweep.REGIME_TABLE[regime].c_matrix(W, ActivationKind.RELU))
    assert 0 < s.lambda_min < s.lambda_max
    assert (float(obj["lambda_min_C"]), float(obj["lambda_max_C"])) == (s.lambda_min,
                                                                        s.lambda_max)


def test_fit_seminorm_estimates_agree(capsys):
    code, out, _ = run_cli(capsys, "fit", "--regime", "rf_finite",
                           "--n", "8", "--d", "10", "--k", "16",
                           "--mc-samples", "2000", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert float(obj["sobolev_mc"]) == pytest.approx(float(obj["sobolev_analytic"]), rel=0.2)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "regime = rf_finite  # comment\n"
        "\n"
        "n_grid = 8, 16\n"
        "lambda_grid = 0, 1e-3\n"
    )
    fields = parse_config_file(str(cfg))
    assert fields == {
        "regime": "rf_finite", "n_grid": (8, 16), "lambda_grid": (0.0, 1e-3),
    }
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(InvalidArgument):
        parse_config_file(str(cfg))


def test_sweep_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "regime = rf_finite\n"
        "activation = relu\n"
        "n_grid = 8\n"
        "d_grid = 10\n"
        "k_grid = 12\n"
        "lambda_grid = 0\n"
        "zeta_grid = 0.5\n"
        "mc_samples = 200\n"
    )
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                         "--out", str(out_path), "--seed", "5")
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == CSV_COLUMNS and len(rows) == 2


def test_config_file_round_trip(tmp_path):
    cfg = SweepConfig(
        regime="ntk_finite", activation=ActivationKind.ERF, n_grid=(8, 16),
        d_grid=(3,), k_grid=(4, 5, 6), lambda_grid=(0.0, 1e-3, 0.25),
        zeta_grid=(0.1, 1.0), datasets_per_cell=2, weight_draws_per_dataset=3,
        mc_samples=1234, base_seed=42, output_path=str(tmp_path / "o.csv"),
    )

    def text(v):
        if isinstance(v, tuple):
            return ", ".join(map(repr, v))
        return v.value if isinstance(v, ActivationKind) else str(v)

    assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{f.name} = {text(getattr(cfg, f.name))}\n"
                            for f in fields(cfg)))
    assert SweepConfig(**parse_config_file(str(path))) == cfg


@pytest.mark.parametrize("argv, config, bad", [
    (("fit", "--regime", "linear", "--n", "5", "--d", "6", "--activation", "bogus"),
     None, "bogus"),
    (("sweep",), "activation = bogus\n", "cfg.txt:2: activation:"),
    (("sweep",), "n_grid = ten\n", "cfg.txt:2: n_grid:"),
    (("sweep",), "mc_samples = 1.5\n", "cfg.txt:2: mc_samples:"),
    (("sweep",), "n_grid 8\n", "cfg.txt:2: expected key=value"),
    (("sweep",), "zero_signal = true\n", "cfg.txt:2: unknown key 'zero_signal'"),
    (("sweep",), "n_grid = 6\nd_grid = 3\nn_grid = 9\n", "cfg.txt:4: duplicate key 'n_grid'"),
    (("fit", "--regime", "rf_infinite", "--n", "20", "--d", "5", "--k", "7"),
     None, "rf_infinite has no hidden layer, so k must be 0"),
    (("sweep", "--preset", "exp9"), None, "invalid choice: 'exp9'"),
])
def test_bad_activation_or_config_value_exits_2(tmp_path, capsys, argv, config, bad):
    if config is not None:
        path = tmp_path / "cfg.txt"
        path.write_text("regime = linear\n" + config)
        argv = (*argv, "--config", str(path), "--out", str(tmp_path / "o.csv"))
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a value outside its choices
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and bad in err
    assert not (tmp_path / "o.csv").exists()


def _sweep_config_file(tmp_path, extra=""):
    """A one-cell linear config, each `key = value` line of extra setting
    its key in place of the base's: a config file sets a key once."""
    keys = {"regime": "linear", "activation": "relu", "n_grid": "6", "d_grid": "8",
            "k_grid": "0", "lambda_grid": "0", "zeta_grid": "0.5", "mc_samples": "200"}
    keys.update((key.strip(), value.strip())
                for key, _, value in (line.partition("=") for line in extra.splitlines()))
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return str(path)


def _dataset_seed(csv_path):
    (row,) = csv.DictReader(csv_path.read_text().splitlines())
    return int(row["dataset_seed"])


def test_sweep_config_file_overrides_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "from_file.csv"
    cfg = _sweep_config_file(tmp_path, f"base_seed = 9\noutput_path = {out}\n")
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0 and not (tmp_path / "sweep.csv").exists()
    assert _dataset_seed(out) == splitmix64(9, 0)


def test_sweep_flags_override_config_file(tmp_path, capsys):
    cfg = _sweep_config_file(tmp_path, f"base_seed = 9\noutput_path = {tmp_path / 'x.csv'}\n")
    out = tmp_path / "from_flag.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--seed", "4", "--out", str(out))
    assert code == 0 and not (tmp_path / "x.csv").exists()
    assert _dataset_seed(out) == splitmix64(4, 0)


def test_sweep_unwritable_out_exits_3_before_compute(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "run_trial", calls.append)
    code, _, err = run_cli(capsys, "sweep", "--config", _sweep_config_file(tmp_path),
                           "--out", str(tmp_path / "no" / "such" / "dir.csv"))
    assert code == 3 and "error" in err and calls == []


@pytest.mark.parametrize("line", ["lambda_grid = 0, nan", "lambda_grid = inf",
                                  "zeta_grid = nan"])
def test_sweep_non_finite_grid_value_exits_2(tmp_path, capsys, monkeypatch, line):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "run_trial", calls.append)
    out = tmp_path / "g.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", _sweep_config_file(tmp_path, line + "\n"),
                           "--out", str(out))
    assert code == 2 and "error" in err and calls == [] and not out.exists()


@pytest.mark.parametrize("line, needle", [
    ("mc_samples = 50", "mc_samples must be >= 100"),
    ("n_grid =", "empty grid axis: n_grid"),
    ("lambda_grid =", "empty grid axis: lambda_grid"),
    ("zeta_grid = ,", "empty grid axis: zeta_grid"),
    ("n_grid = 6, 0", "linear needs n >= 1"),
    ("d_grid = 1", "linear needs d >= 2"),
    ("regime = rf_finite", "rf_finite needs k >= 1"),  # k_grid = 0
    # no infinite-width kernel profile for erf; a lone cell gives a tagged row
    ("regime = rf_infinite\nactivation = erf", "order-1 homogeneous"),
])
def test_sweep_that_can_give_no_row_exits_2_before_compute(tmp_path, capsys, monkeypatch,
                                                           line, needle):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "run_trial", calls.append)
    out = tmp_path / "none.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", _sweep_config_file(tmp_path, line + "\n"),
                           "--out", str(out))
    assert code == 2 and needle in err and calls == [] and not out.exists()


def test_sweep_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("regime = rf_finite\nwidgets = 3\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2


def test_sweep_without_source_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sweep")
    assert code == 2


def test_sweep_with_preset_and_config_exits_2(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(roblaw.sweep, "run_trial", calls.append)
    out = tmp_path / "both.csv"
    code, _, err = run_cli(capsys, "sweep", "--preset", "exp3-mini", "--config",
                           _sweep_config_file(tmp_path), "--out", str(out))
    assert code == 2 and "exactly one of" in err and calls == [] and not out.exists()


def _write_planted_csv(path, slope):
    """Rows where sobolev_mc = slope * (zeta^2 - train_mse) * sqrt(n)."""
    rows = []
    for n in (100, 400, 900):
        for zeta in (0.4, 0.8):
            x = (zeta**2 - 0.01) * math.sqrt(n)
            rec = {c: "0" for c in CSV_COLUMNS}
            rec.update({
                "regime": "rf_infinite", "activation": "relu",
                "n": str(n), "d": "500", "k": "0", "lambda": "0",
                "zeta": str(zeta), "train_mse": "0.01",
                "sobolev_mc": "%.17g" % (slope * x),
                "solver_fallback": "false", "reason": "",
            })
            rows.append(rec)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows(rows)


def test_analyze_law_recovers_planted_slope(tmp_path, capsys):
    path = tmp_path / "planted.csv"
    _write_planted_csv(str(path), slope=2.0)
    code, out, _ = run_cli(capsys, "analyze-law", "--csv", str(path))
    assert code == 0
    obj = json.loads(out)
    default = inspect.signature(roblaw.analyze.analyze_law).parameters["group_by"].default
    assert obj["group_by"] == list(default)
    (stats,) = obj["groups"].values()
    assert stats["slope"] == pytest.approx(2.0, abs=1e-9)
    assert stats["correlation"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("command, dest, schema", [
    ("analyze-law", "x_expr", roblaw.analyze.X_EXPRS),
    ("analyze-descent", "threshold", roblaw.analyze.THRESHOLD_EXPRS),
    ("sweep", "preset", roblaw.sweep.PRESETS),
])
def test_cli_choices_are_the_library_tables(command, dest, schema):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
    assert action.choices is schema


def test_mc_samples_defaults_are_the_sweep_config_default():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.default for a in sub.choices["fit"]._actions if a.dest == "mc_samples"}
    cell = {f.name: f.default for f in fields(roblaw.sweep.TrialCell)}["mc_samples"]
    config = {f.name: f.default for f in fields(SweepConfig)}["mc_samples"]
    assert flags == {cell} == {config}


def test_analyze_law_missing_csv_exits_3(capsys):
    code, _, _ = run_cli(capsys, "analyze-law", "--csv", "/no/such/file.csv")
    assert code == 3


def test_analyze_descent_bad_threshold_exits_2(tmp_path, capsys):
    path = tmp_path / "planted.csv"
    _write_planted_csv(str(path), slope=1.0)  # k=0 rows: no n/k coordinate
    code, _, _ = run_cli(capsys, "analyze-descent", "--csv", str(path))
    assert code == 2


def _strict_json(text):
    def reject(name):
        raise ValueError(f"bare {name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, key", [
    (("asymptotics", "--gamma", "1"), "norm_limit"),
    # identity features of width k = 8 > d = 3 give a singular gram
    (("fit", "--regime", "rf_finite", "--n", "10", "--d", "3", "--k", "8",
      "--activation", "identity"), "gram_cond"),
])
def test_non_finite_json_values_are_strings(capsys, argv, key):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _strict_json(out)[key] == "inf"


@pytest.mark.parametrize("argv", [
    ("--gamma", "nan"),
    ("--gamma", "inf"),
    ("--gamma", "2", "--nlambda", "inf"),
    ("--gamma", "2", "--nlambda", "nan"),
])
def test_asymptotics_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "asymptotics", *argv)
    assert code == 2 and out == "" and "finite" in err


def test_asymptotics_integrates_the_norm_once(capsys, monkeypatch):
    calls = []
    original = roblaw.analyze.mp_integral

    def counted(gamma, nlambda, which):
        calls.append(which)
        return original(gamma, nlambda, which)

    monkeypatch.setattr(roblaw.analyze, "mp_integral", counted)
    code, out, _ = run_cli(capsys, "asymptotics", "--gamma", "0.5", "--nlambda", "0.3")
    obj = _strict_json(out)
    assert code == 0 and sorted(calls) == ["mse", "norm"]
    assert obj["norm_limit"] == obj["mp_norm_integral"] == original(0.5, 0.3, "norm")


def _edited_planted_csv(path, drop=None, cell=None):
    """The planted CSV without column `drop`, or with `cell` = (column,
    text) written into its second row."""
    _write_planted_csv(str(path), slope=1.0)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = [c for c in CSV_COLUMNS if c != drop]
    if cell is not None:
        rows[1][cell[0]] = cell[1]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


@pytest.mark.parametrize("command, edit, flags, needle", [
    ("analyze-law", dict(drop="regime"), (), "no column regime"),
    ("analyze-descent", dict(drop="sobolev_mc"), (), "no column sobolev_mc"),
    ("analyze-law", dict(cell=("train_mse", "abc")), (), ":3: train_mse: not a number"),
    ("analyze-law", {}, ("--group-by", "regime,nosuch"), "no column nosuch"),
])
def test_analyze_unreadable_csv_exits_2(tmp_path, capsys, command, edit, flags, needle):
    path = tmp_path / "edited.csv"
    _edited_planted_csv(path, **edit)
    code, out, err = run_cli(capsys, command, "--csv", str(path), *flags)
    assert code == 2 and out == "" and f"{path}" in err and needle in err
