import csv
import json
import math

import numpy as np
import pytest

from roblaw.cli import main, parse_config_file
from roblaw.errors import InvalidArgument
from roblaw.sweep import CSV_COLUMNS


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


def test_eigs_json(capsys):
    code, out, _ = run_cli(capsys, "eigs", "--d", "12", "--k", "8",
                           "--activation", "relu", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda_min"] > 0
    assert obj["cond"] == pytest.approx(obj["lambda_max"] / obj["lambda_min"])


def test_fit_prints_full_record(capsys):
    code, out, _ = run_cli(capsys, "fit", "--regime", "linear", "--n", "10",
                           "--d", "20", "--zeta", "0.2", "--mc-samples", "300")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == set(CSV_COLUMNS)
    assert float(obj["train_mse"]) < 1e-10


def test_fit_numeric_failure_exits_4(capsys):
    # tanh has no infinite-width kernel profile
    code, _, err = run_cli(capsys, "fit", "--regime", "rf_infinite",
                           "--activation", "tanh", "--n", "5", "--d", "6")
    assert code == 4 and "error" in err


def test_invalid_regime_exits_2(capsys):
    code, _, err = run_cli(capsys, "fit", "--regime", "bogus", "--n", "5",
                           "--d", "6")
    assert code == 2


@pytest.mark.parametrize("bad", [("--zeta", "2"), ("--lambda", "-1")])
def test_fit_out_of_range_exits_2(capsys, bad):
    code, out, err = run_cli(capsys, "fit", "--regime", "linear", "--n", "10",
                             "--d", "20", *bad)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("argv", [
    ("asymptotics", "--gamma", "2", "--workers", "2"),
    ("eigs", "--d", "12", "--k", "8", "--out", "x"),
    ("fit", "--regime", "linear", "--n", "10", "--d", "20", "--workers", "2"),
    ("analyze-law", "--csv", "x.csv", "--seed", "1"),
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_sobolev_command(capsys):
    code, out, _ = run_cli(capsys, "sobolev", "--regime", "rf_finite",
                           "--n", "8", "--d", "10", "--k", "16",
                           "--mc-samples", "2000", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["sobolev_mc"] == pytest.approx(obj["sobolev_analytic"], rel=0.2)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "regime = rf_finite  # comment\n"
        "\n"
        "n_grid = 8, 16\n"
        "lambda_grid = 0, 1e-3\n"
        "zero_signal = true\n"
    )
    fields = parse_config_file(str(cfg))
    assert fields == {
        "regime": "rf_finite", "n_grid": (8, 16),
        "lambda_grid": (0.0, 1e-3), "zero_signal": True,
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


def test_sweep_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("regime = rf_finite\nwidgets = 3\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2


def test_sweep_without_source_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sweep")
    assert code == 2


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
    groups = json.loads(out)["groups"]
    (stats,) = groups.values()
    assert stats["slope"] == pytest.approx(2.0, abs=1e-9)
    assert stats["correlation"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_law_missing_csv_exits_3(capsys):
    code, _, _ = run_cli(capsys, "analyze-law", "--csv", "/no/such/file.csv")
    assert code == 3


def test_analyze_descent_bad_threshold_exits_2(tmp_path, capsys):
    path = tmp_path / "planted.csv"
    _write_planted_csv(str(path), slope=1.0)  # k=0 rows: no n/k coordinate
    code, _, _ = run_cli(capsys, "analyze-descent", "--csv", str(path))
    assert code == 2
