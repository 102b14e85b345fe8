import csv
import math
import warnings

import pytest

from roblaw.analyze import analyze_descent, analyze_law
from roblaw.errors import InvalidArgument
from roblaw.sweep import CSV_COLUMNS


def _write_csv(path, rows, columns=CSV_COLUMNS) -> str:
    """A CSV of `columns` whose rows are `rows` (column -> value) over zero
    cells."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            rec = {c: "0" for c in columns}
            rec.update(regime="rf_finite", activation="relu", solver_fallback="false", reason="")
            rec.update({c: "%.17g" % v if isinstance(v, float) else str(v)
                        for c, v in row.items()})
            w.writerow(rec)
    return str(path)


def test_law_recovers_a_planted_sqrt_n_over_k_slope_without_k_zero_rows(tmp_path):
    rows = [
        {"n": n, "k": k, "zeta": zeta, "train_mse": 0.01,
         "sobolev_mc": 3.0 * (zeta**2 - 0.01) * math.sqrt(n / k)}
        for n in (100, 400, 900) for k in (10, 40) for zeta in (0.4, 0.8)
    ]
    rows += [{"n": n, "k": 0, "zeta": 0.5, "train_mse": 0.01, "sobolev_mc": 1e6}
             for n in (100, 400, 900)]
    res = analyze_law(_write_csv(tmp_path / "law.csv", rows), "sqrt_n_over_k")
    (stats,) = res["groups"].values()
    assert stats["count"] == 12
    assert stats["slope"] == pytest.approx(3.0, abs=1e-9)
    assert stats["intercept"] == pytest.approx(0.0, abs=1e-9)
    assert stats["correlation"] == pytest.approx(1.0, abs=1e-12)


def test_law_skips_a_group_of_fewer_than_three_points(tmp_path):
    rows = [{"n": n, "zeta": 0.5, "lambda": lam, "sobolev_mc": float(n)}
            for lam, ns in (("0", (4, 9, 16)), ("0.1", (4, 9))) for n in ns]
    res = analyze_law(_write_csv(tmp_path / "law.csv", rows))
    assert list(res["groups"]) == ["regime=rf_finite|activation=relu|lambda=0"]
    assert res["skipped"] == ["regime=rf_finite|activation=relu|lambda=0.1"]


def test_law_of_a_constant_x_group_is_the_mean_of_y(tmp_path):
    rows = [{"n": 100, "zeta": 0.5, "sobolev_mc": y} for y in (1.0, 2.0, 3.0)]
    path = _write_csv(tmp_path / "law.csv", rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = analyze_law(path)
    (stats,) = res["groups"].values()
    assert stats == {"slope": 0.0, "intercept": 2.0, "correlation": 0.0, "count": 3}


@pytest.mark.parametrize("threshold, d, k, ns, columns", [
    ("n_eq_d", 10, 0, (5, 10, 20), CSV_COLUMNS),  # n / d needs no k
    ("n_eq_kd", 10, 2, (10, 20, 40), CSV_COLUMNS),
    ("n_eq_k", 0, 10, (5, 10, 20), ("n", "k", "lambda", "sobolev_mc")),  # no d column
])
def test_descent_finds_a_planted_peak(tmp_path, threshold, d, k, ns, columns):
    # medians 1, 4, 2 at coordinates 0.5, 1, 2: the peak ratio is 4 / 2
    rows = [{"n": n, "d": d, "k": k, "sobolev_mc": y + e}
            for n, y in zip(ns, (1.0, 4.0, 2.0)) for e in (-0.5, 0.0, 0.5)]
    if k:  # rows with k = 0 have no n / k or n / (k d)
        rows += [{"n": n, "d": d, "k": 0, "sobolev_mc": 1e6} for n in ns]
    res = analyze_descent(_write_csv(tmp_path / "descent.csv", rows, columns), threshold)
    assert res["per_lambda"]["0"] == {
        "center_coord": 1.0,
        "flank_coords": [0.5, 2.0],
        "center_median": 4.0,
        "flank_medians": [1.0, 2.0],
        "peak_ratio": 2.0,
    }


@pytest.mark.parametrize("analysis, message", [
    (analyze_law, "x_expr must be one of ('sqrt_n', 'sqrt_n_over_k')"),
    (analyze_descent, "threshold_expr must be one of ('n_eq_k', 'n_eq_d', 'n_eq_kd')"),
])
def test_an_unknown_law_or_threshold_names_every_known_one(analysis, message):
    with pytest.raises(InvalidArgument) as exc:
        analysis("unread.csv", "n_eq_n")
    assert str(exc.value) == message
