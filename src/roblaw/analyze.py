"""Post-hoc analysis of sweep CSVs: the robustness-law regression
(seminorm against excess-accuracy times a sample-size factor) and
multiple-descent peak detection at interpolation thresholds."""

import csv
import math

import numpy as np

from .errors import InvalidArgument, IoError
from .fit import ridgeless_norm_limit
from .spectral import mp_integral

#: law -> (the columns its factor reads besides n, the factor of a row)
X_EXPRS = {
    "sqrt_n": ((), lambda v: math.sqrt(v["n"])),
    "sqrt_n_over_k": (("k",), lambda v: math.sqrt(v["n"] / v["k"]) if v["k"] > 0 else math.nan),
}
#: threshold -> (the columns its coordinate reads besides n, the
#: coordinate of a row, which is 1 at the threshold)
THRESHOLD_EXPRS = {
    "n_eq_k": (("k",), lambda v: v["n"] / v["k"] if v["k"] > 0 else math.nan),
    "n_eq_d": (("d",), lambda v: v["n"] / v["d"]),
    "n_eq_kd": (("k", "d"), lambda v: v["n"] / (v["k"] * v["d"]) if v["k"] > 0 else math.nan),
}


def read_sweep_csv(path: str, columns) -> list[dict]:
    """The rows of a sweep CSV, whose header must name every one of `columns`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise InvalidArgument(f"{path}: no column {', '.join(missing)}")
    return rows


def _floats(path: str, line: int, row: dict, columns) -> dict:
    """The cells `columns` of the row on CSV line `line` as floats."""
    out = {}
    for c in columns:
        try:
            out[c] = float(row[c])
        except (TypeError, ValueError):
            raise InvalidArgument(f"{path}:{line}: {c}: not a number: {row[c]!r}") from None
    return out


def analyze_law(
    csv_path: str,
    x_expr: str = "sqrt_n",
    group_by: tuple = ("regime", "activation", "lambda"),
) -> dict:
    """Per group: least-squares slope/intercept and Pearson correlation of
    sobolev_mc against (zeta^2 - train_mse) * x_expr. Groups with fewer
    than 3 finite points are skipped; a group whose x is constant has
    slope 0 and the mean of its y as intercept."""
    if x_expr not in X_EXPRS:
        raise InvalidArgument(f"x_expr must be one of {tuple(X_EXPRS)}")
    extra, xfactor = X_EXPRS[x_expr]
    columns = ("n", "zeta", "train_mse", "sobolev_mc", *extra)
    rows = read_sweep_csv(csv_path, (*group_by, *columns))
    groups: dict[str, list] = {}
    for line, row in enumerate(rows, 2):
        v = _floats(csv_path, line, row, columns)
        key = "|".join(f"{g}={row[g]}" for g in group_by)
        x = (v["zeta"] ** 2 - v["train_mse"]) * xfactor(v)
        y = v["sobolev_mc"]
        if math.isfinite(x) and math.isfinite(y):
            groups.setdefault(key, []).append((x, y))
    out = {"x_expr": x_expr, "group_by": list(group_by), "groups": {}, "skipped": []}
    for key, pts in sorted(groups.items()):
        if len(pts) < 3:
            out["skipped"].append(key)
            continue
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        sx, sy = np.std(x), np.std(y)
        slope, intercept = np.polyfit(x, y, 1) if sx > 0 else (0.0, np.mean(y))
        corr = float(np.corrcoef(x, y)[0, 1]) if sx > 0 and sy > 0 else 0.0
        out["groups"][key] = {
            "slope": float(slope),
            "intercept": float(intercept),
            "correlation": corr,
            "count": len(pts),
        }
    return out


def analyze_descent(csv_path: str, threshold_expr: str = "n_eq_k") -> dict:
    """Median seminorm at the grid point nearest the interpolation
    threshold versus the medians at half and twice the threshold
    coordinate; peak ratio is the smaller of the two center/flank ratios.
    Reported separately per ridge value."""
    if threshold_expr not in THRESHOLD_EXPRS:
        raise InvalidArgument(f"threshold_expr must be one of {tuple(THRESHOLD_EXPRS)}")
    extra, coord = THRESHOLD_EXPRS[threshold_expr]
    columns = ("n", "lambda", "sobolev_mc", *extra)
    rows = read_sweep_csv(csv_path, columns)
    by_lambda: dict[str, dict[float, list]] = {}
    for line, row in enumerate(rows, 2):
        v = _floats(csv_path, line, row, columns)
        r = coord(v)
        y = v["sobolev_mc"]
        if not (math.isfinite(r) and math.isfinite(y)):
            continue
        by_lambda.setdefault(row["lambda"], {}).setdefault(r, []).append(y)
    if not by_lambda:
        raise InvalidArgument("no usable rows in the CSV")
    out = {"threshold_expr": threshold_expr, "per_lambda": {}}
    for lam, cells in sorted(by_lambda.items(), key=lambda kv: float(kv[0])):
        ratios = sorted(cells)
        if ratios[0] > 1.0 or ratios[-1] < 1.0:
            raise InvalidArgument(
                f"threshold not inside the swept grid (coords {ratios[0]:.3g}"
                f"..{ratios[-1]:.3g})"
            )
        def nearest(target):
            return min(ratios, key=lambda r: abs(math.log(r / target)))

        r_c, r_lo, r_hi = nearest(1.0), nearest(0.5), nearest(2.0)
        med = {r: float(np.median(cells[r])) for r in (r_c, r_lo, r_hi)}
        peak = min(
            med[r_c] / med[r_lo] if med[r_lo] > 0 else math.inf,
            med[r_c] / med[r_hi] if med[r_hi] > 0 else math.inf,
        )
        out["per_lambda"][lam] = {
            "center_coord": r_c,
            "flank_coords": [r_lo, r_hi],
            "center_median": med[r_c],
            "flank_medians": [med[r_lo], med[r_hi]],
            "peak_ratio": peak,
        }
    return out


def asymptotics(gamma: float, nlambda: float = 0.0) -> dict:
    """Reference limits for the ridge(less) norm and training error, with
    the matching Marchenko-Pastur resolvent integral."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise InvalidArgument(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(nlambda) and nlambda >= 0):
        raise InvalidArgument(f"nlambda must be nonnegative and finite, got {nlambda}")
    mp_norm = mp_integral(gamma, nlambda, "norm")
    norm = ridgeless_norm_limit(gamma) if nlambda == 0 else mp_norm
    mse = mp_integral(gamma, nlambda, "mse")
    return {
        "gamma": gamma,
        "nlambda": nlambda,
        "norm_limit": norm,
        "mse_limit": mse,
        "mp_norm_integral": mp_norm,
        "diverges": not math.isfinite(norm),
    }
