"""lawbench command-line interface.

Exit codes: 0 success, 2 invalid config/arguments, 3 I/O error,
4 numeric failure in a non-sweep command.
"""

import argparse
import dataclasses
import json
import math
import sys
import typing

import numpy as np

from .activations import ActivationKind
from .analyze import THRESHOLD_EXPRS, X_EXPRS, analyze_descent, analyze_law, asymptotics
from .data import gen_dataset
from .errors import InvalidArgument, IoError, NumericFailure, RoblawError, SingularKernel
from .sobolev import MIN_MC_SAMPLES
from .sweep import (
    CSV_COLUMNS,
    PRESETS,
    SweepConfig,
    TrialCell,
    blank_record,
    fill_record,
    run_sweep,
)

def _parse_value(kind, text: str):
    """`text` as a value of the annotated SweepConfig field type `kind`."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in text.split(",") if v.strip())
    return kind(text)


def parse_config_file(path: str) -> dict:
    """Flat key=value config; the keys and their types are the SweepConfig
    fields. '#' starts a comment; lists are comma-separated. Unknown keys
    and malformed values are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    kinds = {f.name: f.type for f in dataclasses.fields(SweepConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in kinds:
            raise InvalidArgument(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _parse_value(kinds[key], val)
        except ValueError as exc:
            raise InvalidArgument(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def _finite_json(obj):
    """`obj` with each non-finite float written as the CSV writes it:
    "inf", "-inf" or "nan", which strict JSON parsers accept."""
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "%.17g" % obj
    return obj


def _json_print(obj):
    print(json.dumps(_finite_json(obj), indent=2, allow_nan=False))


def cmd_gen_data(args):
    data = gen_dataset(args.n, args.d, args.zeta, args.seed)
    header = ",".join([f"x{i+1}" for i in range(args.d)] + ["y"])
    body = np.column_stack([data.X.points, data.y])
    try:
        np.savetxt(args.out, body, delimiter=",", header=header,
                   comments="", fmt="%.17g")
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.n} x {args.d + 1} values to {args.out}")


def cmd_fit(args):
    # a lone cell takes fewer samples and fails after its fit; a command fails first
    if args.mc_samples < MIN_MC_SAMPLES:
        raise InvalidArgument(f"--mc-samples must be >= {MIN_MC_SAMPLES}")
    cell = TrialCell(
        regime=args.regime, activation=ActivationKind(args.activation),
        n=args.n, d=args.d, k=args.k, lam=args.lam,
        zeta=args.zeta, dataset_seed=args.seed, weight_seed=args.seed + 1,
        mc_samples=args.mc_samples,
    )
    record = fill_record(blank_record(cell), cell)
    _json_print(dict(zip(CSV_COLUMNS, record.csv_row())))


def cmd_sweep(args):
    """An explicit --seed or --out overrides the config file, which
    overrides the SweepConfig defaults."""
    if (args.preset is None) == (args.config is None):
        raise InvalidArgument("sweep needs exactly one of --preset and --config")
    if args.preset:
        cfg = PRESETS[args.preset]
    else:
        try:
            cfg = SweepConfig(**parse_config_file(args.config))
        except TypeError as exc:
            raise InvalidArgument(f"bad config: {exc}") from exc
    flags = {"base_seed": args.seed, "output_path": args.out}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    path = run_sweep(cfg)
    print(f"wrote {path}")


def cmd_analyze_law(args):
    kw = {"group_by": tuple(args.group_by.split(","))} if args.group_by else {}
    _json_print(analyze_law(args.csv, x_expr=args.x_expr, **kw))


def cmd_analyze_descent(args):
    _json_print(analyze_descent(args.csv, threshold_expr=args.threshold))


def cmd_asymptotics(args):
    _json_print(asymptotics(args.gamma, args.nlambda))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lawbench",
        description="Robustness-law benchmarks for two-layer networks "
                    "in RF/NTK regimes.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    activations = [a.value for a in ActivationKind]

    sp = sub.add_parser("gen-data", help="write a generic dataset as CSV")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--zeta", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="data.csv")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("fit", help="run a single trial and print the record")
    sp.add_argument("--regime", required=True)
    sp.add_argument("--activation", default="relu", choices=activations)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--zeta", type=float, default=0.0)
    sp.add_argument("--mc-samples", type=int, default=SweepConfig.mc_samples)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("sweep", help="run an experiment grid to CSV")
    sp.add_argument("--preset", choices=PRESETS)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("analyze-law", help="robustness-law regression per group")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--x-expr", default="sqrt_n", choices=X_EXPRS)
    sp.add_argument("--group-by", default="")
    sp.set_defaults(func=cmd_analyze_law)

    sp = sub.add_parser("analyze-descent", help="interpolation-threshold peaks")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--threshold", default="n_eq_k", choices=THRESHOLD_EXPRS)
    sp.set_defaults(func=cmd_analyze_descent)

    sp = sub.add_parser("asymptotics", help="ridge(less) reference limits")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--nlambda", type=float, default=0.0)
    sp.set_defaults(func=cmd_asymptotics)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericFailure, SingularKernel, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RoblawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
