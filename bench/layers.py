"""Which roblaw functions the traced run wraps, and how their spans become
the per-layer metrics. Every metric is reported per sweep (one pass over a
workload's grid), so runs that fit a different number of sweeps into their
time compare directly.

Groups of one layer may overlap: a gram built from random features also
counts its feature matrix in `kernels.features_*`.
"""

import math

import numpy as np

from tracer import Target, covered, outermost, self_times


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _evals(args, kwargs, result):
    t = kwargs["t"] if "t" in kwargs else args[-1]
    return {"evals": int(np.size(t))}


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _solve(args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "K"))[0]
    meta = result[1]
    return {
        "calls": 1,
        "n3": n**3,
        "fallbacks": int(bool(meta.get("fallback", False))),
        "pinv": int(meta.get("solver") == "pinv"),
    }


TARGETS = [
    Target("sphere", "sample_sphere", "sphere", "sphere",
           lambda a, k, r: {"points": int(_arg(a, k, 1, "n"))}),
    Target("data", "gen_dataset", "data", "data", lambda a, k, r: {"calls": 1}),
    *(Target("activations", name, "activations", "activations", _evals)
      for name in ("act_eval", "act_deriv", "phi_profile", "kappa_tilde")),
    *(Target("kernels", name, "kernels", "kernels.gram",
             lambda a, k, r: {"elems": int(np.size(r))})
      for name in ("gram_dot", "empirical_gram", "cross_gram")),
    *(Target("kernels", name, "kernels", "kernels.features",
             lambda a, k, r: {"bytes": int(np.asarray(r).nbytes)})
      for name in ("features", "rf_features", "ntk_features")),
    Target("kernels", "model_gradient", "kernels", "kernels.gradient",
           lambda a, k, r: {"points": _rows(_arg(a, k, 1, "x"))}),
    Target("spectral", "sym_eigs", "spectral", "spectral.eigs",
           lambda a, k, r: {"calls": 1, "n3": np.shape(_arg(a, k, 0, "A"))[0] ** 3}),
    *(Target("spectral", name, "spectral", "spectral.cov")
      for name in ("c_sigma_cov", "c_sigma_sobolev")),
    Target("fit", "solve_psd", "fit", "fit.solve", _solve),
    *(Target("fit", name, "fit", "fit.fit")
      for name in ("fit_features", "fit_kernel", "fit_linear_ridge", "fit_linear_minnorm")),
    *(Target("fit", name, "fit", "fit.predict") for name in ("train_mse", "test_mse")),
    Target("fit", "rkhs_norm", "fit", "fit.rkhs"),
    Target("sobolev", "sobolev_monte_carlo", "sobolev", "sobolev.mc",
           lambda a, k, r: {"samples": int(_arg(a, k, 2, "m"))}),
    Target("sobolev", "sobolev_analytic", "sobolev", "sobolev.analytic"),
    Target("sweep", "run_sweep", "sweep", "sweep.sweep"),
    Target("sweep", "run_trial", "sweep", "sweep.trial", trial_root=True),
    *(Target("analyze", name, "analyze", "analyze")
      for name in ("analyze_law", "analyze_descent", "read_sweep_csv")),
]


def layer_metrics(spans, workers: int, overhead: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from the spans of one or
    more traced sweeps."""
    own = self_times(spans)
    sweeps = [s for s in spans if s.group == "sweep.sweep"]
    trials = [s for s in spans if s.group == "sweep.trial"]
    per = 1.0 / max(len(sweeps), 1)
    top = outermost(spans, key=lambda s: s.group)

    def group_s(group):
        return per * sum(s.duration for s in top if s.group == group)

    def group_count(group, counter, scale=1.0):
        return per * scale * sum(s.counts.get(counter, 0) for s in top if s.group == group)

    def self_s(pred):
        return per * sum(own[s.id] for s in spans if pred(s))

    def layer_s(layer):
        return self_s(lambda s: s.layer == layer)

    samples = [s for s in spans if s.name == "sphere.sample_sphere"]
    mc_ids = {s.id for s in spans if s.group == "sobolev.mc"}
    draws_per_mc: dict = {}
    for s in samples:
        if s.parent in mc_ids:
            draws_per_mc[s.parent] = draws_per_mc.get(s.parent, 0) + 1

    trial_s = sorted(s.duration for s in trials)
    overhead_s = 0.0
    for sw in sweeps:
        inside = [(t.start, t.end) for t in trials if sw.start <= t.start <= sw.end]
        overhead_s += sw.duration - covered(inside)
    sweep_wall = sum(s.duration for s in sweeps)
    efficiency = sum(trial_s) / (sweep_wall * workers) if sweep_wall > 0 else 0.0
    resamples = per * sum(n - 1 for n in draws_per_mc.values())

    return {
        "sphere.busy_s": (layer_s("sphere"), "s/sweep"),
        "sphere.points": (group_count("sphere", "points"), "count/sweep"),
        "data.busy_s": (layer_s("data"), "s/sweep"),
        "data.calls": (group_count("data", "calls"), "count/sweep"),
        "activations.busy_s": (layer_s("activations"), "s/sweep"),
        "activations.evals": (group_count("activations", "evals"), "count/sweep"),
        "kernels.gram_s": (group_s("kernels.gram"), "s/sweep"),
        "kernels.gram_elems": (group_count("kernels.gram", "elems"), "count/sweep"),
        "kernels.features_s": (group_s("kernels.features"), "s/sweep"),
        "kernels.features_mb": (group_count("kernels.features", "bytes", 1e-6), "MB/sweep"),
        "kernels.gradient_s": (group_s("kernels.gradient"), "s/sweep"),
        "kernels.gradient_points": (group_count("kernels.gradient", "points"), "count/sweep"),
        "spectral.eigs_s": (group_s("spectral.eigs"), "s/sweep"),
        "spectral.eigs_calls": (group_count("spectral.eigs", "calls"), "count/sweep"),
        "spectral.eigs_gflop": (group_count("spectral.eigs", "n3", 1e-9), "Gn3/sweep"),
        "spectral.cov_s": (group_s("spectral.cov"), "s/sweep"),
        "fit.solve_s": (group_s("fit.solve"), "s/sweep"),
        "fit.factorizations": (group_count("fit.solve", "calls"), "count/sweep"),
        "fit.solve_gflop": (group_count("fit.solve", "n3", 1e-9), "Gn3/sweep"),
        "fit.fallbacks": (group_count("fit.solve", "fallbacks"), "count/sweep"),
        "fit.pinv": (group_count("fit.solve", "pinv"), "count/sweep"),
        "fit.self_s": (self_s(lambda s: s.group == "fit.fit"), "s/sweep"),
        "fit.predict_s": (group_s("fit.predict"), "s/sweep"),
        "fit.rkhs_s": (group_s("fit.rkhs"), "s/sweep"),
        "sobolev.mc_self_s": (self_s(lambda s: s.group == "sobolev.mc"), "s/sweep"),
        "sobolev.mc_samples": (group_count("sobolev.mc", "samples"), "count/sweep"),
        "sobolev.resamples": (resamples, "count/sweep"),
        "sobolev.analytic_s": (group_s("sobolev.analytic"), "s/sweep"),
        "sweep.trial_p50_s": (_quantile(trial_s, 0.5), "s"),
        "sweep.trial_p90_s": (_quantile(trial_s, 0.9), "s"),
        "sweep.trials_timed": (len(trial_s), "count"),
        "sweep.glue_s": (self_s(lambda s: s.group == "sweep.trial"), "s/sweep"),
        "sweep.overhead_s": (per * overhead_s, "s/sweep"),
        "sweep.pool_efficiency": (efficiency, "ratio"),
        "analyze.busy_s": (layer_s("analyze"), "s/sweep"),
        "trace.overhead": (overhead, "ratio"),
    }


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
