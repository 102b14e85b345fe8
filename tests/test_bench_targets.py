"""The traced benchmark (bench/run.py --trace) finds every roblaw function
that bench/layers.py names, so no per-layer metric reads 0 because the
function it times was renamed or deleted."""

import importlib
from pathlib import Path

import roblaw.cli
import roblaw.sweep

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: deleted functions that bench/layers.py still names; the next change to
#: the benchmark drops them
STALE = {"roblaw.kernels.cross_gram", "roblaw.fit.fit_linear_minnorm", "roblaw.fit.fit_kernel",
         "roblaw.fit.fit_features", "roblaw.fit.fit_linear_ridge"}


def test_every_traced_target_resolves_in_roblaw(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers, tracer_module = (importlib.import_module(name) for name in ("layers", "tracer"))
    tracer = tracer_module.Tracer()
    try:
        tracer.install(layers.TARGETS, "roblaw")
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE
    assert {f"roblaw.{t.module}.{t.name}" for t in layers.TARGETS} >= {
        "roblaw.sobolev.sobolev_analytic", "roblaw.spectral.c_sigma_sobolev",
        "roblaw.fit.rkhs_norm"}
