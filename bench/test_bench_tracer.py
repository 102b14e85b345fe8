"""Tests of the benchmark's tracer and per-layer arithmetic.

Run from the repository root: python3 -m pytest -q bench
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from layers import layer_metrics
from tracer import Span, Target, Tracer, covered, outermost, self_times

LOW = """
def inner(x):
    return x + 1
"""

HIGH = """
from fakepkg.low import inner

def outer(x, barrier=None):
    if barrier is not None:
        barrier.wait(timeout=10)
    return inner(x) * 2
"""


@pytest.fixture
def fakepkg():
    """A two-module package where `high` calls a name imported from `low`."""
    names = ("fakepkg", "fakepkg.low", "fakepkg.high")
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    try:
        for name, source in (("fakepkg.low", LOW), ("fakepkg.high", HIGH)):
            mod = types.ModuleType(name)
            sys.modules[name] = mod
            exec(source, mod.__dict__)
            setattr(pkg, name.split(".")[1], mod)
        yield pkg
    finally:
        for name in names:
            sys.modules.pop(name, None)


def span(id, start, end, parent=None, layer="a", group="a", counts=None):
    return Span(id, f"{group}.f{id}", layer, group, start, end, parent, None, 0, counts or {})


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(5, 6), (0, 10)]) == 10.0


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 6.0, 8.0, parent=0),
        span(4, 9.0, 12.0, parent=0),  # runs past its parent: only 9-10 counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)
    assert sum(own[i] for i in (0, 1, 2, 3)) + 1.0 == pytest.approx(10.0)


def test_outermost_counts_nested_calls_of_one_group_once():
    spans = [
        span(0, 0.0, 10.0, group="g"),
        span(1, 1.0, 9.0, parent=0, group="h"),
        span(2, 2.0, 3.0, parent=1, group="g"),
        span(3, 4.0, 5.0, parent=1, group="k"),
    ]
    top = outermost(spans, key=lambda s: s.group)
    assert [s.id for s in top] == [0, 1, 3]


def test_layer_metrics_from_synthetic_sweep():
    spans = [
        span(0, 0.0, 10.0, layer="sweep", group="sweep.sweep"),
        span(1, 1.0, 5.0, parent=0, layer="sweep", group="sweep.trial"),
        span(2, 2.0, 4.0, parent=1, layer="spectral", group="spectral.eigs",
             counts={"calls": 1, "n3": 10**9}),
        span(3, 5.5, 9.5, parent=0, layer="sweep", group="sweep.trial"),
        span(4, 6.0, 7.0, parent=3, layer="sphere", group="sphere",
             counts={"points": 500}),
    ]
    m = {name: value for name, (value, unit) in layer_metrics(spans, 1, 0.1).items()}
    assert m["spectral.eigs_s"] == pytest.approx(2.0)
    assert m["spectral.eigs_calls"] == 1
    assert m["spectral.eigs_gflop"] == pytest.approx(1.0)
    assert m["sphere.busy_s"] == pytest.approx(1.0)
    assert m["sphere.points"] == 500
    assert m["sweep.glue_s"] == pytest.approx(2.0 + 3.0)
    assert m["sweep.overhead_s"] == pytest.approx(10.0 - 8.0)
    assert m["sweep.pool_efficiency"] == pytest.approx(0.8)
    assert m["sweep.trials_timed"] == 2
    assert m["trace.overhead"] == 0.1


def test_rebinding_traces_cross_module_calls_and_uninstall_restores(fakepkg):
    original = fakepkg.low.inner
    tracer = Tracer()
    tracer.install([
        Target("high", "outer", "high", "high", trial_root=True),
        Target("low", "inner", "low", "low", lambda a, k, r: {"calls": 1}),
    ], "fakepkg")
    assert fakepkg.high.outer(1) == 4
    tracer.uninstall()
    assert fakepkg.high.inner is original and fakepkg.low.inner is original
    assert fakepkg.high.outer(1) == 4

    assert len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("low.inner", "high.outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.trial == outer.trial == 0
    assert inner.counts == {"calls": 1}


def test_span_stacks_are_thread_local_under_two_workers(fakepkg):
    tracer = Tracer()
    tracer.install([
        Target("high", "outer", "high", "high", trial_root=True),
        Target("low", "inner", "low", "low"),
    ], "fakepkg")
    barrier = threading.Barrier(2)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda x: fakepkg.high.outer(x, barrier), range(4)))
    finally:
        tracer.uninstall()
    assert results == [2, 4, 6, 8]

    by_id = {s.id: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s.name == "high.outer"]
    inners = [s for s in tracer.spans if s.name == "low.inner"]
    assert len(outers) == len(inners) == 4
    assert len({s.trial for s in outers}) == 4
    assert len({s.thread for s in outers}) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "high.outer"
        assert parent.thread == s.thread and parent.trial == s.trial
    # the barrier made the two workers' outer spans overlap in time
    a, b = sorted(outers, key=lambda s: s.start)[:2]
    assert b.start < a.end


def test_missing_name_is_reported_not_fatal(fakepkg):
    tracer = Tracer()
    tracer.install([
        Target("low", "no_such_function", "low", "low"),
        Target("no_such_module", "inner", "x", "x"),
        Target("low", "inner", "low", "low"),
    ], "fakepkg")
    try:
        assert fakepkg.high.outer(1) == 4
    finally:
        tracer.uninstall()
    assert tracer.missing == ["fakepkg.low.no_such_function", "fakepkg.no_such_module.inner"]
    assert [s.name for s in tracer.spans] == ["low.inner"]


def test_failing_counter_is_reported_not_fatal(fakepkg):
    tracer = Tracer()
    tracer.install([Target("low", "inner", "low", "low", lambda a, k, r: {"n": r[0]})],
                   "fakepkg")
    try:
        assert fakepkg.high.outer(1) == 4
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 1 and tracer.spans[0].counts == {}
    assert tracer.count_errors and "TypeError" in tracer.count_errors[0]


def test_exception_in_traced_call_still_closes_its_span(fakepkg):
    tracer = Tracer()
    tracer.install([Target("low", "inner", "low", "low")], "fakepkg")
    try:
        with pytest.raises(TypeError):
            fakepkg.high.outer(None)
        assert fakepkg.high.outer(1) == 4
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 2 and tracer.spans[1].parent is None
