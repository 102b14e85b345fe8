"""In-memory span tracer that times calls into a package without editing it.

`Tracer.install` rebinds each target function, in every loaded module of
the package that holds it, to a wrapper that records a span. Cross-module
calls resolve names through the caller's module globals at call time, so a
rebound name is seen by every later call. Span stacks are thread-local:
spans opened in a worker thread nest under that thread's open spans only.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One public function to wrap, the layer it belongs to, and the group
    of functions whose time is reported together."""

    module: str
    name: str
    layer: str
    group: str
    #: (args, kwargs, result) -> {counter: increment}
    count: Optional[Callable] = None
    #: a span of this target starts a new trial id
    trial_root: bool = False


@dataclass
class Span:
    id: int
    name: str
    layer: str
    group: str
    start: float
    end: float
    parent: Optional[int]
    trial: Optional[int]
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        out[s.id] = s.duration - covered(kids)
    return out


def outermost(spans, key) -> list:
    """Spans with no ancestor that shares key(span): nested calls within
    one group are then counted once."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        k, p = key(s), s.parent
        while p is not None and key(by_id[p]) != k:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.count_errors: list = []
        self._ids = itertools.count()
        self._trials = itertools.count()
        self._local = threading.local()
        self._rebound: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name = f"{target.module}.{target.name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, trial = stack[-1] if stack else (None, None)
            if target.trial_root:
                trial = next(self._trials)
            span_id = next(self._ids)
            stack.append((span_id, trial))
            start = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = {}
                if returned and target.count is not None:
                    try:
                        counts = target.count(args, kwargs, result)
                    except Exception as exc:  # a counter must not stop the run
                        self.count_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                self.spans.append(Span(
                    span_id, name, target.layer, target.group, start, end,
                    parent, trial, threading.get_ident(), counts,
                ))

        return traced

    def install(self, targets, package: str) -> None:
        """Rebind every target in all loaded modules of `package`. A target
        whose module or name does not exist is listed in `missing`."""
        for t in targets:
            try:
                module = importlib.import_module(f"{package}.{t.module}")
            except ImportError:
                module = None
            original = getattr(module, t.name, None)
            if not callable(original):
                name = f"{package}.{t.module}.{t.name}"
                if name not in self.missing:
                    self.missing.append(name)
                continue
            traced = self.wrap(original, t)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every name `install` rebound."""
        while self._rebound:
            mod, attr, original = self._rebound.pop()
            setattr(mod, attr, original)
