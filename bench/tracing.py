"""In-memory spans around calls into bayes_arbiter's public functions.

The wrappers live here, in the benchmark, not in the package: each one is
installed on the name the caller looks up (``cli.run_gibbs`` for the CLI,
``experiments.run_gibbs`` for the fig3 replica pool, and so on) and
removed again after the traced pass.  A target that a later refactor
removes is skipped and reported, never fatal.

A span records its name, start, end, parent span, request (the CLI
command it belongs to), thread and the thread CPU time spent inside it.
Spans opened on a worker thread with no open span of its own take the
innermost span open on the tracer's home thread as parent, which is the
call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    cpu_s: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; list.append keeps them GIL-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = defaultdict(list)
        self.request: int | None = None
        self.peak_threads = threading.active_count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._home_stack[-1]
        except IndexError:
            return None

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Record one span; a root span starts a new request."""
        stack = self._stack()
        sid = next(self._ids)
        if root:
            parent, self.request = None, sid
        else:
            parent = self._parent(stack)
        active = threading.active_count()
        if active > self.peak_threads:
            self.peak_threads = active
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append(
                Span(sid, name, t0, t1, parent, self.request, threading.get_ident(), c1 - c0)
            )


def _wrap(tracer: Tracer, name: str, fn, keep_result: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if keep_result:
            tracer.results[name].append(result)
        return result

    return traced


# (module, attribute path, span name, keep the return value for counts)
# "Class.method" patches the class; "NAME[*]" wraps every value of a dict.
TARGETS = (
    ("bayes_arbiter.cli", "run_experiment", "experiments.run_experiment", False),
    ("bayes_arbiter.cli", "run_gibbs", "mixture.run_gibbs", True),
    ("bayes_arbiter.experiments", "run_gibbs", "mixture.run_gibbs", True),
    ("bayes_arbiter.cli", "run_marginal_mh", "mixture.run_marginal_mh", True),
    ("bayes_arbiter.cli", "grid_posterior_alpha", "mixture.grid_posterior_alpha", False),
    ("bayes_arbiter.cli", "log_bf12_shared_improper", "evidence.log_bf12_shared_improper", False),
    ("bayes_arbiter.cli", "log_bf12_printed", "evidence.log_bf12_printed", False),
    ("bayes_arbiter.experiments", "log_bf12_shared_improper", "evidence.log_bf12_shared_improper", False),
    ("bayes_arbiter.experiments", "log_bf12_printed", "evidence.log_bf12_printed", False),
    ("bayes_arbiter.cli", "log_marginal_quadrature", "evidence.log_marginal_quadrature", False),
    ("bayes_arbiter.cli", "predictive_bf_tails", "calibration.predictive_bf_tails", False),
    ("bayes_arbiter.cli", "posterior_predictive_pvalue", "calibration.posterior_predictive_pvalue", False),
    ("bayes_arbiter.calibration", "PoissonImproperMeanModel.replicate", "calibration.replicate", False),
    ("bayes_arbiter.calibration", "GeometricImproperMeanModel.replicate", "calibration.replicate", False),
    ("bayes_arbiter.calibration", "DISCREPANCIES[*]", "calibration.discrepancy", False),
    ("bayes_arbiter.svg", "ribbon_plot_svg", "svg.ribbon_plot_svg", False),
)


@contextmanager
def installed(tracer: Tracer, skipped: set[str]):
    """Install every wrapper in TARGETS; add the ones not found to `skipped`."""
    undo = []
    try:
        for module_name, path, name, keep in TARGETS:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                skipped.add(label)
                continue
            if path.endswith("[*]"):
                table = getattr(module, path[:-3], None)
                if not isinstance(table, dict):
                    skipped.add(label)
                    continue
                for key, fn in list(table.items()):
                    table[key] = _wrap(tracer, name, fn, keep)
                    undo.append(functools.partial(table.__setitem__, key, fn))
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                skipped.add(label)
                continue
            # a class attribute is read from __dict__ so that restoring it
            # puts back the plain function, not a bound method; an
            # inherited one is restored by deleting the override
            if isinstance(owner, type) and attr not in owner.__dict__:
                undo.append(functools.partial(delattr, owner, attr))
            else:
                if isinstance(owner, type):
                    fn = owner.__dict__[attr]
                undo.append(functools.partial(setattr, owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, keep))
        yield
    finally:
        for restore in reversed(undo):
            restore()


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    total, reach = 0.0, span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer (self seconds, busy seconds).

    Self time is a span's duration minus the union of its children's
    intervals, so children running in parallel on a pool are not
    subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s.layer] += s.duration - _covered(s, children.get(s.id, []))
        busy_s[s.layer] += s.duration
    return dict(self_s), dict(busy_s)


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "id": s.id,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "request": s.request,
            "thread": s.thread,
            "cpu_s": s.cpu_s,
        }
        for s in spans
    ]
