"""Span tracing of a program from outside, by rebinding its functions.

The program's modules import functions by name (``from .net import
forward``), so a function is looked up through several module attributes.
:meth:`Tracer.install` replaces every such binding with one timing wrapper
per function and remembers the originals; :meth:`Tracer.restore` puts them
all back, so a run after it is untraced.

Spans live in memory: name, thread id, parent span, start and end, plus
work counts computed from argument shapes.  A span's self time is its
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions, across threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None, hook=None):
        """Timing wrapper around ``fn`` recording one span per call.

        ``work(args, kwargs, result)`` returns the call's work counts; it
        runs after the span ends.  ``hook``, a pair ``(parameter, span
        name)``, names a callback argument that is itself wrapped.
        """
        hook_index = None
        if hook is not None:
            hook_param, hook_name = hook
            hook_index = list(inspect.signature(fn).parameters).index(hook_param)

        def traced(*args, **kwargs):
            if hook_index is not None:
                if len(args) > hook_index and args[hook_index] is not None:
                    args = list(args)
                    args[hook_index] = self.wrap(hook_name, args[hook_index])
                elif kwargs.get(hook_param) is not None:
                    kwargs[hook_param] = self.wrap(hook_name, kwargs[hook_param])
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, parent, name, threading.get_ident(), start, end)
            if work is not None:
                span.counts = work(args, kwargs, result)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, selected: list, work: dict, hooks: dict) -> int:
        """Rebind every attribute of ``package`` and its loaded submodules
        that refers to a function in ``selected``, a list of
        ``(function, span name)``.  Returns the number of bindings replaced."""
        by_id = {id(fn): (fn, name) for fn, name in selected}
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                fn, name = by_id.get(id(value), (None, None))
                if fn is not value:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, fn, work.get(name), hooks.get(name))
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[name])
        return len(self._patches)

    def restore(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def percentile_us(durations: list[float], q: float) -> float | None:
    """Nearest-rank ``q`` percentile in microseconds, or ``None`` when
    fewer than ten samples lie beyond it."""
    n = len(durations)
    if n == 0 or n * (1.0 - q / 100.0) < 10.0 - 1e-9:
        return None
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)] * 1e6


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed durations), ``self_s``
    and the summed work counts."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += s.duration
        st["self_s"] += selfs[s.span_id]
        for k, v in s.counts.items():
            st[k] = st.get(k, 0) + v
    return stats


def median_stats(per_run: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Stat-by-stat median over runs; a name absent from a run counts as 0."""
    names = sorted({n for run in per_run for n in run})
    out = {}
    for n in names:
        keys = sorted({k for run in per_run for k in run.get(n, {})})
        out[n] = {
            k: statistics.median(run.get(n, {}).get(k, 0) for run in per_run)
            for k in keys
        }
    return out
