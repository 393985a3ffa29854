"""Call tracing from outside the program.

:func:`install` wraps functions of an already imported package by rebinding
every name under which the package's modules hold them, so a call is
traced whichever module it is looked up from.  The function it returns puts
the originals back.

A traced call becomes a :class:`Span` (name, start, end, parent span, run id).
Calls named hot, and every call made inside a hot call, are only counted and
timed per name: the toy workload makes about 400k of them.  The time a hot
call takes is charged to the span it was called from, so span self times stay
exact.  Spans are kept in memory; :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

clock = time.perf_counter

# (positional args, keyword args, result) -> quantities summed per name
Probe = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    hot_child_s: float = 0.0  # time of hot calls made directly from this span
    data: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, run: str, hot=frozenset()):
        self.run = run
        self.hot = frozenset(hot)
        self.spans: list[Span] = []
        self.totals: dict[str, dict[str, float]] = {}
        self._stack: list[Span | None] = []  # None marks a hot frame

    def call(self, name: str, fn, args: tuple, kwargs: dict, probe: Probe | None = None):
        in_hot = bool(self._stack) and self._stack[-1] is None
        if in_hot or name in self.hot:
            return self._hot_call(name, fn, args, kwargs, probe)
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=clock(),
            end=float("nan"),
            parent=None if parent is None else parent.id,
            run=self.run,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = clock()
            self._stack.pop()
        if probe is not None:
            span.data.update(probe(args, kwargs, result))
        return result

    def _hot_call(self, name, fn, args, kwargs, probe):
        self._stack.append(None)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.hot_child_s += elapsed
        total = self.totals.setdefault(name, {"calls": 0, "s": 0.0})
        total["calls"] += 1
        total["s"] += elapsed
        if probe is not None:
            for key, value in probe(args, kwargs, result).items():
                total[key] = total.get(key, 0) + value
        return result

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "totals": self.totals}, fh)


def load_trace(path) -> tuple[list[Span], dict[str, dict[str, float]]]:
    with open(path) as fh:
        raw = json.load(fh)
    return [Span(**s) for s in raw["spans"]], raw["totals"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover
    (their union, clipped to the span) and minus its hot-call time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered - s.hot_child_s
    return out


@dataclass(frozen=True)
class Target:
    """One function to trace: the span name, the module defining it, its
    attribute path there (``"PatchMap.gather"`` for a method) and an
    optional probe for the quantities the call handles."""

    name: str
    module: str
    attr: str
    probe: Probe | None = None


def install(tracer: Tracer, targets, package: str = "stableconv") -> Callable[[], None]:
    """Wrap every target wherever the loaded modules of ``package`` bind it;
    returns a function that restores the originals."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    for target in targets:
        owner_path, _, leaf = target.attr.rpartition(".")
        owner = sys.modules[target.module]
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        wrapper = _wrap(tracer, target, original)
        holders = [owner] if owner_path else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def restore() -> None:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


def _wrap(tracer: Tracer, target: Target, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(target.name, original, args, kwargs, target.probe)

    return wrapper
