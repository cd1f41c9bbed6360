"""In-memory spans around calls into the program, recorded from outside.

A span is one timed call into a layer of the program: its name, start
and end (``time.perf_counter`` seconds), the span that was open when it
began (its parent) and the id of the run it belongs to.  Spans stay in
memory and are written out once, when the run ends.

:class:`Instrumentation` puts span-recording wrappers around the
program's public functions and methods without editing the program:
it replaces the attribute on the defining module or class and, for
functions, on every loaded ``repro`` module that imported the function
by name.  :meth:`Instrumentation.undo` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Instrumentation", "Span", "SpanRecorder", "covered", "self_times"]


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> List:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.run]


class SpanRecorder:
    """Collects spans of one run; nesting follows the call stack."""

    def __init__(self, run_id: str,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        # Pop through the span even if an inner wrapper was skipped by
        # an exception, so one failure cannot mis-parent later spans.
        while self._stack:
            if self._stack.pop() is span:
                break

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """*fn* with a span around every call.

        *after*, if given, is called as ``after(args, kwargs, result)``
        once the call has returned; it reads counters off the result or
        the receiver and must not change them.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def covered(intervals: Iterable[Tuple[float, float]],
            low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start,
                                         span.end)
        for span in spans
    }


class Instrumentation:
    """Wraps program callables with spans; :meth:`undo` restores them."""

    def __init__(self, recorder: SpanRecorder,
                 package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, name: str, span: str,
                 after: Optional[Callable] = None,
                 everywhere: bool = True) -> None:
        """Wrap ``module.name``.

        With *everywhere*, every loaded module of the package that
        holds the same function object (``from module import name``)
        gets the wrapper too; otherwise only *module* does, which lets
        one caller's calls be told apart from another's.
        """
        home = importlib.import_module(module)
        original = getattr(home, name)
        wrapper = self.recorder.wrap(span, original, after)
        owners = [home]
        if everywhere:
            prefix = self.package + "."
            owners += [
                mod for mod_name, mod in sorted(sys.modules.items())
                if mod is not None and mod is not home
                and (mod_name == self.package or mod_name.startswith(prefix))
            ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapper)

    def method(self, module: str, cls: str, name: str, span: str,
               after: Optional[Callable] = None) -> None:
        """Wrap the method ``module.cls.name`` on its class."""
        owner = getattr(importlib.import_module(module), cls)
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self.recorder.wrap(span, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(
                self.recorder.wrap(span, raw.__func__, after))
        else:
            wrapped = self.recorder.wrap(span, raw, after)
        self._set(owner, name, wrapped)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Install a hand-written wrapper (restored by :meth:`undo`)."""
        self._set(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
