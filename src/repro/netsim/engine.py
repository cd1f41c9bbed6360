"""Event loop, events and processes for the network simulator.

The engine is a small, deterministic discrete-event kernel in the style
of SimPy.  Simulation *processes* are Python generators that yield
:class:`Event` objects; the process is suspended until the event
triggers and is resumed with the event's value (or has the event's
exception thrown into it).  Time is a float in **milliseconds**.

The kernel is deliberately strict: running past the last event simply
stops, events may only be triggered once, and scheduling in the past is
an error.  All behaviour is deterministic given the initial seed of the
random sources used by higher layers (the kernel itself uses no
randomness).

The dispatch loop is the hottest code in the repository — a full-scale
campaign executes tens of millions of events — so :meth:`Simulator.run`
inlines the per-event work with the heap and ``heappop`` bound to
locals, timeouts and processes schedule bound methods instead of
allocating a closure per event, and fired :class:`Timeout` objects are
recycled through a free list when nothing else references them.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, Generator, List, Optional, Tuple

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Upper bound on recycled Timeout objects kept per simulator.
_FREELIST_MAX = 512


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, time travel...)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is later either :meth:`succeed`-ed
    with a value or :meth:`fail`-ed with an exception.  Callbacks in
    ``_callbacks`` run, in insertion order, when the event triggers;
    a process that yields a pending event waits as one of them.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value", "exception")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.ok = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        self._trigger(True, value, None)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, None, exception)
        return self

    def _trigger(
        self, ok: bool, value: Any, exception: Optional[BaseException]
    ) -> None:
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.ok = ok
        self.value = value
        self.exception = exception
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else "failed"
        return "<{} {}>".format(type(self).__name__, state)


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay", "_pending")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError("negative timeout: {!r}".format(delay))
        super().__init__(sim)
        self.delay = delay = float(delay)
        self._pending = value
        # Inline sim.schedule (delay already validated non-negative).
        sim._seq += 1
        sim.events_scheduled += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self._fire, self))

    def _fire(self) -> None:
        """Kernel entry point: deliver the pending value at the deadline."""
        self._trigger(True, self._pending, None)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an :class:`Event` that triggers when the
    generator returns (with the returned value) or raises (with the
    exception), so processes can wait on each other.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self, sim: "Simulator", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("spawn() requires a generator, got {!r}".format(generator))
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Start the process on the next kernel step at the current time so
        # that spawning never runs user code re-entrantly.  (Inline
        # zero-delay sim.schedule.)
        sim._seq += 1
        sim.events_scheduled += 1
        heapq.heappush(sim._heap, (sim.now, sim._seq, self._start, None))

    def _start(self) -> None:
        self._resume(None, None)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if self.triggered:
            return
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._trigger(True, stop.value, None)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(
                SimulationError(
                    "process {!r} yielded {!r}; processes must yield "
                    "Event objects".format(self.name, target)
                )
            )
            return
        # Wait on the target: this runs once per yield, i.e. once per
        # kernel resumption; an already-triggered target resumes now.
        if target.triggered:
            self._on_event(target)
        else:
            target._callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.exception)


class Simulator:
    """The discrete-event kernel.

    >>> sim = Simulator()
    >>> def ping():
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> proc = sim.spawn(ping())
    >>> sim.run()
    >>> proc.value
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Heap entries are ``(time, seq, callback, owner)``; *owner* is
        #: the Timeout the callback belongs to (recycled after firing)
        #: or None for plain callbacks.
        self._heap: List[Tuple[float, int, Callable[[], None], Optional[Event]]] = []
        self._seq = 0
        self._running = False
        self._timeout_free: List[Timeout] = []
        #: Lifetime totals, scraped by ``repro.obs.collect``.  They are
        #: pure functions of the deterministic execution, so they merge
        #: identically for any worker count at a fixed shard layout.
        self.events_scheduled = 0
        self.events_executed = 0

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* milliseconds of simulated time."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past ({})".format(delay))
        self._seq += 1
        self.events_scheduled += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, None))

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* milliseconds."""
        free = self._timeout_free
        if free:
            if delay < 0:
                raise SimulationError("negative timeout: {!r}".format(delay))
            timeout = free.pop()
            timeout.delay = delay = float(delay)
            timeout._pending = value
            timeout.triggered = False
            timeout.ok = False
            timeout.value = None
            timeout.exception = None
            self._seq += 1
            self.events_scheduled += 1
            heapq.heappush(
                self._heap, (self.now + delay, self._seq, timeout._fire, timeout)
            )
            return timeout
        return Timeout(self, delay, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    # -- execution -----------------------------------------------------

    def run(self) -> None:
        """Run until the event queue drains.

        This is the kernel's hot loop, with the heap, ``heappop`` and
        the free list bound to locals.  Fired timeouts are recycled only
        when the refcount proves the kernel holds the last references
        (callback + loop local + getrefcount argument = 3), so user code
        that keeps a Timeout sees exactly the semantics of a freshly
        allocated one.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        free = self._timeout_free
        executed = 0
        try:
            while heap:
                time, _seq, callback, owner = heappop(heap)
                if time < self.now:
                    raise SimulationError(
                        "event queue corrupted: time moved backwards"
                    )
                self.now = time
                executed += 1
                callback()
                if (
                    owner is not None
                    and len(free) < _FREELIST_MAX
                    and getrefcount(owner) == 3
                ):
                    free.append(owner)
        finally:
            self.events_executed += executed
            self._running = False

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn *generator*, run to completion and return its result.

        Convenience wrapper used pervasively by tests and the
        measurement harness.  Raises the process's exception if it
        failed.
        """
        process = self.spawn(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                "process {!r} did not finish (deadlock?)".format(process.name)
            )
        if not process.ok:
            raise process.exception  # type: ignore[misc]
        return process.value
