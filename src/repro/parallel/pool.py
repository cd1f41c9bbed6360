"""Worker pools for the sharded campaign executor.

Every campaign dispatches its shard and Atlas tasks through a pool: a
:class:`WarmWorkerPool` of long-lived worker processes, or the
:class:`InlinePool`, which has no processes and runs the same task
functions in the caller's process.  Both hold one
:class:`~repro.parallel.worker.WarmWorld` per worker and share one
protocol:

* **Prime once, run many.**  :meth:`prime` pickles the ``(config,
  WorldPlan)`` pair once per campaign; every task message carries those
  few kilobytes, and a worker unpickles them only when they differ from
  the pair it last applied.
* **Build once, restore per task.**  A worker builds its world on first
  use and restores a pristine snapshot for every later task, ~100×
  cheaper than a rebuild.  The world survives re-primes: a config that
  differs only in its fault plan (the service's next epoch) is served
  by re-targeting the built world, and only a different world or a
  task that died mid-simulation forces a rebuild.
* **Binary results.**  Each shard's result returns as one wirepack
  blob (:mod:`repro.parallel.wirepack`), the bytes a checkpointed
  shard also stores, not thousands of pickled dataclasses.

Crash/hang handling never deadlocks the parent: a dead worker is
detected by polling, its task is retried on a respawned worker (safe —
shard execution is a pure function of ``(config, spec)``, and a
shard's ``.state`` resume makes retries exact under checkpointing),
and a hung worker is escalated ``terminate() → grace → kill()`` so
even a SIGTERM-ignoring child cannot wedge shutdown.

Byte-identity invariant: everything a pool changes is transport and
world *reuse*; the restored world is indistinguishable from a fresh
build (validated by the parity suite), so merged datasets stay
byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.parallel.worker import WarmWorld

__all__ = ["InlinePool", "WarmWorkerPool"]

#: One unit of worker work: ``(function, argument, label)``, run as
#: ``function(argument, warm_world)``.  The function must be importable
#: by qualified name (spawn pickling).
WorkItem = Tuple[Callable, object, str]

#: How long a worker blocks on its task queue before re-checking that
#: the parent is still alive (orphan suicide, see ``_worker_main``).
_IDLE_POLL_S = 5.0

#: Parent-side result poll interval; also bounds how often liveness
#: and watchdog deadlines are re-checked.
_RESULT_POLL_S = 0.05

#: How long a stopping worker gets to exit before it is escalated
#: (shutdown sentinel → terminate → kill).
_GRACE_S = 2.0


class PoolError(RuntimeError):
    """The pool itself (not a task) failed."""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _run_item(fn: Callable, arg, warm: WarmWorld):
    """Run one item on *warm*.  Only an item that checked the world out
    and returned cleanly releases it: one that raised or died leaves it
    dirty for a rebuild, and one served from a cached result (no
    checkout) leaves the flag as it found it."""
    checkouts = warm.checkouts
    payload = fn(arg, warm)
    if warm.checkouts != checkouts:
        warm.release()
    return payload


def _worker_main(uid: int, task_q, result_q, parent_pid: int) -> None:
    """Worker process loop: run tasks, report results.

    Each task carries the pickled ``(config, plan)`` pair of the prime
    it was dispatched under.  The process's :class:`WarmWorld` is
    re-primed only when those bytes differ from the last pair applied,
    and it outlives every prime: the checkout alone decides whether the
    built world can serve the new pair.
    """
    warm = WarmWorld()
    applied = None
    while True:
        try:
            message = task_q.get(timeout=_IDLE_POLL_S)
        except queue_mod.Empty:
            # Orphan suicide: if the parent died (SIGKILL soak drills)
            # we must not linger as a zombie worker.
            if os.getppid() != parent_pid:
                return
            continue
        if message is None:
            return
        serial, primed, fn, arg = message
        try:
            if primed != applied:
                warm.prime(*pickle.loads(primed))
                applied = primed
            payload = _run_item(fn, arg, warm)
        except Exception as exc:
            result_q.put(
                (uid, serial, "err",
                 "{}: {}".format(type(exc).__name__, exc))
            )
        else:
            result_q.put((uid, serial, "ok", payload))


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("uid", "process", "task_q", "busy_serial", "deadline")

    def __init__(self, uid, process, task_q):
        self.uid = uid
        self.process = process
        self.task_q = task_q
        #: Serial of the in-flight task, or None when idle.
        self.busy_serial: Optional[int] = None
        #: Watchdog deadline (perf_counter) for the in-flight task.
        self.deadline: Optional[float] = None


class WarmWorkerPool:
    """A fixed-size pool of long-lived ``spawn`` worker processes.

    Lifecycle::

        pool = WarmWorkerPool(workers=4)
        pool.prime(config, plan)          # once per campaign/epoch
        outputs = pool.run_items(items)   # any number of times
        pool.close()                      # terminate → grace → kill

    The same pool instance may be primed again with a different config
    (the service supervisor does this across epochs); each worker's
    next checkout re-targets or rebuilds its world as the config needs
    (see :class:`~repro.parallel.worker.WarmWorld`).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._context = multiprocessing.get_context("spawn")
        self._result_q = self._context.Queue()
        self._handles: List[_WorkerHandle] = []
        self._next_uid = 0
        #: Monotonic task serial: every dispatch (including a retry of
        #: the same item) gets a fresh serial, so results from killed
        #: or superseded workers — possibly from an earlier
        #: :meth:`run_items` call — can never be mistaken for live ones.
        self._task_serial = 0
        #: The pickled ``(config, plan)`` pair every task carries.
        self._primed: Optional[bytes] = None
        self._closed = False
        for _ in range(workers):
            self._handles.append(self._spawn_worker())

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        uid = self._next_uid
        self._next_uid += 1
        task_q = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(uid, task_q, self._result_q, os.getpid()),
            daemon=True,
        )
        process.start()
        return _WorkerHandle(uid, process, task_q)

    def _stop_process(self, process) -> None:
        """terminate → grace → kill: never trust SIGTERM alone.

        A worker stuck in an uninterruptible state (or one that
        installed a SIGTERM handler) would otherwise survive
        ``terminate()`` and wedge any join; SIGKILL cannot be ignored.
        """
        if not process.is_alive():
            return
        try:
            process.terminate()
        except Exception:
            pass
        process.join(_GRACE_S)
        if process.is_alive():
            try:
                process.kill()
            except Exception:
                pass
            process.join(_GRACE_S)

    def _respawn(self, slot: int) -> _WorkerHandle:
        """Replace the worker in *slot* with a fresh process."""
        old = self._handles[slot]
        self._stop_process(old.process)
        try:
            old.task_q.close()
            old.task_q.cancel_join_thread()
        except Exception:
            pass
        handle = self._spawn_worker()
        self._handles[slot] = handle
        return handle

    # -- priming ------------------------------------------------------------

    def prime(self, config, plan) -> None:
        """Serve ``(config, plan)`` from the next task on.

        The pair is pickled once, here; every task message carries the
        bytes, and a worker unpickles them only when they differ from
        the pair it last applied.
        """
        if self._closed:
            raise PoolError("pool is closed")
        self._primed = pickle.dumps(
            (config, plan), protocol=pickle.HIGHEST_PROTOCOL
        )
        # A worker still busy at prime time is running a task from an
        # abandoned dispatch (e.g. an epoch cut short by a deadline
        # signal); recycle it rather than queueing behind a zombie.
        for slot, handle in enumerate(self._handles):
            if handle.busy_serial is not None:
                self._respawn(slot)

    # -- dispatch -----------------------------------------------------------

    def run_items(
        self,
        items: Sequence[WorkItem],
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        tick: Optional[Callable[[], None]] = None,
    ) -> List[object]:
        """Run every item's ``fn(arg, warm)`` across the pool's workers,
        *warm* being the executing worker's world.

        Returns results aligned with *items*.  A worker that dies
        mid-task (OOM kill, crash fault) is detected by liveness
        polling and respawned; a worker that exceeds *timeout_s* on one
        item is presumed hung, stopped with terminate→kill escalation,
        and respawned.  The failed item is retried (on a warm sibling
        or the respawned worker) up to *max_retries* times before
        :class:`~repro.parallel.executor.ShardExecutionError` names it.
        """
        from repro.parallel.executor import ShardExecutionError

        if self._closed:
            raise PoolError("pool is closed")
        results: dict = {}
        attempts = {index: 0 for index in range(len(items))}
        pending = list(range(len(items)))
        #: serial -> item index, for every dispatch made by this call.
        serial_map: dict = {}
        #: item index -> the serial currently authorised to resolve it.
        active: dict = {}

        def live(serial) -> Optional[int]:
            """The item *serial* was dispatched for, or None when a
            result or a newer dispatch already superseded it: exactly
            one in-flight serial may resolve an item, so a retry can
            never race a zombie writer (a worker we killed that managed
            to answer first, or one from a previous call)."""
            index = serial_map.get(serial)
            if index is None or active.get(index) != serial:
                return None
            return None if index in results else index

        def fail(index: int, cause: str) -> None:
            attempts[index] += 1
            if attempts[index] > max_retries:
                raise ShardExecutionError(items[index][2], cause)
            pending.append(index)

        while len(results) < len(items):
            # Hand pending work to idle workers.
            for handle in self._handles:
                if not pending:
                    break
                if handle.busy_serial is not None:
                    continue
                index = pending.pop(0)
                serial = self._task_serial
                self._task_serial += 1
                serial_map[serial] = index
                active[index] = serial
                fn, arg, _label = items[index]
                handle.task_q.put((serial, self._primed, fn, arg))
                handle.busy_serial = serial
                handle.deadline = (
                    time.perf_counter() + timeout_s
                    if timeout_s is not None else None
                )

            # Collect one result (or time out and run the checks).
            try:
                uid, serial, status, payload = self._result_q.get(
                    timeout=_RESULT_POLL_S
                )
            except queue_mod.Empty:
                pass
            except Exception:
                # A worker died mid-put and left a truncated pickle on
                # the pipe; the liveness sweep below handles the death.
                pass
            else:
                for handle in self._handles:
                    if handle.uid == uid and handle.busy_serial == serial:
                        handle.busy_serial = None
                        handle.deadline = None
                        break
                index = live(serial)
                if index is not None and status == "ok":
                    results[index] = payload
                    if tick is not None:
                        tick()
                elif index is not None:
                    fail(index, payload)
                continue

            # Liveness: a dead worker forfeits its task.
            for slot, handle in enumerate(self._handles):
                if handle.process.is_alive():
                    continue
                index = live(handle.busy_serial)
                exitcode = handle.process.exitcode
                self._respawn(slot)
                if index is not None:
                    fail(
                        index,
                        "worker process died (exitcode {})".format(exitcode),
                    )

            # Watchdog: a worker past its deadline is presumed hung.
            if timeout_s is not None:
                now = time.perf_counter()
                for slot, handle in enumerate(self._handles):
                    if handle.deadline is None or now < handle.deadline:
                        continue
                    index = live(handle.busy_serial)
                    self._respawn(slot)
                    if index is not None:
                        fail(
                            index,
                            "no result within {:.0f}s watchdog "
                            "(worker hung?)".format(timeout_s),
                        )

        return [results[index] for index in range(len(items))]

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; escalate to SIGKILL if needed."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.task_q.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + _GRACE_S
        for handle in self._handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
        for handle in self._handles:
            self._stop_process(handle.process)
        for handle in self._handles:
            try:
                handle.task_q.close()
                handle.task_q.cancel_join_thread()
            except Exception:
                pass
        try:
            self._result_q.close()
            self._result_q.cancel_join_thread()
        except Exception:
            pass
        self._handles = []

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InlinePool:
    """A zero-process pool: every item runs in this process, on one
    warm world, through the same task functions as the worker pool.

    There is no sibling worker to retry on, so an item that raises
    propagates as is (leaving the world dirty for a rebuild), and
    *timeout_s* and *max_retries* do not apply.
    """

    def __init__(self) -> None:
        self._warm = WarmWorld()

    def prime(self, config, plan) -> None:
        """Serve ``(config, plan)`` from the next task on."""
        self._warm.prime(config, plan)

    def run_items(
        self,
        items: Sequence[WorkItem],
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        tick: Optional[Callable[[], None]] = None,
    ) -> List[object]:
        """Run every item's ``fn(arg, warm)`` in order."""
        outputs = []
        for fn, arg, _label in items:
            outputs.append(_run_item(fn, arg, self._warm))
            if tick is not None:
                tick()
        return outputs

    def close(self) -> None:
        """Drop the warm world."""
        self._warm = WarmWorld()

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
