"""Kernel tests: events, processes, timeouts, ordering."""

import pytest

from repro.netsim.engine import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        seen = []

        def waiter():
            seen.append((yield event))

        sim.spawn(waiter())
        sim.run()
        assert seen == []
        event.succeed(42)
        assert seen == [42]

    def test_callback_after_trigger_runs_immediately(self, sim):
        event = sim.event().succeed("x")
        seen = []

        def waiter():
            seen.append((yield event))
            seen.append(sim.now)

        sim.spawn(waiter())
        sim.run()
        assert seen == ["x", 0.0]

    def test_double_trigger_raises(self, sim):
        event = sim.event().succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_records_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered and not event.ok
        assert event.exception is error


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_in_time_order(self, sim):
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_equal_times_run_fifo(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(3.0, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)


class TestTimeout:
    def test_timeout_fires_at_deadline(self, sim):
        timeout = sim.timeout(7.5, value="done")
        sim.run()
        assert timeout.triggered and timeout.value == "done"
        assert sim.now == 7.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_zero_timeout_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.triggered


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "result"

        assert sim.run_process(proc()) == "result"

    def test_process_advances_time(self, sim):
        def proc():
            yield sim.timeout(3.0)
            yield sim.timeout(4.0)
            return sim.now

        assert sim.run_process(proc()) == 7.0

    def test_process_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            sim.run_process(proc())

    def test_waiting_on_failed_event_throws_into_process(self, sim):
        event = sim.event()
        sim.schedule(2.0, lambda: event.fail(KeyError("gone")))

        def proc():
            try:
                yield event
            except KeyError:
                return "caught"
            return "missed"

        assert sim.run_process(proc()) == "caught"

    def test_process_is_event_other_process_can_wait(self, sim):
        def worker():
            yield sim.timeout(5.0)
            return 99

        def boss():
            child = sim.spawn(worker())
            value = yield child
            return value * 2

        assert sim.run_process(boss()) == 198

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 5.0  # floats are not events

        process = sim.spawn(proc())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.exception, SimulationError)

    def test_spawn_rejects_non_generator(self, sim):
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_deadlocked_process_detected(self, sim):
        def proc():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(proc())

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 10

        def outer():
            value = yield from inner()
            yield sim.timeout(1.0)
            return value + 1

        assert sim.run_process(outer()) == 11
        assert sim.now == 3.0
