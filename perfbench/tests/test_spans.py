"""Span recording, self-time arithmetic and outside-in wrapping."""

import sys
import types

import pytest

from spans import Instrumentation, Span, SpanRecorder, covered, self_times


def span(id, start, end, parent=None, name="core.x"):
    return Span(id, name, start, end, parent, "run")


def test_self_time_subtracts_nested_children():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 5.0, 6.0, 0),
             span(3, 1.5, 2.0, 1)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    # Children 1 and 2 overlap on [3, 4]; child 3 sticks out of the
    # parent and only its inside part counts.
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 4.0, 0), span(2, 3.0, 6.0, 0),
             span(3, 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_covered_handles_touching_and_disjoint_intervals():
    assert covered([(0, 1), (1, 2), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([(4, 8)], 5, 6) == pytest.approx(1.0)
    assert covered([], 0, 1) == 0.0


def test_recorder_parents_follow_the_call_stack():
    ticks = iter(range(100))
    recorder = SpanRecorder("r1", clock=lambda: float(next(ticks)))

    def inner():
        return 7

    wrapped_inner = recorder.wrap("dns.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert recorder.wrap("core.outer", outer)() == 14
    outer_span, first, second = recorder.spans
    assert outer_span.parent is None
    assert first.parent == second.parent == outer_span.id
    assert {s.run for s in recorder.spans} == {"r1"}
    assert first.layer == "dns"


def test_recorder_keeps_the_stack_right_when_a_call_raises():
    recorder = SpanRecorder("r")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("core.boom", boom)()
    recorder.wrap("core.after", lambda: None)()
    assert recorder.spans[1].parent is None


@pytest.fixture
def fake_package(monkeypatch):
    home = types.ModuleType("fakepkg.home")

    def work(x):
        return x * 2

    home.work = work

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            return cls()

    home.Thing = Thing
    user = types.ModuleType("fakepkg.user")
    user.work = work  # as after "from fakepkg.home import work"
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.home", home), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return home, user


def test_instrumentation_wraps_every_import_and_undoes(fake_package):
    home, user = fake_package
    original = home.work
    recorder = SpanRecorder("r")
    inst = Instrumentation(recorder, package="fakepkg")
    inst.function("fakepkg.home", "work", "core.work")
    inst.method("fakepkg.home", "Thing", "method", "core.method")
    inst.method("fakepkg.home", "Thing", "make", "core.make")
    assert user.work(3) == 6 and home.work(4) == 8
    assert home.Thing.make().method() == "m"
    assert [s.name for s in recorder.spans] == [
        "core.work", "core.work", "core.make", "core.method"]
    inst.undo()
    assert home.work is original and user.work is original
    assert isinstance(home.Thing.__dict__["make"], classmethod)
    home.Thing().method()
    assert len(recorder.spans) == 4


def test_instrumentation_can_wrap_one_caller_only(fake_package):
    home, user = fake_package
    recorder = SpanRecorder("r")
    inst = Instrumentation(recorder, package="fakepkg")
    inst.function("fakepkg.user", "work", "service.epoch", everywhere=False)
    home.work(1)
    user.work(1)
    assert [s.name for s in recorder.spans] == ["service.epoch"]
    inst.undo()
