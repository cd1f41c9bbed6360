"""Metrics registry: semantics, merge determinism, zero-cost-off."""

import math

import pytest

from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        assert histogram.min == 0.5
        assert histogram.max == 500.0
        assert histogram.mean == pytest.approx(555.5 / 4)

    def test_boundary_value_goes_to_lower_bucket(self):
        histogram = Histogram(bounds=(10.0, 100.0))
        histogram.observe(10.0)
        assert histogram.counts == [1, 0, 0]

    def test_merge_adds_buckets_and_extremes(self):
        a = Histogram(bounds=(10.0,))
        b = Histogram(bounds=(10.0,))
        a.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.counts == [1, 1]
        assert a.count == 2
        assert a.min == 1.0
        assert a.max == 100.0

    def test_merge_rejects_bounds_mismatch(self):
        a = Histogram(bounds=(10.0,))
        b = Histogram(bounds=(20.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_json_round_trip(self):
        histogram = Histogram()
        for value in (3.0, 30.0, 3000.0):
            histogram.observe(value)
        clone = Histogram.from_json(histogram.to_json())
        assert clone.counts == histogram.counts
        assert clone.bounds == DEFAULT_BOUNDS
        assert clone.sum == histogram.sum
        assert clone.min == histogram.min
        assert clone.max == histogram.max


class TestMetricsRegistry:
    def test_counters_inc_and_set(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.inc("a", 4)
        metrics.set_counter("b", 7)
        metrics.set_counter("b", 9)  # idempotent scrape: absolute
        assert metrics.counter("a") == 5
        assert metrics.counter("b") == 9
        assert metrics.counter("missing") == 0

    def test_observe_rejects_non_finite(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            metrics.observe("h", math.nan)
        with pytest.raises(ValueError):
            metrics.observe("h", math.inf)

    def test_disabled_registry_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.inc("a")
        metrics.set_counter("b", 3)
        metrics.set_gauge("g", 1.0)
        metrics.observe("h", 5.0)
        assert len(metrics) == 0
        assert metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_merge_sums_counters_maxes_gauges(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        a.set_gauge("wall", 1.5)
        b.set_gauge("wall", 0.5)
        b.observe("h", 42.0)
        a.merge_snapshot(b.snapshot())
        assert a.counter("n") == 5
        assert a.gauge("wall") == 1.5
        assert a.histogram("h").count == 1

    def test_merge_order_independent_for_counters(self):
        parts = []
        for index in range(3):
            registry = MetricsRegistry()
            registry.inc("x", index + 1)
            parts.append(registry.snapshot())
        forward = MetricsRegistry()
        for part in parts:
            forward.merge_snapshot(part)
        backward = MetricsRegistry()
        for part in reversed(parts):
            backward.merge_snapshot(part)
        assert forward.counters() == backward.counters()

    def test_snapshot_round_trip(self):
        metrics = MetricsRegistry()
        metrics.inc("a", 2)
        metrics.set_gauge("g", 0.25)
        metrics.observe("h", 12.0)
        clone = MetricsRegistry()
        clone.merge_snapshot(metrics.snapshot())
        assert clone.snapshot() == metrics.snapshot()
