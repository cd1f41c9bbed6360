"""Counters, gauges and histograms with a deterministic merge.

The registry is the campaign's flight recorder: cache hit rates,
retries, fault activations, simulator event counts, per-shard
wall-clock.  Semantics are chosen so that the sharded executor's merge
is **order-independent and deterministic**:

* **counters** — monotone totals; merging *sums* them.  Everything a
  determinism test compares lives here (and in histograms).
* **gauges** — point-in-time values; merging takes the *max*.  Wall
  clock and other nondeterministic readings belong here, under
  shard-unique names, and are excluded from determinism comparisons.
* **histograms** — fixed-bound bucket counts plus sum/count/min/max;
  merging adds buckets.  Shards are always folded in shard-index
  order, so float sums associate identically on every run.

A disabled registry (``enabled=False``) early-returns from every
mutator — the zero-cost-off contract.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["DEFAULT_BOUNDS", "Histogram", "MetricsRegistry"]

Number = Union[int, float]

#: Default latency bucket upper bounds (milliseconds); an implicit
#: +inf bucket catches the overflow.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0,
)


class Histogram:
    """Fixed-bound histogram with sum/count/min/max."""

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Add one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (bounds must match)."""
        if other.bounds != self.bounds:
            raise ValueError(
                "histogram bounds mismatch: {!r} vs {!r}".format(
                    self.bounds, other.bounds
                )
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_json(self) -> Dict:
        """Plain-dict form (JSON-able, merge-able via from_json)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Histogram":
        histogram = cls(tuple(data["bounds"]))
        histogram.counts = list(data["counts"])
        histogram.sum = data["sum"]
        histogram.count = data["count"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        return histogram


class MetricsRegistry:
    """Named counters, gauges and histograms."""

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- mutators ---------------------------------------------------------

    def inc(self, name: str, amount: Number = 1) -> None:
        """Increment counter *name* by *amount*."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_counter(self, name: str, value: Number) -> None:
        """Set counter *name* to an absolute total (idempotent scrape)."""
        if not self.enabled:
            return
        self._counters[name] = value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* (merge takes the max across registries)."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        """Add one observation to histogram *name*."""
        if not self.enabled:
            return
        if not math.isfinite(value):
            raise ValueError(
                "non-finite observation for {!r}: {!r}".format(name, value)
            )
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    # -- accessors --------------------------------------------------------

    def counter(self, name: str) -> Number:
        """Current counter value (0 when never touched)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        """Current gauge value, or None when never set."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or None when never observed."""
        return self._histograms.get(name)

    def counters(self) -> Dict[str, Number]:
        """All counters, sorted by name."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- merge / serialisation --------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-data form with sorted keys (picklable, JSON-able)."""
        return {
            "counters": self.counters(),
            "gauges": {
                name: self._gauges[name] for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_json()
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters sum, gauges take the max, histograms add buckets.
        Callers merging shards must fold them in shard-index order so
        histogram float sums stay bit-identical run to run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value
        for name, data in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_json(data)
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = incoming
            else:
                existing.merge(incoming)
