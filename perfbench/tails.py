"""Statistics rules shared by the benchmark's reports.

* A per-call timing is reported as its median plus its ``.tail``: the
  highest percentile of :data:`LADDER` that still has at least
  :data:`TAIL_MIN_BEYOND` samples beyond it, each with its count.
* Repeated runs are summarised by median and quartiles
  (``statistics.quantiles(values, n=4)``); the spread is the distance
  between the quartiles as a share of the median.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

__all__ = ["LADDER", "TAIL_MIN_BEYOND", "beyond", "calls", "nearest_rank",
           "spread", "summarise", "tail"]

#: Percentiles a tail may be read at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: A tail percentile needs at least this many samples above its rank.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """The *pct* percentile of sorted *ordered* by the nearest-rank rule."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples ranked above the *pct* percentile of *count* samples."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with enough samples beyond it.

    Returns ``{"pct", "value", "beyond", "n"}``, or None when even the
    median has fewer than :data:`TAIL_MIN_BEYOND` samples above it.
    """
    ordered = sorted(values)
    best = None
    for pct in LADDER:
        extra = beyond(len(ordered), pct)
        if extra >= TAIL_MIN_BEYOND:
            best = {"pct": pct, "value": nearest_rank(ordered, pct),
                    "beyond": extra, "n": len(ordered)}
    return best


def calls(values: Sequence[float]) -> Dict[str, float]:
    """Per-call timings: count, median, maximum and tail.

    ``tail`` and ``tail_pct`` are 0 when there are too few calls for
    any ladder percentile to have a tail (see :func:`tail`).
    """
    if not values:
        return {"n": 0, "p50": 0.0, "max": 0.0, "tail": 0.0,
                "tail_pct": 0.0}
    ordered = sorted(values)
    found = tail(ordered)
    return {"n": len(ordered), "p50": nearest_rank(ordered, 50.0),
            "max": ordered[-1],
            "tail": found["value"] if found else 0.0,
            "tail_pct": found["pct"] if found else 0.0}


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of repeated measurements."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread(q1, q3, median)}


def spread(q1: float, q3: float, median: float) -> float:
    """Interquartile distance as a share of the median."""
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return abs(q3 - q1) / abs(median)
