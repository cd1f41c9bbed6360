"""The .tail rule, per-call summaries and the spread of repeated runs."""

import statistics

import pytest

import tails


def test_tail_needs_ten_samples_beyond():
    # 100 samples: p90 has exactly 10 beyond it, p95 only 5.
    found = tails.tail(range(1, 101))
    assert (found["pct"], found["beyond"], found["value"]) == (90.0, 10, 90)


def test_tail_rejects_nine_beyond():
    # 99 samples: p90 ranks at 90 and leaves 9 beyond, so p75 it is.
    found = tails.tail(range(1, 100))
    assert found["pct"] == 75.0
    assert tails.beyond(99, 90.0) == 9


def test_tail_accepts_eleven_beyond():
    found = tails.tail(range(1, 111))
    assert found["pct"] == 90.0 and found["beyond"] == 11


def test_no_tail_below_twenty_samples():
    assert tails.tail(range(19)) is None
    assert tails.tail(range(20))["pct"] == 50.0
    assert tails.calls([3.0] * 5) == {
        "n": 5, "p50": 3.0, "max": 3.0, "tail": 0.0, "tail_pct": 0.0}


def test_calls_summary():
    summary = tails.calls([float(v) for v in range(1, 101)])
    assert summary["n"] == 100
    assert summary["p50"] == 50.0 and summary["max"] == 100.0
    assert (summary["tail_pct"], summary["tail"]) == (90.0, 90.0)


def test_summarise_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = tails.summarise(values)
    assert summary["median"] == statistics.median(values)
    assert summary["spread"] == pytest.approx((q3 - q1) /
                                              statistics.median(values))
    assert tails.summarise([4.0])["spread"] == 0.0
