"""Profile bucketing on a synthetic pstats table."""

import pytest

import profbuckets

NETSIM = ("/x/src/repro/netsim/engine.py", 10, "run")
DNS = ("/x/src/repro/dns/message.py", 20, "to_wire")
CLI = ("/x/src/repro/cli.py", 5, "main")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
LEN = ("~", 0, "<built-in method builtins.len>")
JSON_ENC = ("/usr/lib/python3.11/json/encoder.py", 1, "encode")
JSON_C = ("~", 0, "<built-in method _json.encode_basestring>")
ORPHAN = ("~", 0, "<built-in method posix.getpid>")


def entry(tt, callers=None):
    # (cc, nc, tt, ct, callers) with callers mapping to (nc, cc, tt, ct)
    return (1, 1, tt, tt, callers or {})


def test_package_of():
    assert profbuckets.package_of("/a/src/repro/netsim/engine.py") == "netsim"
    assert profbuckets.package_of("/a/src/repro/cli.py") == "cli"
    assert profbuckets.package_of("/usr/lib/python3.11/json/x.py") is None
    assert profbuckets.package_of("~") is None


def test_c_calls_are_charged_to_their_callers():
    stats = {
        NETSIM: entry(2.0, {CLI: (1, 1, 2.0, 5.0)}),
        DNS: entry(1.0, {NETSIM: (1, 1, 1.0, 1.5)}),
        CLI: entry(0.5),
        # 1.0 s of heappush: 0.75 s under netsim, 0.25 s under dns.
        HEAPPUSH: entry(1.0, {NETSIM: (3, 3, 0.75, 0.75),
                              DNS: (1, 1, 0.25, 0.25)}),
        # A stdlib Python function called only by dns, and the C call
        # under it: both climb to dns.
        JSON_ENC: entry(0.4, {DNS: (1, 1, 0.4, 0.6)}),
        JSON_C: entry(0.2, {JSON_ENC: (1, 1, 0.2, 0.2)}),
        # Recursion on a C call is not a caller of itself.
        LEN: entry(0.1, {LEN: (1, 1, 0.05, 0.05),
                         NETSIM: (1, 1, 0.05, 0.05)}),
        ORPHAN: entry(0.3),
    }
    buckets = profbuckets.bucket_self_time(stats)
    assert buckets["netsim"] == pytest.approx(2.0 + 0.75 + 0.1)
    assert buckets["dns"] == pytest.approx(1.0 + 0.25 + 0.4 + 0.2)
    assert buckets["cli"] == pytest.approx(0.5)
    assert buckets["other"] == pytest.approx(0.3)
    assert sum(buckets.values()) == pytest.approx(
        sum(value[2] for value in stats.values()))

    shares = profbuckets.shares(buckets)
    total = sum(buckets.values())
    assert shares["netsim"] == pytest.approx(2.85 / total)
    assert shares["other"] == pytest.approx((0.5 + 0.3) / total)
    assert sum(shares.values()) == pytest.approx(1.0)
