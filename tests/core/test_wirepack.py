"""The binary sample codec (``repro.parallel.wirepack``).

The codec carries the byte-identity invariant between processes and
into checkpoint files: every decoded record must compare equal to the
original field for field — floats exactly (struct doubles, no text
round-trip), header key order preserved (float addition is not
associative; ``brightdata_ms`` sums the box values in insertion
order) — and a malformed blob must raise, never decode to something
else.  The property tests run derandomized, so a failure in CI
replays with the same examples locally.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import NodeFailure
from repro.core.timeline import Do53Raw, DohRaw
from repro.geo.coords import LatLon
from repro.geo.geolocate import GeoRecord
from repro.parallel.wirepack import (
    WirepackError,
    pack_atlas_samples,
    pack_samples,
    pack_shard_result,
    unpack_atlas_samples,
    unpack_samples,
    unpack_shard_result,
)
from repro.parallel.worker import ShardResult
from repro.proxy.headers import TimelineHeaders


def _doh(index: int = 0, **overrides) -> DohRaw:
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.0.{}.7".format(index % 250),
        claimed_country="DE",
        provider="cloudflare",
        qname="s0-{}.example.repro.net".format(index),
        t_a=1.5 + index,
        # Deliberately awkward doubles: must survive exactly.
        t_b=0.1 + 0.2,
        t_c=123456.789012345,
        t_d=5e-324,
        headers=TimelineHeaders(
            # Non-sorted key order: the codec must keep it.
            tun={"dns": 23.4375, "connect": 41.0625},
            box={"z_auth": 1.25, "a_init": 2.75, "m_select": 0.5},
        ),
        tls_version="TLSv1.3",
        run_index=index,
        success=True,
        error="",
    )
    fields.update(overrides)
    return DohRaw(**fields)


def _do53(index: int = 0, **overrides) -> Do53Raw:
    fields = dict(
        node_id="node-{:04d}".format(index),
        exit_ip="10.1.{}.9".format(index % 250),
        claimed_country="JP",
        qname="s1-{}.example.repro.net".format(index),
        dns_ms=17.015625 + index,
        headers=TimelineHeaders(tun={"dns": 17.015625}, box={}),
        resolved_at="9.9.9.9",
        run_index=index,
        success=index % 3 != 0,
        error="" if index % 3 != 0 else "timeout",
    )
    fields.update(overrides)
    return Do53Raw(**fields)


class TestSampleRoundTrip:
    def test_doh_do53_failures_round_trip_exactly(self):
        doh = [_doh(i) for i in range(7)]
        do53 = [_do53(i) for i in range(5)]
        failures = [
            NodeFailure(node_id="node-0003", error="refused", attempts=3),
        ]
        blob = pack_samples(doh, do53, failures)
        out_doh, out_do53, out_failures = unpack_samples(blob)
        assert out_doh == doh
        assert out_do53 == do53
        assert out_failures == failures

    def test_floats_are_bit_exact(self):
        ugly = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -1074, 1e308, 0.0]
        doh = [_doh(0, t_a=v, t_b=v * 3, t_c=v, t_d=v) for v in ugly]
        out, _, _ = unpack_samples(pack_samples(doh, [], []))
        for original, decoded in zip(doh, out):
            for name in ("t_a", "t_b", "t_c", "t_d"):
                a = getattr(original, name)
                b = getattr(decoded, name)
                assert math.copysign(1.0, a) == math.copysign(1.0, b)
                assert a == b

    def test_header_insertion_order_survives(self):
        # brightdata_ms sums box values; float addition is not
        # associative, so a codec that sorted keys could change the sum
        # by an ulp and break byte-identity downstream.
        raw = _doh(0)
        out, _, _ = unpack_samples(pack_samples([raw], [], []))
        assert list(out[0].headers.tun) == list(raw.headers.tun)
        assert list(out[0].headers.box) == list(raw.headers.box)
        assert out[0].headers.brightdata_ms == raw.headers.brightdata_ms

    def test_string_interning_deduplicates(self):
        # 100 samples from one node: the node id, country, provider and
        # header keys appear once in the blob, not 100 times — and the
        # whole blob undercuts the pickled dataclass transport it
        # replaced.
        import pickle

        doh = [_doh(0, run_index=i) for i in range(100)]
        blob = pack_samples(doh, [], [])
        assert blob.count(b"node-0000") == 1
        assert blob.count(b"cloudflare") == 1
        assert len(blob) < len(
            pickle.dumps(doh, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_failed_sample_fields_round_trip(self):
        raw = _doh(
            0, success=False, error="provider outage: SERVFAIL",
            tls_version="",
        )
        out, _, _ = unpack_samples(pack_samples([raw], [], []))
        assert out[0] == raw
        assert out[0].success is False

    def test_empty_blob_round_trips(self):
        assert unpack_samples(pack_samples([], [], [])) == ([], [], [])


class TestAtlasRoundTrip:
    def test_samples_round_trip(self):
        samples = [
            ("probe-{}".format(i), "BR", i, 12.345678901234 + i)
            for i in range(9)
        ]
        assert unpack_atlas_samples(pack_atlas_samples(samples)) == samples

    def test_empty(self):
        assert unpack_atlas_samples(pack_atlas_samples([])) == []


class TestMalformedBlobs:
    def test_bad_magic_rejected(self):
        with pytest.raises(WirepackError, match="magic"):
            unpack_samples(b"NOPE!" + b"\x00" * 16)

    def test_truncated_blob_rejected(self):
        blob = pack_samples([_doh(0)], [], [])
        with pytest.raises(WirepackError, match="truncated"):
            unpack_samples(blob[: len(blob) // 2] + b"\xff")

    def test_negative_run_index_rejected_at_pack_time(self):
        with pytest.raises(WirepackError, match="unsigned"):
            pack_samples([_doh(0, run_index=-1)], [], [])


class TestShardResultEnvelope:
    def test_shard_result_round_trips(self):
        result = ShardResult(
            shard_index=2,
            kept_doh=[_doh(i) for i in range(4)],
            kept_do53=[_do53(i) for i in range(3)],
            dropped_doh=5,
            dropped_do53=1,
            qname_map=[("q1.example", "10.0.0.1"), ("q2.example", "10.0.0.2")],
            client_entries=[("node-0001", "10.0.1.7", "DE")],
            geo_snapshot=None,
            failures=[NodeFailure("node-0009", "hung", 2)],
            metrics={"counters": {"campaign.measurements": 12}},
            traces=[{"node_id": "node-0001"}],
            resumed_batches=1,
            measured_batches=3,
        )
        packed = pack_shard_result(result)
        assert isinstance(packed, bytes)
        restored = unpack_shard_result(packed)
        assert restored == result


class TestTrailingBytes:
    @pytest.mark.parametrize("pack, unpack, value", [
        (lambda v: pack_samples(*v), unpack_samples, ([], [], [])),
        (lambda v: pack_samples(*v), unpack_samples,
         ([_doh(1)], [_do53(2)], [NodeFailure("n", "e", 1)])),
        (pack_atlas_samples, unpack_atlas_samples, [("p", "BR", 0, 1.5)]),
        (pack_shard_result, unpack_shard_result, ShardResult(0)),
    ])
    def test_every_decoder_rejects_trailing_bytes(self, pack, unpack, value):
        blob = pack(value)
        for extra in (b"\x00", b"garbage"):
            with pytest.raises(WirepackError, match="trailing"):
                unpack(blob + extra)


# -- properties ---------------------------------------------------------------

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)

#: Every double, with the awkward ones drawn often: signed zero,
#: subnormals, the largest finite value, and both infinities.
FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.0 ** -1030, 1.7976931348623157e308,
                     math.inf, -math.inf]),
    st.floats(allow_nan=False),
)
#: Non-ASCII included; strings and header keys go through UTF-8.
TEXT = st.text(max_size=8)
HEADERS = st.builds(
    TimelineHeaders,
    tun=st.dictionaries(TEXT, FLOATS, max_size=4),
    box=st.dictionaries(TEXT, FLOATS, max_size=4),
)
DOH = st.builds(
    DohRaw, node_id=TEXT, exit_ip=TEXT, claimed_country=TEXT,
    provider=TEXT, qname=TEXT, t_a=FLOATS, t_b=FLOATS, t_c=FLOATS,
    t_d=FLOATS, headers=HEADERS, tls_version=TEXT,
    run_index=st.integers(0, 2 ** 64), success=st.booleans(), error=TEXT,
)
DO53 = st.builds(
    Do53Raw, node_id=TEXT, exit_ip=TEXT, claimed_country=TEXT, qname=TEXT,
    dns_ms=FLOATS, headers=HEADERS, resolved_at=TEXT,
    run_index=st.integers(0, 2 ** 64), success=st.booleans(), error=TEXT,
)
FAILURE = st.builds(NodeFailure, node_id=TEXT, error=TEXT,
                    attempts=st.integers(0, 1000))
#: The plain data of metrics and trace snapshots.
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(TEXT, inner, max_size=3),
    ),
    max_leaves=8,
)
GEO = st.dictionaries(
    st.integers(0, 2 ** 32 - 1),
    st.builds(GeoRecord, country_code=TEXT, location=st.builds(
        LatLon, st.floats(-90, 90), st.floats(-180, 180))),
    max_size=3,
)
COUNT = st.integers(0, 2 ** 40)
SHARD_RESULTS = st.builds(
    ShardResult,
    shard_index=st.integers(0, 4096),
    kept_doh=st.lists(DOH, max_size=4),
    kept_do53=st.lists(DO53, max_size=4),
    dropped_doh=COUNT,
    dropped_do53=COUNT,
    qname_map=st.lists(st.tuples(TEXT, TEXT), max_size=3),
    client_entries=st.lists(st.tuples(TEXT, TEXT, TEXT), max_size=3),
    geo_snapshot=st.none() | GEO,
    failures=st.lists(FAILURE, max_size=3),
    metrics=st.none() | st.dictionaries(TEXT, JSON, max_size=3),
    traces=st.none() | st.lists(st.dictionaries(TEXT, JSON, max_size=3),
                                max_size=3),
    resumed_batches=COUNT,
    measured_batches=COUNT,
)


class TestProperties:
    @PROPERTY
    @given(SHARD_RESULTS)
    def test_shard_results_round_trip_to_the_same_bytes(self, result):
        blob = pack_shard_result(result)
        decoded = unpack_shard_result(blob)
        assert decoded == result
        # Equality cannot see -0.0 vs 0.0 or header order; bytes can.
        assert pack_shard_result(decoded) == blob

    @settings(PROPERTY, max_examples=40)
    @given(SHARD_RESULTS)
    def test_every_truncation_raises(self, result):
        blob = pack_shard_result(result)
        for cut in range(len(blob)):
            with pytest.raises(WirepackError):
                unpack_shard_result(blob[:cut])

    @PROPERTY
    @given(st.lists(DOH, max_size=3), st.lists(DO53, max_size=3),
           st.lists(FAILURE, max_size=3))
    def test_sample_lists_round_trip_to_the_same_bytes(self, doh, do53,
                                                       failures):
        blob = pack_samples(doh, do53, failures)
        decoded = unpack_samples(blob)
        assert decoded == (doh, do53, failures)
        assert pack_samples(*decoded) == blob
