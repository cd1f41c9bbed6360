"""Trace recorder: capture, addressing, round-trips, zero-cost-off."""

import pytest

from repro.core.timeline import Do53Raw, DohRaw
from repro.obs.trace import (
    DO53_PROVIDER_KEY,
    PhaseEvent,
    SampleTrace,
    TraceRecorder,
)
from repro.proxy.headers import TimelineHeaders


def _doh_raw(node_id="N-0", provider="cloudflare", run_index=0):
    return DohRaw(
        node_id=node_id,
        exit_ip="10.0.0.1",
        claimed_country="DE",
        provider=provider,
        qname="u1.a.com",
        t_a=100.0,
        t_b=180.0,
        t_c=181.0,
        t_d=400.0,
        headers=TimelineHeaders(
            tun={"dns": 12.5, "connect": 30.0},
            box={"auth": 1.0, "select": 2.0},
        ),
        tls_version="tls1.3",
        run_index=run_index,
    )


def _do53_raw(node_id="N-0", run_index=0):
    return Do53Raw(
        node_id=node_id,
        exit_ip="10.0.0.1",
        claimed_country="DE",
        qname="u2.a.com",
        dns_ms=55.0,
        headers=TimelineHeaders(tun={"dns": 55.0}, box={}),
        resolved_at="exit",
        run_index=run_index,
    )


class TestRecording:
    def test_doh_trace_events_and_key(self):
        recorder = TraceRecorder()
        recorder.record_doh(_doh_raw(), t_handshake_ms=260.0)
        trace = recorder.get("N-0", "cloudflare", 0)
        assert trace is not None
        assert trace.key == ("N-0", "cloudflare", 0)
        assert trace.kind == "doh"
        tunnel = trace.event("tunnel_setup")
        assert tunnel.start_ms == 100.0
        assert tunnel.duration_ms == pytest.approx(80.0)
        assert trace.event("tls_handshake").duration_ms == pytest.approx(79.0)
        assert trace.event("query_exchange").duration_ms == pytest.approx(140.0)
        assert trace.event("exit_dns").duration_ms == 12.5
        assert trace.event("exit_tcp_connect").duration_ms == 30.0
        # Header-derived phases have no observable absolute start.
        assert trace.event("exit_dns").start_ms is None
        assert trace.duration_from("superproxy") == pytest.approx(3.0)

    def test_doh_without_handshake_lacks_client_phases(self):
        recorder = TraceRecorder()
        recorder.record_doh(_doh_raw(), t_handshake_ms=None)
        trace = recorder.get("N-0", "cloudflare", 0)
        assert trace.event("tls_handshake") is None
        assert trace.event("query_exchange") is None
        assert trace.event("tunnel_setup") is not None

    def test_do53_uses_reserved_provider_key(self):
        recorder = TraceRecorder()
        recorder.record_do53(_do53_raw())
        trace = recorder.get("N-0", DO53_PROVIDER_KEY, 0)
        assert trace.kind == "do53"
        assert trace.event("exit_dns").duration_ms == 55.0
        assert trace.event("exit_dns").source == "exit"

    def test_keys_are_canonically_sorted(self):
        recorder = TraceRecorder()
        recorder.record_doh(_doh_raw(node_id="B-1"), t_handshake_ms=260.0)
        recorder.record_doh(_doh_raw(node_id="A-1"), t_handshake_ms=260.0)
        recorder.record_do53(_do53_raw(node_id="A-1"))
        assert recorder.keys() == [
            ("A-1", "cloudflare", 0),
            ("A-1", "do53", 0),
            ("B-1", "cloudflare", 0),
        ]


class TestSerialisation:
    def test_phase_event_round_trip(self):
        event = PhaseEvent("exit_dns", "exit", None, 12.5)
        assert PhaseEvent.from_json(event.to_json()) == event

    def test_sample_trace_round_trip(self):
        recorder = TraceRecorder()
        recorder.record_doh(_doh_raw(), t_handshake_ms=260.0)
        trace = recorder.traces()[0]
        assert SampleTrace.from_json(trace.to_json()) == trace

    def test_snapshot_merge_and_file_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record_doh(_doh_raw(node_id="A-1"), t_handshake_ms=260.0)
        other = TraceRecorder()
        other.record_do53(_do53_raw(node_id="B-1"))
        recorder.merge_snapshot(other.snapshot())
        assert len(recorder) == 2

        path = str(tmp_path / "traces.json")
        recorder.save(path)
        loaded = TraceRecorder.load(path)
        assert loaded.keys() == recorder.keys()
        assert loaded.traces() == recorder.traces()
