"""Structured phase traces: the paper's Figure 2 timeline, per sample.

Every measurement decomposes into phases (the t1–t20 steps of the
paper's methodology): the exit node's DNS resolution and TCP handshake,
the BrightData box steps, the client-observed tunnel setup, TLS
handshake and query exchange.  The derived Equations 6–8 collapse all
of that into three numbers — when one of them looks wrong, the trace is
what tells you *which phase* produced it.

A :class:`TraceRecorder` captures one :class:`SampleTrace` per
measurement, addressable by ``(node_id, provider, run_index)`` (Do53
samples use the reserved provider key ``"do53"``).  Recording is
**observational only**: the recorder never draws randomness, never
yields to the simulator, and never mutates measurement state, so the
produced dataset is byte-identical with tracing on or off.

Events carry a ``source`` layer:

* ``"client"`` — client-side timestamps (absolute simulated ms),
* ``"exit"`` — exit-node timings reported in the tun-timeline header,
* ``"superproxy"`` — BrightData box steps from the timeline header
  (durations only; their absolute start is not observable, matching
  the real system).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ioutil import atomic_write_json

__all__ = [
    "DO53_PROVIDER_KEY",
    "PhaseEvent",
    "SampleTrace",
    "TraceKey",
    "TraceRecorder",
]

#: Provider key under which Do53 samples are addressed.
DO53_PROVIDER_KEY = "do53"

#: ``(node_id, provider, run_index)``.
TraceKey = Tuple[str, str, int]


@dataclass(frozen=True)
class PhaseEvent:
    """One phase of a measurement's timeline.

    ``start_ms`` is the absolute simulated time the phase began, or
    ``None`` for header-derived phases whose placement inside the
    tunnel-setup window is not observable (exit-node and BrightData
    steps — the real headers report durations only).
    """

    name: str
    source: str  # "client" | "exit" | "superproxy"
    start_ms: Optional[float]
    duration_ms: float

    def to_json(self) -> List:
        """Compact list form ``[name, source, start_ms, duration_ms]``."""
        return [self.name, self.source, self.start_ms, self.duration_ms]

    @classmethod
    def from_json(cls, data: List) -> "PhaseEvent":
        name, source, start_ms, duration_ms = data
        return cls(name, source, start_ms, duration_ms)


@dataclass(frozen=True)
class SampleTrace:
    """The phase timeline of one measurement."""

    node_id: str
    provider: str  # provider name, or DO53_PROVIDER_KEY
    run_index: int
    kind: str      # "doh" | "do53"
    success: bool
    error: str
    events: Tuple[PhaseEvent, ...]

    @property
    def key(self) -> TraceKey:
        return (self.node_id, self.provider, self.run_index)

    def event(self, name: str) -> Optional[PhaseEvent]:
        """The first event called *name*, or None."""
        for event in self.events:
            if event.name == name:
                return event
        return None

    def duration_from(self, source: str) -> float:
        """Total duration of all events recorded by *source*."""
        return sum(
            event.duration_ms for event in self.events
            if event.source == source
        )

    def to_json(self) -> Dict:
        """Plain-dict form for trace sidecar files."""
        return {
            "node_id": self.node_id,
            "provider": self.provider,
            "run_index": self.run_index,
            "kind": self.kind,
            "success": self.success,
            "error": self.error,
            "events": [event.to_json() for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "SampleTrace":
        return cls(
            node_id=data["node_id"],
            provider=data["provider"],
            run_index=data["run_index"],
            kind=data["kind"],
            success=data["success"],
            error=data["error"],
            events=tuple(
                PhaseEvent.from_json(event) for event in data["events"]
            ),
        )


class TraceRecorder:
    """Collects :class:`SampleTrace` records during a campaign.

    Raw records are *read*, never written; the recorder cannot perturb
    the simulation.
    """

    __slots__ = ("_traces",)

    def __init__(self) -> None:
        self._traces: Dict[TraceKey, SampleTrace] = {}

    # -- capture ----------------------------------------------------------

    def record_doh(self, raw, t_handshake_ms: Optional[float] = None) -> None:
        """Capture a :class:`~repro.core.timeline.DohRaw`'s timeline.

        *t_handshake_ms* is the client's post-TLS-handshake timestamp
        (between T_C and T_D); None when the measurement failed before
        the handshake completed.
        """
        events: List[PhaseEvent] = [
            PhaseEvent("tunnel_setup", "client", raw.t_a, raw.t_b - raw.t_a),
        ]
        if t_handshake_ms is not None:
            events.append(PhaseEvent(
                "tls_handshake", "client", raw.t_c,
                t_handshake_ms - raw.t_c,
            ))
            events.append(PhaseEvent(
                "query_exchange", "client", t_handshake_ms,
                raw.t_d - t_handshake_ms,
            ))
        events.extend(self._header_events(raw.headers, dns_source="exit"))
        self._store(SampleTrace(
            node_id=raw.node_id,
            provider=raw.provider,
            run_index=raw.run_index,
            kind="doh",
            success=raw.success,
            error=raw.error,
            events=tuple(events),
        ))

    def record_do53(self, raw) -> None:
        """Capture a :class:`~repro.core.timeline.Do53Raw`'s timeline."""
        dns_source = "exit" if raw.resolved_at == "exit" else "superproxy"
        events = self._header_events(raw.headers, dns_source=dns_source)
        self._store(SampleTrace(
            node_id=raw.node_id,
            provider=DO53_PROVIDER_KEY,
            run_index=raw.run_index,
            kind="do53",
            success=raw.success,
            error=raw.error,
            events=tuple(events),
        ))

    @staticmethod
    def _header_events(headers, dns_source: str) -> List[PhaseEvent]:
        events = [
            PhaseEvent("exit_dns", dns_source, None, headers.dns_ms),
            PhaseEvent("exit_tcp_connect", "exit", None, headers.connect_ms),
        ]
        for key in sorted(headers.box):
            events.append(
                PhaseEvent("bd_" + key, "superproxy", None, headers.box[key])
            )
        return events

    def _store(self, trace: SampleTrace) -> None:
        # Successful keys are unique by construction; failed samples
        # may lack a node id, in which case the latest attempt wins.
        self._traces[trace.key] = trace

    # -- access ------------------------------------------------------------

    def get(self, node_id: str, provider: str, run_index: int
            ) -> Optional[SampleTrace]:
        """The trace for one measurement, or None."""
        return self._traces.get((node_id, provider, run_index))

    def keys(self) -> List[TraceKey]:
        """All trace keys in canonical sorted order."""
        return sorted(self._traces)

    def traces(self) -> List[SampleTrace]:
        """All traces in canonical key order."""
        return [self._traces[key] for key in self.keys()]

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self):
        return iter(self.traces())

    # -- merge / serialisation ---------------------------------------------

    def snapshot(self) -> List[Dict]:
        """Plain-data form (canonical order), picklable and JSON-able."""
        return [trace.to_json() for trace in self.traces()]

    def merge_snapshot(self, snapshot: Iterable[Dict]) -> None:
        """Fold a shard's :meth:`snapshot` into this recorder."""
        for data in snapshot:
            self._store(SampleTrace.from_json(data))

    @classmethod
    def from_snapshot(cls, snapshot: Iterable[Dict]) -> "TraceRecorder":
        recorder = cls()
        recorder.merge_snapshot(snapshot)
        return recorder

    def save(self, path: str) -> None:
        """Write all traces as JSON to *path* (atomic replace)."""
        atomic_write_json(path, {"traces": self.snapshot()})

    @classmethod
    def load(cls, path: str) -> "TraceRecorder":
        with open(path) as handle:
            return cls.from_snapshot(json.load(handle)["traces"])
