"""Wirepack: the one binary encoding of measurement samples.

Every sample the program ships or stores is wirepack: a shard's whole
result crossing from a pool worker to the parent, the same bytes kept
as the shard's sealed ``<role>.result`` checkpoint blob, and each
committed batch inside an unfinished unit's sealed ``<role>.state``.
One blob holds

* an interned string table (node ids, IPs, countries, providers,
  qnames, header keys — almost every string repeats many times per
  shard), referenced by varint index;
* IEEE-754 doubles via ``struct`` for every timing, so floats
  round-trip **exactly** — the decoded records compare equal to the
  originals field for field, which is what keeps the merged dataset
  byte-identical to an inline run;
* timeline-header key/value pairs in insertion order (float addition
  is not associative; ``brightdata_ms`` sums header values, so order
  must survive the trip).

Decoders read bytes from disk and from other processes, so they check
every length and index and reject trailing bytes: a malformed blob
raises :class:`WirepackError`.  Wirepack has no checksum of its own;
on disk, a seal (:func:`repro.ckpt.checkpoint.seal`) guards every
blob.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Tuple

from repro.core.campaign import AtlasRawSample, NodeFailure
from repro.core.timeline import Do53Raw, DohRaw
from repro.geo.coords import LatLon
from repro.geo.geolocate import GeoRecord
from repro.proxy.headers import TimelineHeaders

__all__ = [
    "WirepackError",
    "pack_atlas_samples",
    "pack_samples",
    "pack_shard_result",
    "unpack_atlas_samples",
    "unpack_samples",
    "unpack_shard_result",
]

#: Format magic + version; bump on any layout change.
MAGIC = b"RWPK1"

_F64 = struct.Struct("<d")
_F64X4 = struct.Struct("<4d")


class WirepackError(ValueError):
    """The blob is not a valid wirepack payload."""


# -- primitive writers ------------------------------------------------------


class _Packer:
    """Accumulates records while interning every string it sees."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self._strings: Dict[str, int] = {}
        self._ordered: List[str] = []

    def intern(self, text: str) -> int:
        index = self._strings.get(text)
        if index is None:
            index = len(self._ordered)
            self._strings[text] = index
            self._ordered.append(text)
        return index

    def varint(self, value: int) -> None:
        if value < 0:
            raise WirepackError(
                "wirepack varints are unsigned; got {}".format(value)
            )
        buf = self.buf
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def string(self, text: str) -> None:
        self.varint(self.intern(text))

    def f64(self, value: float) -> None:
        self.buf += _F64.pack(value)

    def f64x4(self, a: float, b: float, c: float, d: float) -> None:
        self.buf += _F64X4.pack(a, b, c, d)

    def raw(self, data: bytes) -> None:
        """Length-prefixed bytes, kept out of the string table."""
        self.varint(len(data))
        self.buf += data

    def headers(self, headers: TimelineHeaders) -> None:
        for mapping in (headers.tun, headers.box):
            self.varint(len(mapping))
            for key, value in mapping.items():
                self.string(key)
                self.f64(value)

    def assemble(self) -> bytes:
        """The final blob: magic, string table, then the record bytes."""
        head = bytearray(MAGIC)
        table = _Packer()  # reuse the varint writer for the header
        table.varint(len(self._ordered))
        for text in self._ordered:
            data = text.encode("utf-8")
            table.varint(len(data))
            table.buf += data
        return bytes(head + table.buf + self.buf)


class _Unpacker:
    def __init__(self, blob: bytes) -> None:
        if not blob.startswith(MAGIC):
            raise WirepackError(
                "not a wirepack blob (bad magic {!r})".format(blob[:5])
            )
        self.blob = blob
        self.pos = len(MAGIC)
        count = self.varint()
        self.strings: List[str] = []
        for _ in range(count):
            length = self.varint()
            end = self.pos + length
            if end > len(blob):
                raise WirepackError("truncated wirepack blob")
            try:
                self.strings.append(blob[self.pos:end].decode("utf-8"))
            except UnicodeDecodeError:
                raise WirepackError(
                    "corrupt wirepack string table"
                ) from None
            self.pos = end

    def varint(self) -> int:
        blob, pos = self.blob, self.pos
        shift = 0
        value = 0
        while True:
            if pos >= len(blob):
                raise WirepackError("truncated wirepack blob")
            byte = blob[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        self.pos = pos
        return value

    def string(self) -> str:
        index = self.varint()
        try:
            return self.strings[index]
        except IndexError:
            raise WirepackError(
                "string index {} out of range".format(index)
            ) from None

    def f64(self) -> float:
        try:
            value = _F64.unpack_from(self.blob, self.pos)[0]
        except struct.error:
            raise WirepackError("truncated wirepack blob") from None
        self.pos += 8
        return value

    def f64x4(self) -> Tuple[float, float, float, float]:
        try:
            values = _F64X4.unpack_from(self.blob, self.pos)
        except struct.error:
            raise WirepackError("truncated wirepack blob") from None
        self.pos += 32
        return values

    def flag(self) -> bool:
        if self.pos >= len(self.blob):
            raise WirepackError("truncated wirepack blob")
        value = self.blob[self.pos]
        if value > 1:
            raise WirepackError("bad wirepack flag byte {}".format(value))
        self.pos += 1
        return value == 1

    def raw(self) -> bytes:
        length = self.varint()
        end = self.pos + length
        if end > len(self.blob):
            raise WirepackError("truncated wirepack blob")
        data = self.blob[self.pos:end]
        self.pos = end
        return data

    def finish(self) -> None:
        """Reject anything past the last record."""
        extra = len(self.blob) - self.pos
        if extra:
            raise WirepackError(
                "{} trailing byte(s) after the wirepack records".format(
                    extra)
            )

    def headers(self) -> TimelineHeaders:
        tun = {}
        for _ in range(self.varint()):
            key = self.string()
            tun[key] = self.f64()
        box = {}
        for _ in range(self.varint()):
            key = self.string()
            box[key] = self.f64()
        return TimelineHeaders(tun=tun, box=box)


# -- sample codecs ----------------------------------------------------------


def _pack_doh(packer: _Packer, raw: DohRaw) -> None:
    packer.string(raw.node_id)
    packer.string(raw.exit_ip)
    packer.string(raw.claimed_country)
    packer.string(raw.provider)
    packer.string(raw.qname)
    packer.string(raw.tls_version)
    packer.string(raw.error)
    packer.f64x4(raw.t_a, raw.t_b, raw.t_c, raw.t_d)
    packer.varint(raw.run_index)
    packer.buf.append(1 if raw.success else 0)
    packer.headers(raw.headers)


def _unpack_doh(unpacker: _Unpacker) -> DohRaw:
    node_id = unpacker.string()
    exit_ip = unpacker.string()
    claimed_country = unpacker.string()
    provider = unpacker.string()
    qname = unpacker.string()
    tls_version = unpacker.string()
    error = unpacker.string()
    t_a, t_b, t_c, t_d = unpacker.f64x4()
    run_index = unpacker.varint()
    success = unpacker.flag()
    headers = unpacker.headers()
    return DohRaw(
        node_id=node_id, exit_ip=exit_ip, claimed_country=claimed_country,
        provider=provider, qname=qname, t_a=t_a, t_b=t_b, t_c=t_c, t_d=t_d,
        headers=headers, tls_version=tls_version, run_index=run_index,
        success=success, error=error,
    )


def _pack_do53(packer: _Packer, raw: Do53Raw) -> None:
    packer.string(raw.node_id)
    packer.string(raw.exit_ip)
    packer.string(raw.claimed_country)
    packer.string(raw.qname)
    packer.string(raw.resolved_at)
    packer.string(raw.error)
    packer.f64(raw.dns_ms)
    packer.varint(raw.run_index)
    packer.buf.append(1 if raw.success else 0)
    packer.headers(raw.headers)


def _unpack_do53(unpacker: _Unpacker) -> Do53Raw:
    node_id = unpacker.string()
    exit_ip = unpacker.string()
    claimed_country = unpacker.string()
    qname = unpacker.string()
    resolved_at = unpacker.string()
    error = unpacker.string()
    dns_ms = unpacker.f64()
    run_index = unpacker.varint()
    success = unpacker.flag()
    headers = unpacker.headers()
    return Do53Raw(
        node_id=node_id, exit_ip=exit_ip, claimed_country=claimed_country,
        qname=qname, dns_ms=dns_ms, headers=headers,
        resolved_at=resolved_at, run_index=run_index, success=success,
        error=error,
    )


def _pack_sample_lists(
    packer: _Packer,
    doh: List[DohRaw],
    do53: List[Do53Raw],
    failures: List[NodeFailure],
) -> None:
    packer.varint(len(doh))
    packer.varint(len(do53))
    packer.varint(len(failures))
    for raw in doh:
        _pack_doh(packer, raw)
    for raw in do53:
        _pack_do53(packer, raw)
    for failure in failures:
        packer.string(failure.node_id)
        packer.string(failure.error)
        packer.varint(failure.attempts)


def _unpack_sample_lists(
    unpacker: _Unpacker,
) -> Tuple[List[DohRaw], List[Do53Raw], List[NodeFailure]]:
    n_doh = unpacker.varint()
    n_do53 = unpacker.varint()
    n_fail = unpacker.varint()
    doh = [_unpack_doh(unpacker) for _ in range(n_doh)]
    do53 = [_unpack_do53(unpacker) for _ in range(n_do53)]
    failures = [
        NodeFailure(
            node_id=unpacker.string(),
            error=unpacker.string(),
            attempts=unpacker.varint(),
        )
        for _ in range(n_fail)
    ]
    return doh, do53, failures


def pack_samples(
    doh: List[DohRaw],
    do53: List[Do53Raw],
    failures: List[NodeFailure],
) -> bytes:
    """Pack one batch's (or shard's) samples into a single blob."""
    packer = _Packer()
    _pack_sample_lists(packer, doh, do53, failures)
    return packer.assemble()


def unpack_samples(
    blob: bytes,
) -> Tuple[List[DohRaw], List[Do53Raw], List[NodeFailure]]:
    """Decode a :func:`pack_samples` blob back into raw records."""
    unpacker = _Unpacker(blob)
    samples = _unpack_sample_lists(unpacker)
    unpacker.finish()
    return samples


def pack_atlas_samples(samples: List[AtlasRawSample]) -> bytes:
    """Pack the Atlas task's ``(probe, country, index, ms)`` tuples."""
    packer = _Packer()
    packer.varint(len(samples))
    for probe_id, country, index, time_ms in samples:
        packer.string(probe_id)
        packer.string(country)
        packer.varint(index)
        packer.f64(time_ms)
    return packer.assemble()


def unpack_atlas_samples(blob: bytes) -> List[AtlasRawSample]:
    """Decode a :func:`pack_atlas_samples` blob back into tuples."""
    unpacker = _Unpacker(blob)
    samples = [
        (
            unpacker.string(),
            unpacker.string(),
            unpacker.varint(),
            unpacker.f64(),
        )
        for _ in range(unpacker.varint())
    ]
    unpacker.finish()
    return samples


# -- whole shard results ----------------------------------------------------


def pack_shard_result(result) -> bytes:
    """Encode a worker's whole ``ShardResult`` as one blob.

    Samples, failures, counters, qname map, client rows and the
    geolocation snapshot are wirepack records; the optional metrics and
    trace snapshots, already plain JSON-able data, ride along as one
    JSON section.
    """
    packer = _Packer()
    packer.varint(result.shard_index)
    _pack_sample_lists(
        packer, result.kept_doh, result.kept_do53, result.failures
    )
    for count in (result.dropped_doh, result.dropped_do53,
                  result.resumed_batches, result.measured_batches):
        packer.varint(count)
    packer.varint(len(result.qname_map))
    for qname, resolver_ip in result.qname_map:
        packer.string(qname)
        packer.string(resolver_ip)
    packer.varint(len(result.client_entries))
    for node_id, ip, country in result.client_entries:
        packer.string(node_id)
        packer.string(ip)
        packer.string(country)
    geo = result.geo_snapshot
    packer.buf.append(0 if geo is None else 1)
    if geo is not None:
        packer.varint(len(geo))
        for prefix, record in geo.items():
            packer.varint(prefix)
            packer.string(record.country_code)
            packer.f64(record.location.lat)
            packer.f64(record.location.lon)
    packer.raw(json.dumps(
        [result.metrics, result.traces], separators=(",", ":")
    ).encode("ascii"))
    return packer.assemble()


def unpack_shard_result(blob: bytes):
    """Decode a :func:`pack_shard_result` blob back into a ``ShardResult``."""
    from repro.parallel.worker import ShardResult

    unpacker = _Unpacker(blob)
    shard_index = unpacker.varint()
    doh, do53, failures = _unpack_sample_lists(unpacker)
    dropped_doh, dropped_do53, resumed, measured = [
        unpacker.varint() for _ in range(4)
    ]
    qname_map = [
        (unpacker.string(), unpacker.string())
        for _ in range(unpacker.varint())
    ]
    client_entries = [
        (unpacker.string(), unpacker.string(), unpacker.string())
        for _ in range(unpacker.varint())
    ]
    geo: Optional[Dict[int, GeoRecord]] = None
    if unpacker.flag():
        geo = {}
        for _ in range(unpacker.varint()):
            prefix = unpacker.varint()
            code = unpacker.string()
            lat = unpacker.f64()
            lon = unpacker.f64()
            try:
                geo[prefix] = GeoRecord(code, LatLon(lat, lon))
            except ValueError as exc:
                raise WirepackError(
                    "bad geolocation record: {}".format(exc)
                ) from None
    try:
        section = json.loads(unpacker.raw().decode("ascii"))
    except ValueError as exc:  # not ASCII, or not JSON
        raise WirepackError(
            "corrupt metrics/traces section: {}".format(exc)
        ) from None
    if not isinstance(section, list) or len(section) != 2:
        raise WirepackError("corrupt metrics/traces section")
    metrics, traces = section
    unpacker.finish()
    return ShardResult(
        shard_index=shard_index,
        kept_doh=doh,
        kept_do53=do53,
        dropped_doh=dropped_doh,
        dropped_do53=dropped_do53,
        qname_map=qname_map,
        client_entries=client_entries,
        geo_snapshot=geo,
        failures=failures,
        metrics=metrics,
        traces=traces,
        resumed_batches=resumed,
        measured_batches=measured,
    )
