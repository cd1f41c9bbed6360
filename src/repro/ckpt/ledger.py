"""The append-only, checksummed record format of the service journal.

The service's crash journal (:mod:`repro.service.journal`) is the one
ledger.  The format is JSON Lines; every line is one record::

    {"k": <kind>, "n": <seq>, "p": <payload>, "c": <checksum>}

* ``k`` — record kind (``header`` first, then the journal's events),
* ``n`` — sequence number, contiguous from 0 (the header),
* ``p`` — the JSON payload,
* ``c`` — BLAKE2b digest over the canonical JSON of ``[k, n, p]``.

Appends are flushed and fsync'd before the writer returns, so a
ledger is always a prefix of what was appended.  Readers verify
checksums and sequence contiguity:

* a corrupt or partial **final** record is a torn write from a crash —
  it is dropped and the file truncated back to the clean prefix; so is
  a final record cut off before its newline,
* corruption **before** the final record means the file was damaged at
  rest — that raises :class:`CheckpointCorruptionError` instead of
  silently losing records from the middle of the ledger.  A damaged
  newline that runs the last two records together counts as such.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, List, Optional

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointError",
    "LedgerReader",
    "LedgerRecord",
    "LedgerWriter",
    "read_ledger",
]


class CheckpointError(Exception):
    """Base class for checkpoint/resume failures.

    The package's exceptions start here, in the module that imports no
    other, so every checkpoint module can raise them without a cycle.
    """


class CheckpointCorruptionError(CheckpointError):
    """A ledger failed checksum or structural verification, or a
    checkpoint's manifest or ``config.pkl`` does not read back."""


def _canonical(kind: str, seq: int, payload: Any) -> bytes:
    return json.dumps(
        [kind, seq, payload], sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(kind: str, seq: int, payload: Any) -> str:
    return hashlib.blake2b(
        _canonical(kind, seq, payload), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One verified journal record."""

    kind: str
    seq: int
    payload: Any


@dataclass
class LedgerLoad:
    """The verified contents of one ledger file."""

    records: List[LedgerRecord]
    #: Byte length of the verified prefix (everything past it is torn).
    clean_bytes: int
    #: True when a torn/corrupt tail record was dropped during load.
    dropped_tail: bool


class LedgerWriter:
    """Appends checksummed records, fsync'ing each commit."""

    def __init__(self, path: str, next_seq: int = 0) -> None:
        self.path = path
        self._seq = next_seq
        self._handle = open(path, "ab")

    def append(self, kind: str, payload: Any, fsync: bool = True) -> int:
        """Append one record; returns its sequence number."""
        seq = self._seq
        line = json.dumps(
            {
                "k": kind,
                "n": seq,
                "p": payload,
                "c": _checksum(kind, seq, payload),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
        self._seq = seq + 1
        return seq

    def close(self) -> None:
        """Close the journal file handle (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _verify(data: Any, seq: int) -> LedgerRecord:
    """The record *data* decodes to, checked as number *seq*; raises
    ``ValueError`` naming what is wrong."""
    if not isinstance(data, dict) or not {"k", "n", "p", "c"} <= set(data):
        raise ValueError("not a ledger record")
    kind, number, payload = data["k"], data["n"], data["p"]
    if data["c"] != _checksum(kind, number, payload):
        raise ValueError("checksum mismatch")
    if number != seq:
        raise ValueError(
            "sequence gap (expected {}, found {})".format(seq, number)
        )
    if seq == 0 and kind != "header":
        raise ValueError("first record is {!r}, not a header".format(kind))
    return LedgerRecord(kind=kind, seq=seq, payload=payload)


def _runs_on(line: bytes, seq: int) -> bool:
    """Whether *line* holds a whole valid record *seq* with more bytes
    after it: the newline that ended the record was damaged, which a
    crash mid-append cannot do."""
    try:
        data, _end = json.JSONDecoder().raw_decode(
            line.decode("utf-8", "replace")
        )
        _verify(data, seq)
    except ValueError:
        return False
    return True


def read_ledger(path: str) -> Optional[LedgerLoad]:
    """Load and verify a ledger; ``None`` when *path* does not exist.

    Only the final record may be torn (dropped silently — that is the
    crash the journal exists to survive); damage anywhere else raises
    :class:`CheckpointCorruptionError`.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None

    records: List[LedgerRecord] = []
    offset = 0
    lines = blob.split(b"\n")
    # Every append ends with a newline, so the piece after the last one
    # is empty unless the final append was cut short.
    tail = lines.pop()
    dropped_tail = bool(tail)
    for index, line in enumerate(lines):
        try:
            record = _verify(json.loads(line.decode("utf-8")), len(records))
        except ValueError as exc:
            final = index == len(lines) - 1 and not tail
            if final and not _runs_on(line, len(records)):
                dropped_tail = True
                break
            raise CheckpointCorruptionError(
                "{}: record {} is corrupt before the end of the journal: "
                "{}".format(path, len(records), exc)
            )
        records.append(record)
        offset += len(line) + 1
    return LedgerLoad(
        records=records, clean_bytes=offset, dropped_tail=dropped_tail
    )


class LedgerReader:
    """Truncation of a ledger back to its verified prefix."""

    @staticmethod
    def truncate_to(path: str, clean_bytes: int) -> None:
        """Drop a torn tail so the next writer appends after the clean
        prefix."""
        with open(path, "ab") as handle:
            handle.truncate(clean_bytes)
            handle.flush()
            os.fsync(handle.fileno())
