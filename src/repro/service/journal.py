"""The service crash journal: what happened, at which epoch boundary.

Reuses the checksummed append-only ledger format
(:mod:`repro.ckpt.ledger`) — fsync'd JSON Lines with BLAKE2b record
checksums, sequence contiguity, and torn-tail recovery — so a SIGKILL
mid-append can never leave an ambiguous journal.  Record kinds:

* ``header``        — service fingerprint + format tag (always first),
* ``epoch-start``   — epoch index, attempt number, fault-plan repr,
* ``epoch-done``    — epoch index, dataset digest, sample counters,
* ``epoch-retry``   — epoch index, the error, backoff applied,
* ``quarantine``    — epoch index, reason, where the bytes went,
* ``shutdown``      — signal name, the epoch in flight,
* ``service-done``  — every epoch finished.

``repro service resume`` reads the journal to find the exact epoch
boundary to pick up from; ``repro service status`` renders it.  The
``epoch-start`` fault-plan repr makes the epoch/seed determinism
contract auditable: re-deriving ``epoch_fault_plan(master_seed, n)``
must reproduce the recorded repr exactly (asserted in tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.ckpt.ledger import (
    CheckpointCorruptionError,
    LedgerLoad,
    LedgerReader,
    LedgerRecord,
    LedgerWriter,
    read_ledger,
)

__all__ = ["JournalCorruptError", "ServiceError", "ServiceJournal"]

FORMAT_TAG = "service-journal-v1"


class ServiceError(Exception):
    """Base class for service failures."""


class JournalCorruptError(ServiceError):
    """The crash journal is damaged mid-file (not just a torn tail)."""


class ServiceJournal:
    """Append-only event log for one service directory."""

    def __init__(self, path: str, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.records: List[LedgerRecord] = []
        self._writer: Optional[LedgerWriter] = None

    # -- lifecycle ---------------------------------------------------------

    def load(self) -> Optional[LedgerLoad]:
        """Read and verify the journal into :attr:`records`, read-only.

        Returns the raw load (None when there is no journal file), so
        :meth:`open` can truncate a torn tail.
        """
        try:
            load = read_ledger(self.path)
        except CheckpointCorruptionError as exc:
            raise JournalCorruptError(
                "service journal {!r} is corrupt mid-file: {}. The "
                "journal is the service's source of truth; restore it "
                "from a copy (nothing was deleted) before resuming."
                .format(self.path, exc)
            )
        if load is not None and load.records:
            header = load.records[0].payload
            if header.get("fingerprint") != self.fingerprint:
                raise JournalCorruptError(
                    "service journal {!r} belongs to a different service "
                    "(stored fingerprint {}, expected {})".format(
                        self.path, header.get("fingerprint"),
                        self.fingerprint,
                    )
                )
            if header.get("format") != FORMAT_TAG:
                raise JournalCorruptError(
                    "service journal {!r} has unsupported format {!r}"
                    .format(self.path, header.get("format"))
                )
            self.records = list(load.records)
        return load

    def open(self) -> "ServiceJournal":
        """Load (verifying checksums), truncate any torn tail, and
        open for appending.  Creates the journal if absent."""
        load = self.load()
        fresh = not self.records
        if load is not None and (load.dropped_tail or not load.records):
            LedgerReader.truncate_to(
                self.path, load.clean_bytes if load.records else 0
            )
        self._writer = LedgerWriter(
            self.path, next_seq=len(self.records)
        )
        if fresh:
            self.append(
                "header",
                {"fingerprint": self.fingerprint, "format": FORMAT_TAG},
            )
        return self

    def close(self) -> None:
        """Release the journal file handle (safe to call twice)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "ServiceJournal":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends -----------------------------------------------------------

    def append(self, kind: str, payload: Dict[str, Any]) -> None:
        """Append one fsync'd event record."""
        if self._writer is None:
            raise RuntimeError("journal is not open")
        self._writer.append(kind, payload)
        self.records.append(
            LedgerRecord(
                kind=kind, seq=len(self.records), payload=payload
            )
        )

    # -- queries (all pure over self.records) ------------------------------

    def events(self, kind: str) -> List[Dict[str, Any]]:
        """Payloads of every record of *kind*, in append order."""
        return [r.payload for r in self.records if r.kind == kind]

    def epochs_done(self) -> Dict[int, Dict[str, Any]]:
        """Completed epochs: index -> the latest epoch-done payload."""
        done: Dict[int, Dict[str, Any]] = {}
        for payload in self.events("epoch-done"):
            done[int(payload["epoch"])] = payload
        return done

    def next_epoch(self) -> int:
        """The first epoch without an epoch-done record."""
        done = self.epochs_done()
        epoch = 0
        while epoch in done:
            epoch += 1
        return epoch

    def service_complete(self) -> bool:
        """Whether a ``service-done`` record has been journalled."""
        return any(r.kind == "service-done" for r in self.records)

    def epoch_start_payload(self, epoch: int) -> Optional[Dict[str, Any]]:
        """The first epoch-start record for *epoch* (plan audit)."""
        for payload in self.events("epoch-start"):
            if int(payload["epoch"]) == epoch:
                return payload
        return None
