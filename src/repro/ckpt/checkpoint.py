"""Checkpoint directories, manifests, and the resume protocol.

Layout of a checkpoint directory::

    <dir>/checkpoint.json     manifest: fingerprint, execution shape,
                              per-run resume counters, lineage
    <dir>/config.pkl          sealed pickle of the exact ReproConfig
                              (for ckpt extend)
    <dir>/<role>.ledger       sample journal per unit of work
                              (roles: "serial", "shard-<k>", "delta");
                              each batch record is one base64 wirepack
                              blob (:mod:`repro.parallel.wirepack`)
    <dir>/<role>.state        sealed pickle of the world+campaign
                              mutable state at the last committed
                              batch (removed once the unit's
                              ``.result`` is stored)
    <dir>/<role>.result       sealed wirepack result of a finished
                              shard, Atlas or extension delta
    <dir>/ext-<n>/            nested checkpoint of extension n

Every blob file is *sealed* (:func:`seal`): a magic number and a
BLAKE2b checksum over the format version, the campaign fingerprint,
the file name and the payload.  A blob is decoded only after its seal
verifies; one that fails is treated as absent, so its unit is measured
again, which is always byte-safe.

Commit protocol per batch: append the batch's raw samples to the
ledger (fsync), then atomically replace the state blob.  A crash
between the two leaves the ledger one batch ahead of the state; resume
reconciles by truncating the ledger back to the state's watermark — at
most one batch is re-measured, and re-measuring is always byte-safe
because the restored state replays the exact RNG draw sequence of an
uninterrupted run (see :mod:`repro.ckpt.worldstate`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ckpt.fingerprint import FORMAT_VERSION, campaign_fingerprint
from repro.ckpt.ledger import (
    CheckpointCorruptionError,
    LedgerReader,
    LedgerWriter,
    read_ledger,
)
from repro.ckpt.worldstate import (
    _rng_state,
    capture_world_state,
    restore_world_state,
)
from repro.core.campaign import NodeFailure
from repro.core.timeline import Do53Raw, DohRaw
from repro.faults.plan import WORKER_CRASH_EXIT  # noqa: F401  (re-export)
from repro.ioutil import atomic_write_bytes, atomic_write_json
from repro.parallel.wirepack import pack_samples, unpack_samples

__all__ = [
    "CampaignCheckpoint",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "MeasureCheckpoint",
    "ResumeInfo",
]

MANIFEST_NAME = "checkpoint.json"
CONFIG_NAME = "config.pkl"

#: Leads every sealed blob; the checksum follows it.
SEAL_MAGIC = b"RSEAL"
_SEAL_DIGEST = 16
#: Format version, fingerprint length, file-name length.
_SEAL_HEAD = struct.Struct("<HHH")


class CheckpointError(Exception):
    """Base class for checkpoint/resume failures."""


class CheckpointMismatchError(CheckpointError):
    """A ledger was written by a different campaign definition.

    Raised when the stored fingerprint disagrees with the one computed
    from the config/plan/execution being run.  Resuming would splice
    samples from two different experiments; pass ``resume="force"``
    (CLI: ``--resume=force``) to discard the old ledger instead.
    """


@dataclass
class ResumeInfo:
    """What a :class:`MeasureCheckpoint` replayed from its ledger."""

    batches_done: int = 0
    doh: List[DohRaw] = field(default_factory=list)
    do53: List[Do53Raw] = field(default_factory=list)
    failures: List[NodeFailure] = field(default_factory=list)

    @property
    def samples_replayed(self) -> int:
        return len(self.doh) + len(self.do53)


class CampaignCheckpoint:
    """One checkpoint directory and its manifest."""

    VERSION = 1

    def __init__(self, directory: str, fingerprint: str,
                 manifest: Dict) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.manifest = manifest

    # -- creation / adoption ---------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        config,
        execution: Optional[Dict] = None,
        resume: str = "never",
        plan=None,
    ) -> "CampaignCheckpoint":
        """Create or adopt the checkpoint at *directory*.

        *plan* is the config's :class:`~repro.core.plan.WorldPlan` when
        the caller already derived it (see :func:`campaign_fingerprint`).

        *resume* is the CLI contract:

        * ``"never"`` (default) — a fresh campaign; an existing
          manifest raises :class:`CheckpointError` so two runs can
          never interleave by accident,
        * ``"auto"`` — resume an existing checkpoint (fingerprint must
          match, else :class:`CheckpointMismatchError`); absent one,
          start fresh,
        * ``"force"`` — discard whatever exists and start fresh.
        """
        if resume not in ("never", "auto", "force"):
            raise ValueError("resume must be 'never', 'auto' or 'force'")
        fingerprint = campaign_fingerprint(config, execution, plan)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        existing = cls._read_manifest(manifest_path)

        if existing is not None and resume == "never":
            raise CheckpointError(
                "checkpoint directory {!r} already holds a campaign "
                "(fingerprint {}); pass --resume to continue it or "
                "--resume=force to discard it".format(
                    directory, existing.get("fingerprint", "?")
                )
            )
        if existing is not None and resume == "force":
            cls._wipe(directory)
            existing = None
        if existing is not None:
            stored = existing.get("fingerprint")
            if existing.get("format") != FORMAT_VERSION:
                raise CheckpointMismatchError(
                    "cannot resume checkpoint {!r}: it was written in "
                    "checkpoint format {}, and this version reads format "
                    "{}; pass --resume=force to discard it and start "
                    "over.".format(
                        directory, existing.get("format"), FORMAT_VERSION
                    )
                )
            if stored != fingerprint:
                raise CheckpointMismatchError(
                    "cannot resume checkpoint {!r}: it was written for a "
                    "different campaign (stored fingerprint {}, this "
                    "campaign {}). The config, world plan, fault plan, "
                    "seeds, and execution shape must all match; pass "
                    "--resume=force to discard the old ledger.".format(
                        directory, stored, fingerprint
                    )
                )
            return cls(directory, fingerprint, existing)

        os.makedirs(directory, exist_ok=True)
        manifest = {
            "version": cls.VERSION,
            "format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "execution": execution or {},
            "status": "in-progress",
            "created_unix": int(time.time()),
            "runs": [],
            "lineage": [],
        }
        checkpoint = cls(directory, fingerprint, manifest)
        atomic_write_bytes(
            os.path.join(directory, CONFIG_NAME),
            seal(
                pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL),
                fingerprint, CONFIG_NAME,
            ),
        )
        checkpoint._write_manifest()
        return checkpoint

    @classmethod
    def load(cls, directory: str) -> "CampaignCheckpoint":
        """Adopt an existing checkpoint without fingerprint checking
        (inspection commands: status/verify/gc/extend)."""
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        manifest = cls._read_manifest(manifest_path)
        if manifest is None:
            raise CheckpointError(
                "no checkpoint manifest at {!r}".format(manifest_path)
            )
        return cls(directory, manifest.get("fingerprint", ""), manifest)

    def stored_config(self):
        """The exact config the checkpoint was created with."""
        path = os.path.join(self.directory, CONFIG_NAME)
        payload = load_unit_result(path, self.fingerprint)
        if payload is None:
            raise CheckpointCorruptionError(
                "{}: missing, or fails its seal (damaged, or written in "
                "a checkpoint format other than {})".format(
                    path, FORMAT_VERSION
                )
            )
        return pickle.loads(payload)

    @staticmethod
    def _read_manifest(path: str) -> Optional[Dict]:
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise CheckpointCorruptionError(
                "unreadable checkpoint manifest {!r}: {}".format(path, exc)
            )

    @staticmethod
    def _wipe(directory: str) -> None:
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if os.path.isfile(path) and (
                name == MANIFEST_NAME
                or name == CONFIG_NAME
                or name.endswith((".ledger", ".state", ".result", ".tmp"))
            ):
                os.remove(path)

    # -- paths ------------------------------------------------------------

    def manifest_path(self) -> str:
        """Path of the ``checkpoint.json`` manifest."""
        return os.path.join(self.directory, MANIFEST_NAME)

    def ledger_path(self, role: str) -> str:
        """Path of *role*'s sample ledger (``<role>.ledger``)."""
        return os.path.join(self.directory, role + ".ledger")

    def state_path(self, role: str) -> str:
        """Path of *role*'s world-state blob (``<role>.state``)."""
        return os.path.join(self.directory, role + ".state")

    def result_path(self, role: str) -> str:
        """Path of *role*'s finished-result blob (``<role>.result``)."""
        return os.path.join(self.directory, role + ".result")

    # -- manifest bookkeeping ---------------------------------------------

    def _write_manifest(self) -> None:
        atomic_write_json(
            self.manifest_path(), self.manifest,
            indent=2, sort_keys=True, trailing_newline=True,
        )

    def record_run(self, info: Dict) -> None:
        """Append one run's resume counters to the manifest."""
        entry = dict(info)
        entry["started_unix"] = int(time.time())
        self.manifest.setdefault("runs", []).append(entry)
        self._write_manifest()

    def mark_complete(self) -> None:
        """Flip the manifest status to ``complete`` (atomic rewrite)."""
        self.manifest["status"] = "complete"
        self._write_manifest()

    def add_lineage(self, entry: Dict) -> None:
        """Append one extension's provenance to the manifest lineage."""
        self.manifest.setdefault("lineage", []).append(dict(entry))
        self._write_manifest()

    # -- unit handles ------------------------------------------------------

    def measure_checkpoint(self, role: str) -> "MeasureCheckpoint":
        """A journal handle for one unit of measurement (see
        :class:`MeasureCheckpoint`)."""
        return MeasureCheckpoint(self.directory, role, self.fingerprint)

    # -- unit results (extension deltas) -----------------------------------

    def store_result(self, role: str, payload: bytes) -> None:
        """Persist a completed unit's result bytes, sealed (atomic)."""
        store_unit_result(self.result_path(role), self.fingerprint, payload)

    def load_result(self, role: str) -> Optional[bytes]:
        """A completed unit's result bytes, or ``None`` if absent or
        its seal fails."""
        return load_unit_result(self.result_path(role), self.fingerprint)


def seal(payload: bytes, fingerprint: str, name: str) -> bytes:
    """Wrap *payload* for the checkpoint file *name*.

    The seal is :data:`SEAL_MAGIC`, then a BLAKE2b checksum over the
    rest: the checkpoint format version, *fingerprint*, *name* and the
    payload.  Binding the file name means a blob copied over another
    file (a shard's ``.state`` over its ``.result``) fails to unseal.
    """
    head = _seal_head(fingerprint, name)
    digest = hashlib.blake2b(head, digest_size=_SEAL_DIGEST)
    digest.update(payload)
    return SEAL_MAGIC + digest.digest() + head + payload


def unseal(blob: bytes, fingerprint: str, name: str) -> Optional[bytes]:
    """The payload :func:`seal` wrapped, or ``None`` unless the magic,
    checksum, format, fingerprint and file name all verify."""
    start = len(SEAL_MAGIC) + _SEAL_DIGEST
    view = memoryview(blob)
    if view[:len(SEAL_MAGIC)] != SEAL_MAGIC:
        return None
    digest = hashlib.blake2b(view[start:], digest_size=_SEAL_DIGEST)
    if digest.digest() != view[len(SEAL_MAGIC):start]:
        return None
    head = _seal_head(fingerprint, name)
    if view[start:start + len(head)] != head:
        return None
    return bytes(view[start + len(head):])


def _seal_head(fingerprint: str, name: str) -> bytes:
    fingerprint_bytes = fingerprint.encode("utf-8")
    name_bytes = name.encode("utf-8")
    return _SEAL_HEAD.pack(
        FORMAT_VERSION, len(fingerprint_bytes), len(name_bytes)
    ) + fingerprint_bytes + name_bytes


def load_unit_result(path: str, fingerprint: str) -> Optional[bytes]:
    """The payload of the sealed blob at *path*; ``None`` when the file
    is absent or fails its seal (torn, damaged, stale or misplaced).

    Every sealed file is read here: unit results, and also ``.state``
    blobs and ``config.pkl``.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None
    return unseal(blob, fingerprint, os.path.basename(path))


def store_unit_result(path: str, fingerprint: str, payload: bytes) -> None:
    """Seal *payload* and atomically write it to *path* (workers know
    only paths, never the manifest).

    A sealed ``<role>.result`` supersedes the unit's ``<role>.state``,
    which is then removed: should the result later fail its seal, the
    unit is measured again from batch 0, the byte-safe path.
    """
    atomic_write_bytes(
        path, seal(payload, fingerprint, os.path.basename(path))
    )
    try:
        os.remove(os.path.splitext(path)[0] + ".state")
    except FileNotFoundError:
        pass


class MeasureCheckpoint:
    """Journal + state blob for one resumable measurement loop.

    Constructed from plain path components so worker processes can
    build one from a pickled task spec without touching the manifest.
    """

    def __init__(self, directory: str, role: str, fingerprint: str) -> None:
        self.directory = directory
        self.role = role
        self.fingerprint = fingerprint
        self.ledger_path = os.path.join(directory, role + ".ledger")
        self.state_path = os.path.join(directory, role + ".state")
        self._writer: Optional[LedgerWriter] = None
        self._batches_committed = 0
        self._next_seq = 0
        self._complete = False
        #: Batches replayed from the ledger by the last :meth:`prepare`
        #: (resume bookkeeping, surfaced in the campaign manifest).
        self.resumed_batches = 0

    # -- resume ------------------------------------------------------------

    def prepare(self, campaign) -> ResumeInfo:
        """Replay the ledger, restore state into *campaign*, and open
        the journal for appending.  Returns what was replayed."""
        load = read_ledger(self.ledger_path)
        info = ResumeInfo()
        fresh = load is None or not load.records
        if fresh and load is not None:
            # A file holding only a torn header: reset it entirely.
            LedgerReader.truncate_to(self.ledger_path, 0)
        if not fresh:
            info = self._reconcile(load, campaign)
        self._writer = LedgerWriter(
            self.ledger_path,
            next_seq=0 if fresh else self._next_seq,
        )
        if fresh:
            self._writer.append(
                "header",
                {
                    "fingerprint": self.fingerprint,
                    "role": self.role,
                    "format": FORMAT_VERSION,
                },
            )
        self._batches_committed = info.batches_done
        self.resumed_batches = info.batches_done
        return info

    def _reconcile(self, load, campaign) -> ResumeInfo:
        header = load.header
        if header is None:
            raise CheckpointCorruptionError(
                "{}: journal has no header record".format(self.ledger_path)
            )
        payload = header.payload
        if payload.get("format") != FORMAT_VERSION:
            raise CheckpointMismatchError(
                "{}: ledger written in checkpoint format {!r}, this "
                "version reads format {}".format(
                    self.ledger_path, payload.get("format"), FORMAT_VERSION
                )
            )
        if payload.get("fingerprint") != self.fingerprint or (
            payload.get("role") != self.role
        ):
            raise CheckpointMismatchError(
                "{}: journal belongs to a different campaign or unit "
                "(stored fingerprint {}, expected {})".format(
                    self.ledger_path,
                    payload.get("fingerprint"),
                    self.fingerprint,
                )
            )

        batches = [r for r in load.records if r.kind == "batch"]
        done_marker = any(r.kind == "done" for r in load.records)
        # The state blob covers its first ``batches_done`` batches.  Keep
        # that prefix of the journal; batches past it are a torn commit
        # (the crash hit between ledger append and state write) and get
        # truncated away.  A state with no blob, a failed seal, or more
        # batches than the journal holds (its last batch record was
        # damaged and dropped as a torn tail) cannot be trusted: the
        # unit starts over from batch 0, which is always byte-safe.
        state = self._load_state()
        if state is not None and state["batches_done"] > len(batches):
            state = None
        kept = batches[:state["batches_done"]] if state is not None else []
        complete = (
            done_marker and state is not None and len(kept) == len(batches)
        )
        keep_records = 1 + len(kept) + (1 if complete else 0)
        truncate_to = load.offsets[keep_records - 1]
        if truncate_to < load.clean_bytes or load.dropped_tail:
            LedgerReader.truncate_to(self.ledger_path, truncate_to)
        self._next_seq = keep_records
        self._complete = complete
        if not kept:
            return ResumeInfo()

        info = ResumeInfo(batches_done=len(kept))
        for record in kept:
            try:
                doh, do53, failures = unpack_samples(
                    base64.b64decode(record.payload, validate=True)
                )
            except (TypeError, ValueError) as exc:
                raise CheckpointCorruptionError(
                    "{}: batch record {} does not decode: {}".format(
                        self.ledger_path, record.seq, exc
                    )
                ) from None
            info.doh.extend(doh)
            info.do53.extend(do53)
            info.failures.extend(failures)
        self._restore(campaign, state)
        return info

    def _load_state(self) -> Optional[Dict]:
        """The state blob, or ``None`` when absent or its seal fails."""
        payload = load_unit_result(self.state_path, self.fingerprint)
        return None if payload is None else pickle.loads(payload)

    def _restore(self, campaign, state: Dict) -> None:
        restore_world_state(campaign.world, state["world"])
        saved = state["campaign"]
        campaign.client.rng.setstate(_rng_state(saved["client_rng"]))
        campaign.client._uuid_counter = saved["uuid_counter"]
        if campaign.obs is not None:
            if saved.get("metrics") is not None:
                campaign.obs.metrics.merge_snapshot(saved["metrics"])
            if saved.get("traces") is not None:
                campaign.obs.trace.merge_snapshot(saved["traces"])

    # -- commit ------------------------------------------------------------

    def commit_batch(self, campaign, batch_index: int,
                     doh: List[DohRaw], do53: List[Do53Raw],
                     failures: List[NodeFailure]) -> None:
        """Journal one measured batch (fsync'd), then snapshot the
        world state after it."""
        blob = pack_samples(doh, do53, failures)
        self._writer.append("batch", base64.b64encode(blob).decode("ascii"))
        self._batches_committed = batch_index + 1
        obs = campaign.obs
        state = {
            "batches_done": self._batches_committed,
            "world": capture_world_state(campaign.world),
            "campaign": {
                "client_rng": campaign.client.rng.getstate(),
                "uuid_counter": campaign.client._uuid_counter,
                "metrics": (
                    obs.metrics.snapshot() if obs is not None else None
                ),
                "traces": (
                    obs.trace.snapshot() if obs is not None else None
                ),
            },
        }
        atomic_write_bytes(
            self.state_path,
            seal(
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
                self.fingerprint, os.path.basename(self.state_path),
            ),
        )

    def finish(self) -> None:
        """Mark the unit complete (every batch is already committed)."""
        if self._complete:
            return  # replayed a finished journal; the marker is there
        self._writer.append("done", {"batches": self._batches_committed})
        self._complete = True

    def close(self) -> None:
        """Release the ledger file handle (safe to call twice)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
