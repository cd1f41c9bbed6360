"""Checkpoint directories, manifests, and the resume protocol.

Layout of a checkpoint directory::

    <dir>/checkpoint.json     manifest: fingerprint, execution shape,
                              per-run resume counters, lineage
    <dir>/config.pkl          the exact ReproConfig (for ckpt extend)
    <dir>/<role>.ledger       sample journal per unit of work
                              (roles: "serial", "shard-<k>", "ext-...")
    <dir>/<role>.state        pickled world+campaign mutable state at
                              the last committed batch boundary
    <dir>/<role>.result       pickled final unit result (shards/Atlas)
    <dir>/ext-<n>/            nested checkpoint of extension n

Commit protocol per batch: append the batch's raw samples to the
ledger (fsync), then atomically replace the state blob.  A crash
between the two leaves the ledger one batch ahead of the state; resume
reconciles by truncating the ledger back to the state's watermark — at
most one batch interval of work is re-measured, and re-measuring is
always byte-safe because the restored state replays the exact RNG draw
sequence of an uninterrupted run (see :mod:`repro.ckpt.worldstate`).
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ckpt import records as codecs
from repro.ckpt.fingerprint import FORMAT_VERSION, campaign_fingerprint
from repro.ckpt.ledger import (
    CheckpointCorruptionError,
    LedgerReader,
    LedgerWriter,
    read_ledger,
)
from repro.ckpt.worldstate import capture_world_state, restore_world_state
from repro.core.campaign import NodeFailure
from repro.core.timeline import Do53Raw, DohRaw
from repro.faults.plan import WORKER_CRASH_EXIT  # noqa: F401  (re-export)
from repro.ioutil import atomic_write_bytes, atomic_write_json

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
    complete: bool = False
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
            pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL),
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
        with open(os.path.join(self.directory, CONFIG_NAME), "rb") as handle:
            return pickle.load(handle)

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

    def measure_checkpoint(self, role: str,
                           interval: int = 1) -> "MeasureCheckpoint":
        """A journal handle for one unit of measurement (see
        :class:`MeasureCheckpoint`); *interval* batches per state
        commit."""
        return MeasureCheckpoint(
            self.directory, role, self.fingerprint, interval=interval
        )

    # -- unit results (shards / Atlas) ------------------------------------

    def store_result(self, role: str, result) -> None:
        """Persist a completed unit's final result (atomic)."""
        atomic_write_bytes(
            self.result_path(role),
            pickle.dumps(
                {"fingerprint": self.fingerprint, "role": role,
                 "result": result},
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )

    def load_result(self, role: str):
        """A completed unit's result, or ``None`` if absent/unusable."""
        return load_unit_result(
            self.result_path(role), self.fingerprint, role
        )


def load_unit_result(path: str, fingerprint: str, role: str):
    """Load a ``<role>.result`` blob; ``None`` when absent or stale."""
    try:
        with open(path, "rb") as handle:
            blob = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception:
        return None  # torn/corrupt blob: treat as absent, re-measure
    if blob.get("fingerprint") != fingerprint or blob.get("role") != role:
        return None
    return blob["result"]


def store_unit_result(path: str, fingerprint: str, role: str,
                      result) -> None:
    """Worker-side counterpart of :meth:`CampaignCheckpoint.store_result`
    (workers know only paths, never the manifest)."""
    atomic_write_bytes(
        path,
        pickle.dumps(
            {"fingerprint": fingerprint, "role": role, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )


class MeasureCheckpoint:
    """Journal + state blob for one resumable measurement loop.

    Constructed from plain path components so worker processes can
    build one from a pickled task spec without touching the manifest.
    """

    def __init__(self, directory: str, role: str, fingerprint: str,
                 interval: int = 1) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.directory = directory
        self.role = role
        self.fingerprint = fingerprint
        self.interval = interval
        self.ledger_path = os.path.join(directory, role + ".ledger")
        self.state_path = os.path.join(directory, role + ".state")
        self._writer: Optional[LedgerWriter] = None
        # Batches measured since the last ledger commit (interval > 1).
        self._pending: List[Dict] = []
        self._pending_through = -1
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
        if payload.get("format") != FORMAT_VERSION:
            raise CheckpointMismatchError(
                "{}: unsupported ledger format {!r}".format(
                    self.ledger_path, payload.get("format")
                )
            )

        state = self._load_state()
        state_batches = 0 if state is None else state["batches_done"]

        batch_records = [r for r in load.records if r.kind == "batch"]
        done_marker = any(r.kind == "done" for r in load.records)

        # Keep the longest prefix both the journal and the state blob
        # agree on; everything past it is a torn commit (at most one
        # batch interval, lost in the crash) and gets truncated away.
        kept = []
        keep_batches = 0
        for record in batch_records:
            through = record.payload["through"]
            if through + 1 > state_batches:
                break
            kept.append(record)
            keep_batches = through + 1
        complete = (
            done_marker and state is not None and kept == batch_records
        )
        keep_records = 1 + len(kept) + (1 if complete else 0)
        truncate_to = load.offsets[keep_records - 1]
        if truncate_to < load.clean_bytes or load.dropped_tail:
            LedgerReader.truncate_to(self.ledger_path, truncate_to)
        self._next_seq = keep_records
        self._complete = complete

        if keep_batches == 0:
            # Journal present but nothing usable (state blob lost):
            # start over from scratch — always byte-safe.
            return ResumeInfo()

        info = ResumeInfo(batches_done=keep_batches, complete=complete)
        for record in kept:
            info.doh.extend(
                codecs.doh_from_json(item) for item in record.payload["doh"]
            )
            info.do53.extend(
                codecs.do53_from_json(item)
                for item in record.payload["do53"]
            )
            info.failures.extend(
                codecs.failure_from_json(item)
                for item in record.payload["fail"]
            )
        self._restore(campaign, state)
        return info

    def _load_state(self) -> Optional[Dict]:
        try:
            with open(self.state_path, "rb") as handle:
                blob = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            return None  # torn state blob: fall back to the journal
        if blob.get("fingerprint") != self.fingerprint:
            return None
        return blob

    def _restore(self, campaign, state: Dict) -> None:
        restore_world_state(campaign.world, state["world"])
        saved = state["campaign"]
        campaign.client.rng.setstate(_rng_tuple(saved["client_rng"]))
        campaign.client._uuid_counter = saved["uuid_counter"]
        if campaign.obs is not None:
            if saved.get("metrics") is not None:
                campaign.obs.metrics.merge_snapshot(saved["metrics"])
            if saved.get("traces") is not None:
                campaign.obs.trace.merge_snapshot(saved["traces"])

    # -- commit ------------------------------------------------------------

    def commit_batch(self, campaign, batch_index: int,
                     doh: List[DohRaw], do53: List[Do53Raw],
                     failures: List[NodeFailure],
                     force: bool = False) -> None:
        """Buffer one measured batch; journal + snapshot state every
        ``interval`` batches (or when *force* flushes the tail)."""
        self._pending.append(
            {
                "doh": [codecs.doh_to_json(raw) for raw in doh],
                "do53": [codecs.do53_to_json(raw) for raw in do53],
                "fail": [codecs.failure_to_json(f) for f in failures],
            }
        )
        self._pending_through = batch_index
        if len(self._pending) >= self.interval or force:
            self._flush(campaign)

    def _flush(self, campaign) -> None:
        if not self._pending:
            return
        payload = {
            "through": self._pending_through,
            "batches": len(self._pending),
            "doh": [item for p in self._pending for item in p["doh"]],
            "do53": [item for p in self._pending for item in p["do53"]],
            "fail": [item for p in self._pending for item in p["fail"]],
        }
        self._writer.append("batch", payload)
        self._pending = []
        self._batches_committed = self._pending_through + 1
        self._write_state(campaign)

    def _write_state(self, campaign) -> None:
        obs = campaign.obs
        state = {
            "fingerprint": self.fingerprint,
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
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def finish(self, campaign) -> None:
        """Flush any buffered batches and mark the unit complete."""
        if self._complete:
            return  # replayed a finished journal; the marker is there
        self._flush(campaign)
        self._writer.append("done", {"batches": self._batches_committed})
        self._complete = True

    def close(self) -> None:
        """Release the ledger file handle (safe to call twice)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def _rng_tuple(saved):
    kind, internal, gauss = saved
    return (kind, tuple(internal), gauss)
