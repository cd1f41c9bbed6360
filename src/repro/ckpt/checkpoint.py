"""Checkpoint directories, manifests, and the resume protocol.

Layout of a checkpoint directory::

    <dir>/checkpoint.json     manifest: fingerprint, execution shape,
                              per-run resume counters, lineage
    <dir>/config.pkl          sealed pickle of the exact ReproConfig
                              (for ckpt extend)
    <dir>/<role>.state        sealed pickle of an unfinished unit
                              (roles: "shard-<k>", "delta"): every
                              committed batch's samples, one wirepack
                              blob each (:mod:`repro.parallel.wirepack`),
                              and the world+campaign mutable state
                              after the last of them
    <dir>/<role>.result       sealed wirepack result of a finished
                              shard, Atlas or extension delta; it
                              replaces the unit's ``.state``
    <dir>/ext-<n>/            nested checkpoint of extension n

Every blob file is *sealed* (:func:`seal`): a magic number and a
BLAKE2b checksum over the format version, the campaign fingerprint,
the file name and the payload.  A blob is decoded only after its seal
verifies; one that fails is treated as absent, so its unit is measured
again from batch 0, which is always byte-safe.

Commit protocol: each batch atomically replaces the unit's ``.state``
with one sealed pickle, so a crash leaves either the old file or the
new one and a unit is one file at any moment.  Resume restores the
world from it and measures only the remaining batches, producing the
exact RNG draw sequence of an uninterrupted run (see
:mod:`repro.ckpt.worldstate`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ckpt.fingerprint import FORMAT_VERSION, campaign_fingerprint
from repro.ckpt.ledger import CheckpointCorruptionError, CheckpointError
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


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was written by a different campaign definition.

    Raised when the stored fingerprint disagrees with the one computed
    from the config/plan/execution being run.  Resuming would splice
    samples from two different experiments; pass ``resume="force"``
    (CLI: ``--resume=force``) to discard the old checkpoint instead.
    """


@dataclass
class ResumeInfo:
    """What a :class:`MeasureCheckpoint` replayed from its ``.state``."""

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
                    "--resume=force to discard the old checkpoint."
                    .format(directory, stored, fingerprint)
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
            # ``.ledger``: the per-unit sample journals of format 2.
            if os.path.isfile(path) and (
                name == MANIFEST_NAME
                or name == CONFIG_NAME
                or name.endswith((".ledger", ".state", ".result", ".tmp"))
            ):
                os.remove(path)

    # -- manifest bookkeeping ---------------------------------------------

    def _write_manifest(self) -> None:
        atomic_write_json(
            os.path.join(self.directory, MANIFEST_NAME), self.manifest,
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


def load_unit_state(path: str, fingerprint: str) -> Optional[Dict]:
    """The committed state of an unfinished unit: ``batches`` (one
    wirepack blob per committed batch), ``world`` and ``campaign``.
    ``None`` when the ``.state`` at *path* is absent or fails its seal.
    """
    payload = load_unit_result(path, fingerprint)
    return None if payload is None else pickle.loads(payload)


def committed_batches(directory: str) -> int:
    """Batches committed by the unfinished units of the checkpoint at
    *directory*: what a resume would replay.  0 before its manifest
    exists."""
    try:
        fingerprint = CampaignCheckpoint.load(directory).fingerprint
    except CheckpointError:
        return 0
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".state"):
            state = load_unit_state(
                os.path.join(directory, name), fingerprint
            )
            total += 0 if state is None else len(state["batches"])
    return total


class MeasureCheckpoint:
    """The sealed ``<role>.state`` file of one resumable measurement
    loop.

    Constructed from plain path components so worker processes can
    build one from a pickled task spec without touching the manifest.
    """

    def __init__(self, directory: str, role: str, fingerprint: str) -> None:
        self.role = role
        self.fingerprint = fingerprint
        self.state_path = os.path.join(directory, role + ".state")
        #: One wirepack blob per committed batch, rewritten whole into
        #: the ``.state`` at every commit.
        self._batches: List[bytes] = []
        #: Batches replayed from the ``.state`` by the last
        #: :meth:`prepare` (resume bookkeeping, surfaced in the
        #: campaign manifest).
        self.resumed_batches = 0

    # -- resume ------------------------------------------------------------

    def prepare(self, campaign) -> ResumeInfo:
        """Restore *campaign* from the unit's ``.state`` and return the
        samples of every committed batch; a missing ``.state``, or one
        that fails its seal, starts the unit at batch 0."""
        state = load_unit_state(self.state_path, self.fingerprint)
        self._batches = [] if state is None else state["batches"]
        self.resumed_batches = len(self._batches)
        info = ResumeInfo(batches_done=len(self._batches))
        for blob in self._batches:
            doh, do53, failures = unpack_samples(blob)
            info.doh.extend(doh)
            info.do53.extend(do53)
            info.failures.extend(failures)
        if state is not None:
            self._restore(campaign, state)
        return info

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

    def commit_batch(self, campaign, doh: List[DohRaw], do53: List[Do53Raw],
                     failures: List[NodeFailure]) -> None:
        """Commit the batch just measured: atomically replace the
        ``.state`` with every committed batch's samples and the world
        state after this one."""
        self._batches.append(pack_samples(doh, do53, failures))
        obs = campaign.obs
        state = {
            "batches": self._batches,
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
