"""Checkpointed, resumable, and incremental campaigns.

The paper's dataset took weeks of paid measurements; a crash must not
discard completed work.  This package provides:

* :mod:`repro.ckpt.checkpoint` — the :class:`CampaignCheckpoint`
  directory layout and manifest, sealed (checksummed) blobs, and
  :class:`MeasureCheckpoint`: each unit of batched work is one sealed
  file at any moment, its ``.state`` (every committed batch's samples
  plus the world state after the last) replaced atomically per batch
  until its ``.result`` supersedes it,
* :mod:`repro.ckpt.worldstate` — snapshot/restore of every piece of
  mutable simulation state, the mechanism behind the byte-identity
  guarantee (resumed runs equal uninterrupted runs, bit for bit),
* :mod:`repro.ckpt.fingerprint` — a campaign fingerprint hashing the
  config, world plan, fault plan, and client seeds, so a checkpoint
  can never silently be resumed against different code-relevant
  inputs,
* :mod:`repro.ckpt.extend` — incremental campaigns: grow a finished
  checkpoint with new providers, more runs, or more nodes, computing
  only the delta and merging deterministically,
* :mod:`repro.ckpt.quarantine` — checkpoint health classification
  (clean / stale, the ``ckpt verify`` exit codes) and the quarantine
  move used by the longitudinal service: damaged checkpoints are set
  aside with their bytes intact, never overwritten,
* :mod:`repro.ckpt.ledger` — the append-only, checksummed, fsync'd
  record format of the service's crash journal
  (:mod:`repro.service.journal`).

See docs/checkpointing.md for the format and guarantees.
"""

from repro.ckpt.checkpoint import (
    CampaignCheckpoint,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    MeasureCheckpoint,
)
from repro.ckpt.extend import ExtendResult, extend_campaign, plan_extension
from repro.ckpt.fingerprint import campaign_fingerprint
from repro.ckpt.ledger import LedgerWriter
from repro.ckpt.quarantine import (
    VERIFY_CLEAN,
    VERIFY_STALE,
    CheckpointHealth,
    quarantine_checkpoint,
    verify_checkpoint_dir,
)

__all__ = [
    "CampaignCheckpoint",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointHealth",
    "CheckpointMismatchError",
    "ExtendResult",
    "LedgerWriter",
    "MeasureCheckpoint",
    "VERIFY_CLEAN",
    "VERIFY_STALE",
    "campaign_fingerprint",
    "extend_campaign",
    "plan_extension",
    "quarantine_checkpoint",
    "verify_checkpoint_dir",
]
