"""Checkpointed, resumable, and incremental campaigns.

The paper's dataset took weeks of paid measurements; a crash must not
discard completed work.  This package provides:

* :mod:`repro.ckpt.ledger` — an append-only, checksummed sample
  journal (one file per shard) with fsync'd record batches and
  truncated-tail recovery,
* :mod:`repro.ckpt.worldstate` — snapshot/restore of every piece of
  mutable simulation state, the mechanism behind the byte-identity
  guarantee (resumed runs equal uninterrupted runs, bit for bit),
* :mod:`repro.ckpt.fingerprint` — a campaign fingerprint hashing the
  config, world plan, fault plan, and client seeds, so a ledger can
  never silently be resumed against different code-relevant inputs,
* :mod:`repro.ckpt.checkpoint` — the :class:`CampaignCheckpoint`
  directory layout, manifest, sealed (checksummed) blobs, and resume
  bookkeeping,
* :mod:`repro.ckpt.extend` — incremental campaigns: grow a finished
  checkpoint with new providers, more runs, or more nodes, computing
  only the delta and merging deterministically,
* :mod:`repro.ckpt.quarantine` — checkpoint health classification
  (clean / stale / torn / corrupt, with distinct ``ckpt verify`` exit
  codes) and the quarantine move used by the longitudinal service:
  damaged checkpoints are set aside with their bytes intact, never
  overwritten.

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
from repro.ckpt.ledger import LedgerReader, LedgerWriter
from repro.ckpt.quarantine import (
    VERIFY_CLEAN,
    VERIFY_CORRUPT,
    VERIFY_STALE,
    VERIFY_TORN,
    CheckpointHealth,
    latest_quarantine_entry,
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
    "LedgerReader",
    "LedgerWriter",
    "MeasureCheckpoint",
    "VERIFY_CLEAN",
    "VERIFY_CORRUPT",
    "VERIFY_STALE",
    "VERIFY_TORN",
    "campaign_fingerprint",
    "extend_campaign",
    "latest_quarantine_entry",
    "plan_extension",
    "quarantine_checkpoint",
    "verify_checkpoint_dir",
]
