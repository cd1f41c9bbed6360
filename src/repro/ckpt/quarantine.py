"""Checkpoint health classification and quarantine.

A long-running service cannot treat every damaged checkpoint the same
way.  The ledger format distinguishes two failure modes
(:mod:`repro.ckpt.ledger`), and the service acts on the distinction:

* **torn tail** — the final record is partial or fails its checksum:
  the signature of a crash mid-append.  Safe to resume; the reader
  truncates back to the clean prefix and at most one batch interval of
  work is re-measured.
* **mid-file corruption** — a record *before* the end fails
  verification: the file was damaged at rest (bad disk, truncation by
  an outside tool, manual editing).  Resuming would silently splice a
  hole into the dataset, so the service **quarantines** the checkpoint:
  the whole directory is moved aside — original bytes preserved, never
  overwritten — and the run stops with a distinct exit code.

:func:`verify_checkpoint_dir` performs the classification;
:func:`quarantine_checkpoint` performs the move.  ``repro ckpt
verify`` maps the classification onto distinct process exit codes so
shell scripts and CI can branch on "safe to resume" vs "quarantine"
(see docs/checkpointing.md).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional

from repro.ckpt.checkpoint import (
    CONFIG_NAME,
    CampaignCheckpoint,
    load_unit_result,
)
from repro.ckpt.fingerprint import FORMAT_VERSION
from repro.ckpt.ledger import CheckpointCorruptionError, read_ledger

__all__ = [
    "CheckpointHealth",
    "QUARANTINE_DIRNAME",
    "VERIFY_CLEAN",
    "VERIFY_CORRUPT",
    "VERIFY_STALE",
    "VERIFY_TORN",
    "quarantine_checkpoint",
    "verify_checkpoint_dir",
]

#: Name of the holding area for quarantined checkpoints.
QUARANTINE_DIRNAME = "quarantine"

#: ``repro ckpt verify`` exit codes (documented contract; the service
#: and CI branch on them).  Higher codes are strictly worse.
VERIFY_CLEAN = 0     # every ledger checksums clean end to end
VERIFY_STALE = 1     # structural problems (fingerprint drift, stale blobs)
VERIFY_TORN = 2      # a crash-torn tail only: safe to resume
VERIFY_CORRUPT = 3   # mid-file corruption: quarantine, never resume


@dataclass
class CheckpointHealth:
    """Classification of one checkpoint directory."""

    directory: str
    #: One of "clean", "stale", "torn", "corrupt", strictly worsening.
    status: str = "clean"
    #: Human-readable findings, one per inspected file.
    notes: List[str] = field(default_factory=list)
    #: Findings that made the status non-clean.
    problems: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return {
            "clean": VERIFY_CLEAN,
            "stale": VERIFY_STALE,
            "torn": VERIFY_TORN,
            "corrupt": VERIFY_CORRUPT,
        }[self.status]

    @property
    def resumable(self) -> bool:
        """Whether ``--resume auto`` is safe (never after corruption)."""
        return self.status in ("clean", "torn")

    def _worsen(self, status: str) -> None:
        order = ("clean", "stale", "torn", "corrupt")
        if order.index(status) > order.index(self.status):
            self.status = status


def verify_checkpoint_dir(directory: str) -> CheckpointHealth:
    """Checksum-verify every ledger and sealed blob under *directory*.

    Classifies the checkpoint for the resume-vs-quarantine decision;
    never modifies anything.  Nested extension checkpoints are not
    descended into (verify them separately).
    """
    health = CheckpointHealth(directory=directory)
    checkpoint = CampaignCheckpoint.load(directory)  # raises if no manifest
    written = checkpoint.manifest.get("format")
    if written != FORMAT_VERSION:
        health._worsen("stale")
        health.problems.append(
            "checkpoint format {} (this version reads format {})".format(
                written, FORMAT_VERSION))
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".ledger"):
            try:
                load = read_ledger(path)
            except CheckpointCorruptionError as exc:
                health._worsen("corrupt")
                health.problems.append("{}: {}".format(name, exc))
                continue
            header = load.header.payload if load.header else {}
            if load.records and (
                header.get("fingerprint") != checkpoint.fingerprint
            ):
                health._worsen("stale")
                health.problems.append(
                    "{}: fingerprint {} does not match the manifest's "
                    "{}".format(name, header.get("fingerprint"),
                                checkpoint.fingerprint))
                continue
            batches = sum(
                1 for record in load.records if record.kind == "batch")
            done = any(record.kind == "done" for record in load.records)
            if load.dropped_tail:
                health._worsen("torn")
                health.problems.append(
                    "{}: torn tail record dropped (crash mid-append; "
                    "safe to resume)".format(name))
            health.notes.append("{}: {} batch record(s), {}".format(
                name, batches, "complete" if done else "in progress"))
        elif name.endswith((".result", ".state")) or name == CONFIG_NAME:
            if load_unit_result(path, checkpoint.fingerprint) is None:
                health._worsen("stale")
                health.problems.append(
                    "{}: blob fails its seal (damaged or stale)".format(
                        name))
            else:
                health.notes.append("{}: seal ok".format(name))
    return health


def quarantine_checkpoint(
    directory: str, quarantine_root: str, reason: str = ""
) -> str:
    """Move the checkpoint at *directory* into *quarantine_root*.

    The original bytes are preserved exactly — the directory is renamed
    (or copied across filesystems by :func:`shutil.move`), never
    merged: if the destination name is taken, a numeric suffix is
    appended until a fresh one is found.  A ``QUARANTINE.txt`` note
    recording *reason* is dropped inside.  Returns the destination.
    """
    os.makedirs(quarantine_root, exist_ok=True)
    base = os.path.basename(os.path.normpath(directory))
    destination = os.path.join(quarantine_root, base)
    suffix = 0
    while os.path.exists(destination):
        suffix += 1
        destination = os.path.join(
            quarantine_root, "{}-{}".format(base, suffix)
        )
    shutil.move(directory, destination)
    note = os.path.join(destination, "QUARANTINE.txt")
    try:
        with open(note, "w") as handle:
            handle.write(
                "quarantined checkpoint (moved from {!r})\n"
                "reason: {}\n"
                "Restore the original files to resume; nothing here is "
                "deleted automatically.\n".format(directory, reason)
            )
    except OSError:
        pass  # the move itself is the safety property; the note is aid
    return destination


def latest_quarantine_entry(quarantine_root: str) -> Optional[str]:
    """The most recently created entry under *quarantine_root*."""
    try:
        names = os.listdir(quarantine_root)
    except FileNotFoundError:
        return None
    if not names:
        return None
    paths = [os.path.join(quarantine_root, name) for name in sorted(names)]
    return max(paths, key=lambda p: os.path.getmtime(p))
