"""Checkpoint health classification and quarantine.

Every file of a checkpoint that holds data is either written
atomically (the manifest) or sealed (``config.pkl``, each unit's
``.state`` or ``.result``), so a crash leaves the old file or the new
one, never a torn hybrid.  A file that does not read back clean was
therefore damaged at rest (bad disk, truncation by an outside tool,
manual editing), or belongs to another campaign or format: the
checkpoint is **stale**.  Resuming it would measure the damaged unit
again, which is byte-safe, but the longitudinal service
**quarantines** it instead: the whole directory is moved aside —
original bytes preserved, never overwritten — and the run stops with
a distinct exit code, so damage at rest is never silently absorbed.

:func:`verify_checkpoint_dir` performs the classification;
:func:`quarantine_checkpoint` performs the move.  ``repro ckpt
verify`` maps the classification onto process exit codes so shell
scripts and CI can branch on it (see docs/checkpointing.md).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import List

from repro.ckpt.checkpoint import (
    CONFIG_NAME,
    CampaignCheckpoint,
    CheckpointError,
    load_unit_result,
    load_unit_state,
)
from repro.ckpt.fingerprint import FORMAT_VERSION

__all__ = [
    "CheckpointHealth",
    "QUARANTINE_DIRNAME",
    "VERIFY_CLEAN",
    "VERIFY_STALE",
    "quarantine_checkpoint",
    "verify_checkpoint_dir",
]

#: Name of the holding area for quarantined checkpoints.
QUARANTINE_DIRNAME = "quarantine"

#: ``repro ckpt verify`` exit codes (documented contract; the service
#: and CI branch on them).
VERIFY_CLEAN = 0     # every file reads back clean
VERIFY_STALE = 1     # a damaged, foreign or older-format file


@dataclass
class CheckpointHealth:
    """Classification of one checkpoint directory."""

    directory: str
    #: Human-readable findings, one per inspected file.
    notes: List[str] = field(default_factory=list)
    #: Findings that make the checkpoint stale.
    problems: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``"clean"``, or ``"stale"`` once anything is a problem."""
        return "stale" if self.problems else "clean"

    @property
    def exit_code(self) -> int:
        return VERIFY_STALE if self.problems else VERIFY_CLEAN

    @property
    def resumable(self) -> bool:
        """Whether the service resumes the checkpoint rather than
        quarantining it."""
        return not self.problems


def verify_checkpoint_dir(directory: str) -> CheckpointHealth:
    """Check the manifest and the seal of every sealed file under
    *directory*.

    Classifies the checkpoint for the resume-vs-quarantine decision;
    never modifies anything.  A missing or unreadable manifest is a
    problem like any other.  Nested extension checkpoints are not
    descended into (verify them separately).
    """
    health = CheckpointHealth(directory=directory)
    try:
        checkpoint = CampaignCheckpoint.load(directory)
    except CheckpointError as exc:
        health.problems.append(str(exc))
        return health
    written = checkpoint.manifest.get("format")
    if written != FORMAT_VERSION:
        health.problems.append(
            "checkpoint format {} (this version reads format {})".format(
                written, FORMAT_VERSION))
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".state"):
            state = load_unit_state(path, checkpoint.fingerprint)
            note = None if state is None else (
                "{} committed batch(es)".format(len(state["batches"])))
        elif name.endswith(".result") or name == CONFIG_NAME:
            sealed = load_unit_result(path, checkpoint.fingerprint)
            note = None if sealed is None else "seal ok"
        else:
            continue
        if note is None:
            health.problems.append(
                "{}: fails its seal (damaged or stale)".format(name))
        else:
            health.notes.append("{}: {}".format(name, note))
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

