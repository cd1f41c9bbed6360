"""The on-disk layout of a service directory, in one place.

Everything the supervisor, the CLI, the drills, and the tests touch
goes through these helpers — hand-built paths were how the original
resume drill and the supervisor could silently disagree about where a
checkpoint file lives.  Layout::

    <dir>/service.json              identity manifest (master seed,
                                    scale, epochs, shard count, ...)
    <dir>/journal.jsonl             crash journal (epoch boundaries,
                                    retries, shutdowns, quarantines)
    <dir>/dataset.json              accumulated dataset, updated
                                    atomically at epoch boundaries only
    <dir>/dataset.availability.json SLO/availability artifact
    <dir>/dataset.manifest.json     provenance manifest (repro.obs)
    <dir>/epochs/epoch-0000/        one campaign checkpoint per epoch
    <dir>/quarantine/               damaged checkpoints, moved aside
"""

from __future__ import annotations

import os
from typing import List

from repro.obs.manifest import sidecar_path

__all__ = [
    "availability_path",
    "checkpoint_manifest_path",
    "dataset_path",
    "epoch_dir",
    "epoch_dirs",
    "epochs_root",
    "journal_path",
    "manifest_sidecar_path",
    "quarantine_root",
    "service_manifest_path",
]

SERVICE_MANIFEST_NAME = "service.json"
JOURNAL_NAME = "journal.jsonl"
DATASET_NAME = "dataset.json"
EPOCHS_DIRNAME = "epochs"
QUARANTINE_DIRNAME = "quarantine"


def service_manifest_path(directory: str) -> str:
    """``<dir>/service.json`` — the service identity manifest."""
    return os.path.join(directory, SERVICE_MANIFEST_NAME)


def journal_path(directory: str) -> str:
    """``<dir>/journal.jsonl`` — the crash journal."""
    return os.path.join(directory, JOURNAL_NAME)


def dataset_path(directory: str) -> str:
    """``<dir>/dataset.json`` — the accumulated longitudinal dataset."""
    return os.path.join(directory, DATASET_NAME)


def availability_path(directory: str) -> str:
    """``<dir>/dataset.availability.json`` — the SLO artifact."""
    return sidecar_path(dataset_path(directory), "availability")


def manifest_sidecar_path(directory: str) -> str:
    """``<dir>/dataset.manifest.json`` — the provenance manifest."""
    return sidecar_path(dataset_path(directory), "manifest")


def epochs_root(directory: str) -> str:
    """``<dir>/epochs/`` — parent of every epoch checkpoint."""
    return os.path.join(directory, EPOCHS_DIRNAME)


def epoch_dir(directory: str, epoch: int) -> str:
    """``<dir>/epochs/epoch-0007/`` — epoch *epoch*'s checkpoint."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return os.path.join(
        epochs_root(directory), "epoch-{:04d}".format(epoch)
    )


def epoch_dirs(directory: str) -> List[str]:
    """Every existing epoch checkpoint directory, in epoch order."""
    root = epochs_root(directory)
    try:
        names = sorted(os.listdir(root))
    except FileNotFoundError:
        return []
    return [
        os.path.join(root, name)
        for name in names
        if name.startswith("epoch-")
        and os.path.isdir(os.path.join(root, name))
    ]


def quarantine_root(directory: str) -> str:
    """``<dir>/quarantine/`` — where damaged checkpoints are moved."""
    return os.path.join(directory, QUARANTINE_DIRNAME)


def checkpoint_manifest_path(checkpoint_dir: str) -> str:
    """``<ckpt>/checkpoint.json`` of one campaign checkpoint."""
    return os.path.join(checkpoint_dir, "checkpoint.json")
