"""Corrupt checkpoints are quarantined — moved aside, never destroyed.

The acceptance drill: damage a byte mid-file in a committed epoch
result, resume, and the service must (a) refuse to run, exiting
``EXIT_QUARANTINE``, (b) preserve the damaged bytes untouched under
``quarantine/``, (c) journal what it did, and (d) complete normally
once the operator restores the pristine bytes — reproducing the
original dataset byte-for-byte.
"""

import glob
import json
import os
import shutil

import pytest

from repro.service import (
    EXIT_OK,
    EXIT_QUARANTINE,
    ServiceSupervisor,
)
from repro.service import paths as service_paths
from repro.service.journal import ServiceJournal

from tests.service.conftest import tiny_config


def corrupt_mid_file(path: str) -> bytes:
    """Flip one byte in the middle of *path*; returns pristine bytes."""
    with open(path, "rb") as handle:
        pristine = handle.read()
    offset = len(pristine) // 2
    flipped = bytes([pristine[offset] ^ 0x01])
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(flipped)
    return pristine


def first_result(checkpoint_dir: str) -> str:
    return sorted(glob.glob(os.path.join(checkpoint_dir, "*.result")))[0]


@pytest.fixture()
def finished(tmp_path):
    config = tiny_config(tmp_path / "svc")
    assert ServiceSupervisor(config).run(fresh=True) == EXIT_OK
    return config


def test_corrupt_epoch_is_quarantined_then_restorable(finished):
    directory = finished.directory
    with open(service_paths.dataset_path(directory), "rb") as handle:
        original_dataset = handle.read()

    epoch0 = service_paths.epoch_dir(directory, 0)
    result = first_result(epoch0)
    result_name = os.path.basename(result)
    pristine = corrupt_mid_file(result)
    with open(result, "rb") as handle:
        damaged = handle.read()
    assert damaged != pristine

    # Resume refuses the damaged epoch and moves it aside whole.
    assert ServiceSupervisor(finished).run(fresh=False) == (
        EXIT_QUARANTINE
    )
    assert not os.path.exists(epoch0), "damaged epoch must move aside"

    journal = ServiceJournal(
        service_paths.journal_path(directory), finished.fingerprint()
    )
    with journal:
        records = journal.events("quarantine")
    assert records and records[-1]["epoch"] == 0
    destination = records[-1]["moved_to"]
    assert os.path.isdir(destination)
    assert destination.startswith(
        service_paths.quarantine_root(directory)
    )

    # The damaged bytes are preserved exactly — quarantine never
    # rewrites or "repairs" evidence — alongside an operator note.
    with open(os.path.join(destination, result_name), "rb") as handle:
        assert handle.read() == damaged
    assert os.path.exists(
        os.path.join(destination, "QUARANTINE.txt")
    )
    with open(
        service_paths.service_manifest_path(directory)
    ) as handle:
        assert json.load(handle)["status"] == "quarantined"

    # A second resume without intervention quarantines nothing new
    # (the epoch dir is gone, so the service would re-measure) — here
    # the operator restores the pristine bytes instead.
    shutil.copytree(destination, epoch0)
    os.remove(os.path.join(epoch0, "QUARANTINE.txt"))
    with open(os.path.join(epoch0, result_name), "wb") as handle:
        handle.write(pristine)

    assert ServiceSupervisor(finished).run(fresh=False) == EXIT_OK
    with open(service_paths.dataset_path(directory), "rb") as handle:
        assert handle.read() == original_dataset


def test_resume_after_quarantine_remeasures_from_scratch(finished):
    # The alternative operator path: accept the loss, let the service
    # re-measure the quarantined epoch. Determinism makes the outcome
    # identical anyway.
    directory = finished.directory
    with open(service_paths.dataset_path(directory), "rb") as handle:
        original_dataset = handle.read()

    epoch0 = service_paths.epoch_dir(directory, 0)
    corrupt_mid_file(first_result(epoch0))
    assert ServiceSupervisor(finished).run(fresh=False) == (
        EXIT_QUARANTINE
    )
    assert not os.path.exists(epoch0)

    assert ServiceSupervisor(finished).run(fresh=False) == EXIT_OK
    with open(service_paths.dataset_path(directory), "rb") as handle:
        assert handle.read() == original_dataset


def test_unreadable_manifest_is_quarantined(finished):
    # Manifests are written atomically, so a cut one is damage at rest.
    epoch1 = service_paths.epoch_dir(finished.directory, 1)
    manifest = service_paths.checkpoint_manifest_path(epoch1)
    with open(manifest, "r+b") as handle:
        handle.truncate(os.path.getsize(manifest) // 2)

    assert ServiceSupervisor(finished).run(fresh=False) == (
        EXIT_QUARANTINE
    )
    assert not os.path.exists(epoch1)
    journal = ServiceJournal(
        service_paths.journal_path(finished.directory),
        finished.fingerprint(),
    )
    with journal:
        records = journal.events("quarantine")
    assert [record["epoch"] for record in records] == [1]
    assert "unreadable checkpoint manifest" in records[0]["reason"]
    with open(
        service_paths.service_manifest_path(finished.directory)
    ) as handle:
        assert json.load(handle)["status"] == "quarantined"
