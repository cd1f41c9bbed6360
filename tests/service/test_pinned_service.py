"""The benchmark's ``service-chaos`` command line against its pins.

The one pinned workload that writes checkpoints: its dataset and
availability bytes are recorded in ``perfbench/pins.json``, so the
checkpoint format is held to recorded bytes, not just to another run.
A finished service then replays every epoch from its ``.result``
files.
"""

import glob
import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.service import EXIT_OK
from repro.service import paths as service_paths

PINS = os.path.join(
    os.path.dirname(__file__), "..", "..", "perfbench", "pins.json"
)
MASTER_SEED = "20210402"


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.blake2b(handle.read(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("pinned") / "svc")
    assert main([
        "service", "run", directory, "--master-seed", MASTER_SEED,
        "--scale", "0.005", "--epochs", "3", "--runs-per-epoch", "1",
        "--shards", "2", "--batch-size", "40", "--workers", "1",
        "--provider", "cloudflare",
    ]) == EXIT_OK
    return directory


def test_outputs_match_the_pins(service):
    with open(PINS) as handle:
        pinned = json.load(handle)["service-chaos"][MASTER_SEED]
    assert file_digest(service_paths.dataset_path(service)) == (
        pinned["dataset"])
    assert file_digest(service_paths.availability_path(service)) == (
        pinned["availability"])


def test_finished_epochs_hold_only_manifest_config_and_results(service):
    root = service_paths.epochs_root(service)
    assert not glob.glob(os.path.join(root, "**", "*.ledger"),
                         recursive=True)
    for directory in service_paths.epoch_dirs(service):
        names = sorted(os.listdir(directory))
        assert names[:2] == ["checkpoint.json", "config.pkl"]
        assert names[2:] and all(
            name.endswith(".result") for name in names[2:])


def test_resume_of_the_finished_service_replays(service):
    with open(service_paths.dataset_path(service), "rb") as handle:
        published = handle.read()
    assert main(["service", "resume", service, "--workers", "1"]) == (
        EXIT_OK)
    with open(service_paths.dataset_path(service), "rb") as handle:
        assert handle.read() == published
