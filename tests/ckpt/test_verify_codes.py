"""``repro ckpt verify`` exit codes: clean/stale.

The documented contract (docs/checkpointing.md): 0 = every file reads
back clean, 1 = stale (a missing or unreadable manifest, an older
format, or a sealed file that fails its seal).  The service
supervisor and CI scripts branch on these codes, so they are pinned
here end to end through the CLI, together with ``ckpt status`` and
``ckpt gc``, which name a missing or unreadable manifest and exit 1.
"""

import os
import shutil

import pytest

from repro.ckpt import VERIFY_CLEAN, VERIFY_STALE, verify_checkpoint_dir
from repro.ckpt.checkpoint import store_unit_result
from repro.cli import main
from repro.core.config import ReproConfig
from repro.parallel.executor import run_parallel_campaign
from repro.proxy.population import PopulationConfig


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    """One small committed sharded checkpoint, copied per test."""
    directory = str(tmp_path_factory.mktemp("ckpt") / "clean")
    config = ReproConfig(
        seed=424,
        population=PopulationConfig(scale=0.004),
        batch_size=10,
    )
    run_parallel_campaign(
        config, workers=1, num_shards=2, atlas_probes_per_country=0,
        checkpoint_dir=directory, resume="auto",
    )
    return directory


@pytest.fixture()
def checkpoint(clean_checkpoint, tmp_path):
    copy = str(tmp_path / "ckpt")
    shutil.copytree(clean_checkpoint, copy)
    return copy


def test_clean_checkpoint_exits_zero(checkpoint):
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_CLEAN
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "clean"
    assert health.resumable
    assert not health.problems


def test_foreign_fingerprint_exits_one(checkpoint):
    store_unit_result(
        os.path.join(checkpoint, "zz-foreign.result"), "0" * 32, b"x"
    )
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_STALE
    health = verify_checkpoint_dir(checkpoint)
    assert health.status == "stale"
    assert not health.resumable


def _cut_manifest(checkpoint):
    # Manifests are written atomically: a cut one is damage at rest.
    path = os.path.join(checkpoint, "checkpoint.json")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def test_unreadable_manifest_exits_one(checkpoint, capsys):
    _cut_manifest(checkpoint)
    assert main(["ckpt", "verify", checkpoint]) == VERIFY_STALE
    assert "PROBLEM: unreadable checkpoint manifest" in (
        capsys.readouterr().out)
    assert not verify_checkpoint_dir(checkpoint).resumable


def test_missing_directory_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    assert main(["ckpt", "verify", missing]) == VERIFY_STALE
    assert "PROBLEM: no checkpoint manifest" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["status", "gc"])
def test_unreadable_manifest_is_named(checkpoint, capsys, command):
    _cut_manifest(checkpoint)
    assert main(["ckpt", command, checkpoint]) == 1
    assert "repro ckpt {}: error: unreadable checkpoint manifest".format(
        command) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["status", "gc"])
def test_missing_directory_is_named(tmp_path, capsys, command):
    missing = str(tmp_path / "absent")
    assert main(["ckpt", command, missing]) == 1
    assert "repro ckpt {}: error: no checkpoint manifest".format(
        command) in capsys.readouterr().err
