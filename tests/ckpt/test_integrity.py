"""Damaged checkpoint files never turn into a different dataset.

Every blob in a checkpoint is sealed (magic, BLAKE2b checksum,
format, fingerprint, file name).  A blob that fails its seal is
treated as absent, so its unit is measured again from batch 0, which
is byte-safe, and ``ckpt verify`` reports it as stale.  Each
end-to-end case below damages one file of a checkpoint, resumes, and
requires the bytes of an undamaged run.
"""

import json
import os
import shutil
import struct

import pytest

from repro.ckpt import (
    VERIFY_CLEAN,
    VERIFY_STALE,
    CampaignCheckpoint,
    CheckpointCorruptionError,
    CheckpointMismatchError,
    extend_campaign,
)
from repro.ckpt.checkpoint import (
    load_unit_result,
    load_unit_state,
    store_unit_result,
)
from repro.cli import main
from repro.core.campaign import NodeFailure
from repro.core.config import ReproConfig
from repro.dataset.store import Dataset
from repro.faults.plan import WORKER_CRASH_EXIT
from repro.parallel import ShardResult, run_parallel_campaign
from repro.parallel.wirepack import pack_shard_result, unpack_shard_result
from repro.proxy.population import PopulationConfig

from tests.ckpt.conftest import read_manifest

FINGERPRINT = "0123456789abcdef" * 2 + "01234567"


def flip_bit(path, offset: int, bit: int = 0) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << bit)]))


class TestSealProperties:
    @pytest.fixture()
    def sealed(self, tmp_path):
        path = str(tmp_path / "shard-1.result")
        payload = pack_shard_result(ShardResult(
            shard_index=1,
            dropped_doh=2,
            qname_map=[("q.example", "10.0.0.1")],
            failures=[NodeFailure("DE-0003", "hung", 2)],
            metrics={"counters": {"campaign.raw_doh": 4}},
        ))
        store_unit_result(path, FINGERPRINT, payload)
        return path, payload

    def test_every_truncation_and_bit_flip_loads_nothing(self, sealed):
        path, payload = sealed
        assert load_unit_result(path, FINGERPRINT) == payload
        with open(path, "rb") as handle:
            pristine = handle.read()
        damaged = [pristine[:cut] for cut in range(len(pristine))]
        for offset in range(len(pristine)):
            for bit in range(8):
                blob = bytearray(pristine)
                blob[offset] ^= 1 << bit
                damaged.append(bytes(blob))
        for blob in damaged:
            with open(path, "wb") as handle:
                handle.write(blob)
            assert load_unit_result(path, FINGERPRINT) is None

    def test_other_fingerprint_or_file_name_loads_nothing(self, sealed):
        path, _payload = sealed
        assert load_unit_result(path, "f" * 40) is None
        moved = os.path.join(os.path.dirname(path), "shard-0.result")
        shutil.copy(path, moved)
        assert load_unit_result(moved, FINGERPRINT) is None


# -- end to end: damage one file of a finished checkpoint --------------------

SHARDED = ReproConfig(
    seed=424, population=PopulationConfig(scale=0.004), batch_size=10
)


def run_sharded(directory):
    return run_parallel_campaign(
        SHARDED, workers=1, num_shards=2, atlas_probes_per_country=0,
        checkpoint_dir=directory, resume="auto",
    )


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("sharded") / "ckpt")
    return directory, run_sharded(directory).dataset.to_json()


def test_flipped_result_bit_is_stale_and_remeasures_the_shard(
    sharded, tmp_path
):
    original, dataset = sharded
    directory = str(tmp_path / "ckpt")
    shutil.copytree(original, directory)
    fingerprint = read_manifest(directory)["fingerprint"]
    path = os.path.join(directory, "shard-1.result")
    timing = unpack_shard_result(
        load_unit_result(path, fingerprint)).kept_doh[0].t_b
    with open(path, "rb") as handle:
        offset = handle.read().index(struct.pack("<d", timing))
    flip_bit(path, offset)  # the lowest mantissa bit of one timing

    assert main(["ckpt", "verify", directory]) == VERIFY_STALE
    assert run_sharded(directory).dataset.to_json() == dataset
    units = {unit["role"]: unit
             for unit in read_manifest(directory)["runs"][-1]["units"]}
    # The stored result removed the shard's state blob, so the shard
    # is measured again from batch 0.
    assert units["shard-1"]["batches_measured"] > 0
    assert units["shard-1"]["batches_replayed"] == 0


SERIAL_ARGS = ["campaign", "--scale", "0.005", "--shards", "1",
               "--atlas-probes", "2", "--observe", "--fault-preset",
               "chaos"]


def run_serial(directory, out, *extra):
    return main(SERIAL_ARGS + ["--checkpoint-dir", directory,
                               "--out", out] + list(extra))


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """A finished one-shard checkpoint (2 batches) and its dataset."""
    root = tmp_path_factory.mktemp("serial")
    directory, out = str(root / "ckpt"), str(root / "first.json")
    assert run_serial(directory, out) == 0
    return directory, out


@pytest.fixture()
def serial_copy(serial, tmp_path):
    original, first = serial
    directory = str(tmp_path / "ckpt")
    shutil.copytree(original, directory)
    return directory, first


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def last_run_unit(directory):
    return read_manifest(directory)["runs"][-1]["units"][0]


def test_finished_serial_checkpoint_replays_without_measuring(
    serial_copy, tmp_path
):
    directory, first = serial_copy
    # A finished checkpoint is its manifest, its config and its sealed
    # results: no unit keeps a .state.
    assert sorted(os.listdir(directory)) == [
        "atlas.result", "checkpoint.json", "config.pkl", "shard-0.result"]
    second = str(tmp_path / "second.json")
    assert run_serial(directory, second, "--resume") == 0

    assert read_bytes(second) == read_bytes(first)
    assert read_bytes(str(tmp_path / "second.traces.json")) == read_bytes(
        first.replace(".json", ".traces.json"))
    with open(first.replace(".json", ".manifest.json")) as handle:
        before = json.load(handle)["metrics"]
    with open(str(tmp_path / "second.manifest.json")) as handle:
        after = json.load(handle)["metrics"]
    # Gauges carry resume bookkeeping (batches replayed); everything
    # else must match.
    for section in ("counters", "histograms"):
        assert after[section] == before[section]
    unit = last_run_unit(directory)
    assert unit["batches_measured"] == 0
    assert unit["batches_replayed"] == 2


def test_flipped_state_bit_is_stale_and_restarts_the_unit(runner, tmp_path):
    # A unit killed mid-run: the crash drill stops it before batch 2.
    directory = str(tmp_path / "ckpt")
    out = str(tmp_path / "resumed.json")
    runner("none", 2, directory, "never", out, check=WORKER_CRASH_EXIT)
    path = os.path.join(directory, "shard-0.state")
    fingerprint = read_manifest(directory)["fingerprint"]
    state = load_unit_state(path, fingerprint)
    # The Mersenne-Twister word the world's next draw reads (all of
    # them feed the next twist once the position reaches 624), found
    # as pickle writes it (BININT).
    words = state["world"]["world_rng"][1]
    position = words[-1]
    upcoming = words[position:-1] if position < 624 else words[:-1]
    word = next(word for word in upcoming if 1 << 16 <= word < 1 << 31)
    offset = read_bytes(path).index(b"J" + struct.pack("<i", word))
    flip_bit(path, offset + 1)

    assert main(["ckpt", "verify", directory]) == VERIFY_STALE
    # The damaged .state counts as absent, so the unit starts again at
    # batch 0, where the drill (which fires only on a fresh start)
    # stops it again and a clean .state replaces the damaged one.
    runner("none", 2, directory, "auto", out, check=WORKER_CRASH_EXIT)
    assert main(["ckpt", "verify", directory]) == VERIFY_CLEAN
    runner("none", 2, directory, "auto", out, check=0)
    assert read_bytes(out) == runner.baseline("none")
    assert last_run_unit(directory)["batches_replayed"] == 2


def test_flipped_config_bit_is_stale_and_never_unpickled(serial_copy):
    directory, first = serial_copy
    path = os.path.join(directory, "config.pkl")
    flip_bit(path, os.path.getsize(path) // 2)

    assert main(["ckpt", "verify", directory]) == VERIFY_STALE
    with pytest.raises(CheckpointCorruptionError, match="seal"):
        CampaignCheckpoint.load(directory).stored_config()
    with pytest.raises(CheckpointCorruptionError, match="seal"):
        extend_campaign(directory, Dataset.load(first),
                        providers=("adguard",))


def test_older_format_is_named_on_resume(serial_copy, tmp_path):
    directory, _first = serial_copy
    manifest_path = os.path.join(directory, "checkpoint.json")
    manifest = read_manifest(directory)
    manifest["format"] = 1
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)

    assert main(["ckpt", "verify", directory]) == VERIFY_STALE
    with pytest.raises(CheckpointMismatchError, match="format 1.*format 3"):
        run_serial(directory, str(tmp_path / "x.json"), "--resume")
