"""Crash-resume parity: interrupted + resumed == never interrupted.

The hard invariant of ``repro.ckpt``: a campaign that dies mid-flight
and resumes from its checkpoint must produce **byte-identical**
dataset files to one that ran straight through.  Exercised three ways:

* the ``worker_crash`` fault (``os._exit`` before a batch — the
  deterministic preemption drill) on a one-shard run,
* a real ``SIGKILL`` landing at an arbitrary moment mid-campaign,
* a crashed shard worker under the parallel executor at ``workers=4``.

``WorkerCrash`` never touches the simulation, so the baseline config
simply omits it; everything else matches the crashed run exactly.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.ckpt.checkpoint import committed_batches
from repro.cli import main
from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, WorkerCrash, WORKER_CRASH_EXIT
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

from tests.ckpt.conftest import read_manifest, runner_env


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("faults", ["none", "chaos"])
def test_crash_then_resume_is_byte_identical(runner, tmp_path, capsys,
                                             faults):
    ckpt = str(tmp_path / "ckpt")
    crashed_out = str(tmp_path / "resumed.json")

    # Fresh start dies before batch 2, exactly like a preemption.
    proc = runner(faults, 2, ckpt, "never", crashed_out)
    assert proc.returncode == WORKER_CRASH_EXIT, proc.stderr
    assert not os.path.exists(crashed_out)

    # The unit is one file: its .state holds both committed batches.
    assert sorted(os.listdir(ckpt)) == [
        "checkpoint.json", "config.pkl", "shard-0.state"]
    capsys.readouterr()
    assert main(["ckpt", "verify", ckpt]) == 0
    assert "shard-0.state: 2 committed batch(es)" in capsys.readouterr().out

    # Resume sails past the crash point and completes.
    runner(faults, 2, ckpt, "auto", crashed_out, check=0)
    manifest = read_manifest(ckpt)
    assert manifest["status"] == "complete"
    unit = manifest["runs"][-1]["units"][0]
    assert unit["batches_replayed"] == 2  # batches 0 and 1 from .state

    assert read_bytes(crashed_out) == runner.baseline(faults)


def test_sigkill_then_resume_is_byte_identical(runner, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    resumed_out = str(tmp_path / "resumed.json")

    # Launch an uncrashed checkpointed run and SIGKILL it once its
    # .state holds at least two committed batches — an arbitrary
    # mid-campaign moment, unlike the batch-aligned WorkerCrash drill.
    proc = subprocess.Popen(
        [sys.executable, runner.script, "none", "0", ckpt, "never",
         resumed_out],
        env=runner_env(),
    )
    try:
        deadline = time.time() + 240
        while time.time() < deadline:
            if proc.poll() is not None:
                pytest.fail("campaign finished before SIGKILL landed; "
                            "grow the fleet scale in conftest.RUNNER")
            if committed_batches(ckpt) >= 2:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    assert not os.path.exists(resumed_out)

    runner("none", 0, ckpt, "auto", resumed_out, check=0)
    manifest = read_manifest(ckpt)
    # The kill leaves the .state of the last finished commit, which
    # holds every batch seen before the kill.
    assert manifest["runs"][-1]["units"][0]["batches_replayed"] >= 2

    assert read_bytes(resumed_out) == runner.baseline("none")


class TestParallelResume:
    """Shard-worker crash recovery under the sharded executor."""

    CONFIG = ReproConfig(
        seed=424,
        population=PopulationConfig(scale=0.005),
        batch_size=25,
    )

    def _run(self, tmp_path, crash, checkpoint_dir=None, resume="never"):
        config = self.CONFIG
        if crash:
            config = dataclasses.replace(
                config,
                faults=FaultPlan(
                    worker_crash=WorkerCrash(after_batches=1,
                                             shard_index=0)
                ),
            )
        return run_parallel_campaign(
            config,
            workers=4,
            num_shards=4,
            atlas_probes_per_country=0,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )

    def test_crashed_shard_resumes_byte_identical(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        # Shard 0's worker dies after committing one batch; the
        # executor retries it in a fresh pool and the retry resumes
        # from the shard's .state rather than remeasuring.
        result = self._run(tmp_path, crash=True, checkpoint_dir=ckpt)
        baseline = self._run(tmp_path, crash=False)

        crashed_path = tmp_path / "crashed.json"
        baseline_path = tmp_path / "baseline.json"
        result.dataset.save(str(crashed_path))
        baseline.dataset.save(str(baseline_path))
        assert crashed_path.read_bytes() == baseline_path.read_bytes()

        manifest = read_manifest(ckpt)
        assert manifest["status"] == "complete"
        units = {unit["role"]: unit
                 for unit in manifest["runs"][-1]["units"]}
        assert units["shard-0"]["batches_replayed"] >= 1

    def test_completed_checkpoint_replays_all_shards(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = self._run(tmp_path, crash=False, checkpoint_dir=ckpt)
        second = self._run(tmp_path, crash=False, checkpoint_dir=ckpt,
                           resume="auto")

        first_path = tmp_path / "first.json"
        second_path = tmp_path / "second.json"
        first.dataset.save(str(first_path))
        second.dataset.save(str(second_path))
        assert first_path.read_bytes() == second_path.read_bytes()

        manifest = read_manifest(ckpt)
        for unit in manifest["runs"][-1]["units"]:
            assert unit["batches_measured"] == 0
