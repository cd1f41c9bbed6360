"""Fixtures and subprocess helpers for the checkpoint suite.

Crash drills need a real process to kill: ``WorkerCrash`` dies with
``os._exit`` and SIGKILL is, by definition, not survivable in-process.
The runner script below is written to a temporary directory once per
session and driven via argv; with one worker it measures in its own
process, so a ``WorkerCrash`` ends the runner itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: One one-shard campaign in this process, parameterised via argv:
#:   runner.py <faults> <crash_after> <ckpt_dir> <resume> <out.json>
#: faults       -- "none" or "chaos"
#: crash_after  -- 0 for no crash, N to die before batch index N
#: ckpt_dir     -- "-" for an uncheckpointed run
RUNNER = '''
import dataclasses
import sys

from repro.core.config import ReproConfig
from repro.faults.plan import FaultPlan, WorkerCrash
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig

faults, crash_after, ckpt_dir, resume, out = sys.argv[1:6]
plan = FaultPlan.chaos(seed=5) if faults == "chaos" else None
if int(crash_after):
    plan = dataclasses.replace(
        plan or FaultPlan(),
        worker_crash=WorkerCrash(after_batches=int(crash_after)),
    )
config = ReproConfig(
    seed=424,
    population=PopulationConfig(scale=0.005),
    batch_size=25,
    faults=plan,
)
result = run_parallel_campaign(
    config, workers=1, num_shards=1, atlas_probes_per_country=0,
    checkpoint_dir=None if ckpt_dir == "-" else ckpt_dir, resume=resume,
)
result.dataset.save(out)
'''


def runner_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return env


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    """An invoker of the runner script; ``runner.script`` is its path."""
    root = tmp_path_factory.mktemp("runner")
    script = root / "runner.py"
    script.write_text(RUNNER)
    baselines = {}

    def invoke(faults, crash_after, ckpt_dir, resume, out, check=None):
        proc = subprocess.run(
            [sys.executable, str(script), faults, str(crash_after),
             ckpt_dir, resume, out],
            env=runner_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        if check is not None:
            assert proc.returncode == check, proc.stderr
        return proc

    def baseline(faults) -> bytes:
        """Dataset bytes of the uncheckpointed, uncrashed run."""
        if faults not in baselines:
            out = str(root / "baseline-{}.json".format(faults))
            invoke(faults, 0, "-", "never", out, check=0)
            with open(out, "rb") as handle:
                baselines[faults] = handle.read()
        return baselines[faults]

    invoke.script = str(script)
    invoke.baseline = baseline
    return invoke


def read_manifest(ckpt_dir) -> dict:
    with open(os.path.join(str(ckpt_dir), "checkpoint.json")) as handle:
        return json.load(handle)
