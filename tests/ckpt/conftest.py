"""Fixtures and subprocess helpers for the checkpoint suite.

Crash drills need a real process to kill: ``WorkerCrash`` dies with
``os._exit`` and SIGKILL is, by definition, not survivable in-process.
The runner script below is written to ``tmp_path`` (spawn-based
multiprocessing cannot re-import an in-memory ``__main__``) and driven
via argv.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: One serial checkpointed campaign, parameterised entirely via argv:
#:   runner.py <faults> <crash_after> <ckpt_dir> <resume> <out.json>
#: faults       -- "none" or "chaos"
#: crash_after  -- 0 for no crash, N to die before batch index N
#: ckpt_dir     -- "-" for an uncheckpointed run
RUNNER = '''
import dataclasses
import sys

from repro.ckpt import CampaignCheckpoint
from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.faults.plan import FaultPlan, WorkerCrash
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
world = build_world(config)
campaign = Campaign(world, atlas_probes_per_country=0)
if ckpt_dir == "-":
    result = campaign.run()
else:
    checkpoint = CampaignCheckpoint.open(
        ckpt_dir, config, execution={"mode": "serial"}, resume=resume
    )
    measure = checkpoint.measure_checkpoint("serial")
    try:
        result = campaign.run(checkpoint=measure)
    finally:
        measure.close()
    checkpoint.record_run({"workers": 1, "units": [{
        "role": "serial",
        "batches_replayed": measure.resumed_batches,
    }]})
    checkpoint.mark_complete()
result.dataset.save(out)
'''


@pytest.fixture()
def runner(tmp_path):
    """Path of the runner script plus an invoker bound to tmp_path."""
    script = tmp_path / "runner.py"
    script.write_text(RUNNER)

    def invoke(faults, crash_after, ckpt_dir, resume, out, check=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, str(script), faults, str(crash_after),
             ckpt_dir, resume, out],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if check is not None:
            assert proc.returncode == check, proc.stderr
        return proc

    return invoke


def read_manifest(ckpt_dir) -> dict:
    with open(os.path.join(str(ckpt_dir), "checkpoint.json")) as handle:
        return json.load(handle)
