"""Infrastructure benchmark — warm-pool executor vs the serial campaign.

Not a paper artifact: runs the same measurement workload twice — once
through the legacy serial :class:`Campaign`, once through
``repro.parallel.run_parallel_campaign`` on the persistent warm worker
pool — and records measurements per wall-clock second for both, plus
the speedup, in ``BENCH_parallel_campaign.json`` at the repo root.

Honesty rules, learned the hard way (the pre-pool artifact recorded a
0.706 "speedup" as if it were fine):

* ``cores`` is :func:`default_worker_count` — the CPUs this process
  can actually schedule on (affinity/cgroup aware), not the box's
  nominal count;
* ``per_core_efficiency`` = speedup / workers is recorded so a
  "2.0x on 8 workers" result reads as the 0.25 efficiency it is;
* the speedup gate **skips visibly** (``pytest.skip``) on starved
  machines instead of silently passing — but only after writing the
  artifact, so the numbers are always published;
* ``gate`` in the artifact says which bar applied and whether it was
  enforced or skipped.

The parallel run passes its own ``WarmWorkerPool``, created and closed
inside the timed span: the benchmark exists to measure the pooled path
(spawn, prime, run and close), never the break-even inline fallback.

Scale is controlled with ``REPRO_PARALLEL_BENCH_SCALE`` (default 0.01,
about 480 exit nodes — enough work for the pool to amortise its one
world build per worker).
"""

import json
import os
import pathlib
import time

import pytest

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.ioutil import atomic_write_json
from repro.parallel import WarmWorkerPool, run_parallel_campaign
from repro.parallel.executor import default_worker_count
from repro.proxy.population import PopulationConfig

BENCH_SEED = 20210402
NUM_SHARDS = 8
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_parallel_campaign.json"


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_PARALLEL_BENCH_SCALE", "0.01"))


def _measurements(result) -> int:
    return len(result.raw_doh) + len(result.raw_do53)


def test_sharded_executor_speedup():
    cores = default_worker_count()
    workers = min(4, cores)
    config = ReproConfig(
        seed=BENCH_SEED, population=PopulationConfig(scale=_bench_scale())
    )

    started = time.perf_counter()
    world = build_world(config)
    serial_result = Campaign(world, atlas_probes_per_country=0).run()
    serial_s = time.perf_counter() - started
    serial_count = _measurements(serial_result)

    started = time.perf_counter()
    with WarmWorkerPool(max(2, workers)) as pool:
        parallel_result = run_parallel_campaign(
            config,
            workers=max(2, workers),
            num_shards=NUM_SHARDS,
            atlas_probes_per_country=0,
            pool=pool,
        )
    parallel_s = time.perf_counter() - started
    parallel_count = _measurements(parallel_result)

    assert parallel_count == serial_count, (
        "pooled run produced {} measurements, serial {}".format(
            parallel_count, serial_count
        )
    )

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    if cores >= 4:
        gate = {"bar": 2.0, "status": "enforced"}
    elif cores >= 2:
        gate = {"bar": 1.3, "status": "enforced"}
    else:
        gate = {"bar": None, "status": "skipped (single schedulable core)"}
    report = {
        "scale": _bench_scale(),
        "cores": cores,
        "workers": max(2, workers),
        "num_shards": NUM_SHARDS,
        "mode": "warm-pool (explicit pool)",
        "measurements": serial_count,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "serial_meas_per_sec": round(serial_count / serial_s, 1),
        "parallel_meas_per_sec": round(parallel_count / parallel_s, 1),
        "speedup": round(speedup, 3),
        "per_core_efficiency": round(speedup / max(2, workers), 3),
        "gate": gate,
    }
    atomic_write_json(str(OUT_PATH), report, indent=2,
                      trailing_newline=True)
    print("\n" + json.dumps(report, indent=2))

    # Process parallelism cannot beat serial on a starved machine, but
    # that must be a visible skip in the test report — never a silent
    # pass that lets a regression hide behind a small runner.
    if cores < 2:
        pytest.skip(
            "speedup gate skipped: only {} schedulable core(s); "
            "artifact written with speedup {:.3f}".format(cores, speedup)
        )
    assert speedup >= gate["bar"], report
