"""The correctness gate accepts a real run and rejects tampered output."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import gate
import workloads
from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def tiny_serial(tmp_path_factory):
    """One tiny serial campaign, run by the benchmark's child."""
    work = tmp_path_factory.mktemp("gate")
    outdir = str(work / "out")
    request = {"workload": "serial-campaign", "size": "tiny", "seed": 0,
               "outdir": outdir, "mode": "plain",
               "result": str(work / "result.json"),
               "spans": str(work / "spans.json"), "run_id": "gate",
               "launched": time.monotonic()}
    path = work / "request.json"
    path.write_text(json.dumps(request))
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), str(path)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stdout=subprocess.DEVNULL, check=True, timeout=170)
    return workloads.get("serial-campaign").tiny(), outdir


def _copy(outdir, tmp_path):
    target = str(tmp_path / "copy")
    shutil.copytree(outdir, target)
    return target


def _rewrite(dataset_path, change):
    with open(dataset_path) as handle:
        data = json.load(handle)
    change(data)
    with open(dataset_path, "w") as handle:
        json.dump(data, handle)


def test_a_real_run_passes(tiny_serial):
    workload, outdir = tiny_serial
    verdict = gate.verify(workload, 0, outdir, 0, pins={})
    assert verdict.ok, verdict.problems
    assert not verdict.pinned
    assert set(verdict.digests) == {"dataset", "csv"}
    assert verdict.samples == verdict.counts["doh"] + verdict.counts["do53"]
    assert 0 < verdict.failed_samples < verdict.samples


def test_a_tampered_dataset_fails_its_pin(tiny_serial, tmp_path):
    workload, outdir = tiny_serial
    digests = gate.verify(workload, 0, outdir, 0, pins={}).digests
    pins = {workload.pin_key: {str(workload.program_seed(0)): digests}}
    assert gate.verify(workload, 0, outdir, 0, pins=pins).pinned

    copy = _copy(outdir, tmp_path)

    def nudge(data):
        sample = next(s for s in data["doh"] if s["success"])
        sample["t_doh_ms"] += 0.001

    _rewrite(workload.dataset_path(copy), nudge)
    verdict = gate.verify(workload, 0, copy, 0, pins=pins)
    assert not verdict.ok
    assert any("dataset digest" in p for p in verdict.problems)


def test_a_dropped_sample_fails_the_counts(tiny_serial, tmp_path):
    workload, outdir = tiny_serial
    copy = _copy(outdir, tmp_path)
    _rewrite(workload.dataset_path(copy), lambda data: data["doh"].pop())
    verdict = gate.verify(workload, 0, copy, 0, pins={})
    assert not verdict.ok
    assert any("DoH samples" in p for p in verdict.problems)


def test_a_failed_entry_call_fails(tiny_serial):
    workload, outdir = tiny_serial
    verdict = gate.verify(workload, 0, outdir, 1, pins={})
    assert not verdict.ok and "exited 1" in verdict.problems[0]
