"""Tiny-scale runs of every workload through run.py, as a user runs them."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT
from layers import PER_LAYER
from run import END_TO_END, MIN_REPS

RUN = os.path.join(BENCH, "run.py")


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = _result(_run("--workload", name, "--seed", "0", "--seconds",
                          "1", "--trace", "0", "--tiny"))
    assert result["attempted"] == MIN_REPS
    metrics = result["metrics"]
    assert sorted((n, m["unit"]) for n, m in metrics.items()) == sorted(
        END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_tiny_traced_service_reports_every_per_layer_metric():
    result = _result(_run("--workload", "service-chaos", "--seed", "0",
                          "--trace", "1", "--tiny"))
    assert result["attempted"] == 3
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(name for name, _ in PER_LAYER)
    tiny = workloads.get("service-chaos").tiny()
    assert metrics["service.epochs"] == tiny.epochs
    assert metrics["core.build_world_calls"] == tiny.epochs * tiny.shards
    assert metrics["ckpt.commits"] >= 2 * tiny.epochs * tiny.shards
    assert metrics["ckpt.fsyncs"] > metrics["ckpt.commits"]
    assert metrics["service.journal_appends"] > tiny.epochs
    assert metrics["faults.activations"] > 0
    assert metrics["parallel.dispatch_s"] == 0  # no pool in this workload
    assert metrics["obs.traces"] == 0  # observe is off
    assert 0.99 < sum(metrics[n] for n, _ in PER_LAYER
                      if n.endswith(".self_share")) < 1.01


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serial-campaign", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
