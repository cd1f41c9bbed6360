"""The repository benchmark: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serial-campaign --seed 0 \\
        --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 42

Each run of a workload launches a fresh interpreter (``child.py``) that
makes one entry call, ``repro.cli.main([...])``, writing into a fresh
output directory under ``.perfbench/`` in the checkout.  Every run's
outputs pass the correctness gate (``gate.py``) before its numbers
count.  With ``--trace 0`` runs repeat until ``--seconds`` is used (at
least :data:`MIN_REPS`), and the medians of the end-to-end metrics over
the runs are reported.  With ``--trace 1`` one untraced run, one traced
run and one cProfile run give the per-layer metrics and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count runs of the workload.  The exit code is 0 only if
every run passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import MB

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")

#: End-to-end metrics with their units, in report order.
END_TO_END = (
    ("meas_per_s", "meas/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
    ("failed_share", "ratio"),
)
#: Runs per workload invocation, whatever ``--seconds`` says: the host's
#: speed swings by 15% from one 10-second run to the next, so a single
#: run is too noisy to report.
MIN_REPS = 3
#: Every invocation ends within this many seconds (runs are cut).
DEADLINE_S = 170.0


@dataclass
class Rep:
    """One run of a workload: what the child measured and the gate saw."""

    ok: bool
    problems: List[str]
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_kb: int = 0
    disk_bytes: int = 0
    samples: int = 0
    failed_samples: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    pinned: bool = False
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def meas_per_s(self) -> float:
        return self.samples / self.wall_s if self.wall_s > 0 else 0.0


def _require_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no program source at {} (expected "
              "src/repro/cli.py)".format(ROOT), file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _disk_bytes(directory: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(directory):
        for name in files:
            try:
                total += os.lstat(os.path.join(base, name)).st_size
            except OSError:
                pass
    return total


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def _launch(workload, seed: int, repdir: str, mode: str, deadline: float,
            extra: Optional[Dict] = None):
    """Run ``child.py`` once in *repdir*.

    Returns ``(exit code, result dict or None, peak tree RSS in kB,
    log path)``; the exit code is None when the deadline cut the run.
    """
    from procmon import TreeRssSampler

    shutil.rmtree(repdir, ignore_errors=True)
    os.makedirs(repdir)
    os.makedirs(RESULTS, exist_ok=True)
    paths = {name: os.path.join(repdir, name) for name in
             ("request.json", "result.json", "child.log")}
    run_id = "{}-s{}-{}-{}".format(workload.name, seed,
                                   os.path.basename(repdir), os.getpid())
    request = {"workload": workload.name, "size": workload.size,
               "seed": seed, "outdir": os.path.join(repdir, "out"),
               "mode": mode, "result": paths["result.json"],
               "run_id": run_id,
               # Spans outlive the run directory, beside the results.
               "spans": os.path.join(RESULTS, run_id + ".spans.json")}
    request.update(extra or {})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # Start every run with no dirty pages left by the one before, so
    # its fsyncs wait only for its own writes.
    os.sync()
    with open(paths["child.log"], "wb") as log:
        request["launched"] = time.monotonic()
        with open(paths["request.json"], "w") as handle:
            json.dump(request, handle)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             paths["request.json"]],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            with TreeRssSampler(proc.pid) as rss:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop_group(proc)
            return None, None, 0, paths["child.log"]
        except BaseException:
            _stop_group(proc)  # interrupted: leave no run behind
            raise
    try:
        with open(paths["result.json"]) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = None
    return proc.returncode, result, rss.peak_kb, paths["child.log"]


def run_once(workload, seed: int, rundir: str, index: int, mode: str,
             deadline: float, extra: Optional[Dict] = None) -> Rep:
    """Launch one fresh interpreter for one entry call and gate it."""
    import gate

    repdir = os.path.join(rundir, "{}{}".format(mode, index))
    code, result, peak_kb, log = _launch(workload, seed, repdir, mode,
                                         deadline, extra)
    if code is None:
        return Rep(False, ["run cut at the {:.0f}s deadline".format(
            DEADLINE_S)])
    if code != 0 or result is None:
        return Rep(False, ["child exited {}; log tail:\n{}".format(
            code, _tail(log))])
    outdir = os.path.join(repdir, "out")
    verdict = gate.verify(workload, seed, outdir, result["exit_code"])
    problems = list(verdict.problems)
    if "error" in result:
        problems.append(result["error"])
    rep = Rep(
        ok=verdict.ok and "error" not in result,
        problems=problems,
        setup_s=result["setup_s"],
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        peak_kb=max(peak_kb, result["self_hwm_kb"]),
        disk_bytes=_disk_bytes(outdir),
        samples=verdict.samples,
        failed_samples=verdict.failed_samples,
        digests=verdict.digests,
        counts=verdict.counts,
        pinned=verdict.pinned,
        layers=result.get("layers", {}),
    )
    if rep.ok:
        shutil.rmtree(repdir, ignore_errors=True)
    return rep


def _tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""


def _consistent(reps: List[Rep]) -> None:
    """Runs of one seed must write identical bytes."""
    good = [rep for rep in reps if rep.ok]
    if len({json.dumps(rep.digests, sort_keys=True) for rep in good}) > 1:
        for rep in good:
            rep.ok = False
            rep.problems.append("runs of one seed wrote different bytes")


def measure(workload, seed: int, seconds: float) -> List[Rep]:
    """Untraced runs until *seconds* are used, at least :data:`MIN_REPS`."""
    rundir = _rundir(workload, seed, "e2e")
    started = time.monotonic()
    deadline = started + DEADLINE_S
    out: List[Rep] = []
    try:
        while True:
            out.append(run_once(workload, seed, rundir, len(out), "plain",
                                deadline))
            if not out[-1].ok and out[-1].wall_s == 0.0:
                break  # crashed or cut: more runs cannot help
            now = time.monotonic()
            per_rep = (now - started) / len(out)
            if len(out) >= MIN_REPS and now + per_rep > started + seconds:
                break
            if now + per_rep > deadline:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    _consistent(out)
    return out


def _rundir(workload, seed: int, kind: str) -> str:
    return os.path.join(WORK, "runs", "{}-s{}-{}-{}".format(
        workload.name, seed, kind, os.getpid()))


def end_to_end(workload, reps: List[Rep]) -> Dict[str, float]:
    """Medians over good runs; a failed run's samples all count failed."""
    good = [rep for rep in reps if rep.ok]
    expected = workload.expected_samples()
    failed = sum(rep.failed_samples for rep in good)
    total = sum(rep.samples for rep in good)
    bad = len(reps) - len(good)
    failed += bad * expected
    total += bad * expected

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "meas_per_s": median([rep.meas_per_s for rep in good]),
        "setup_s": median([rep.setup_s for rep in good]),
        "cpu_s": median([rep.cpu_s for rep in good]),
        "peak_rss_mb": median([rep.peak_kb * 1024 / MB for rep in good]),
        "disk_mb": median([rep.disk_bytes / MB for rep in good]),
        "failed_share": failed / total if total else 1.0,
    }


def traced(workload, seed: int) -> List[Rep]:
    """An untraced, a traced and a profiled run of one seed."""
    rundir = _rundir(workload, seed, "trace")
    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = run_once(workload, seed, rundir, 0, "plain", deadline)
        trace = run_once(workload, seed, rundir, 1, "trace", deadline)
        prof = run_once(workload, seed, rundir, 2, "profile", deadline,
                        {"untraced_wall_s": plain.wall_s})
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    reps = [plain, trace, prof]
    _consistent(reps)
    return reps


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    from layers import PER_LAYER

    plain, trace, prof = reps
    values = {name: 0.0 for name, _unit in PER_LAYER}
    values.update(trace.layers)
    values.update(prof.layers)
    values["trace.meas_per_s"] = trace.meas_per_s
    values["trace.untraced_meas_per_s"] = plain.meas_per_s
    values["trace.overhead_share"] = (
        1.0 - trace.meas_per_s / plain.meas_per_s
        if plain.meas_per_s else 0.0)
    return values


def provenance(workload, seed: int) -> Dict[str, object]:
    from repro.parallel.executor import default_worker_count

    filesystem = _fstype(WORK)
    if filesystem == "tmpfs":
        print("perfbench: the checkout is on tmpfs, so fsyncs cost "
              "nothing here", file=sys.stderr)
    return {
        "workload": workload.name,
        "seed": seed,
        "program_seed": workload.program_seed(seed),
        "cores": default_worker_count(),
        "python": sys.version.split()[0],
        "filesystem": filesystem,
        "commit": _commit(),
        "input": workload.input_size(),
    }


def _fstype(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = (path == mount
                          or path.startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_table(title: str, values: Dict[str, float],
                 units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print("  {:<34} {:>14.6g} {}".format(name, value, units[name]))


def _save(name: str, record: Dict) -> None:
    with open(os.path.join(RESULTS, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def _report_problems(reps: List[Rep]) -> None:
    for index, rep in enumerate(reps):
        for problem in rep.problems:
            print("run {} FAILED: {}".format(index, problem),
                  file=sys.stderr)


def _digest_note(workload, seed: int, reps: List[Rep]) -> None:
    good = [rep for rep in reps if rep.ok]
    if good and not good[0].pinned:
        print("unpinned seed {} (program seed {}): digests {}".format(
            seed, workload.program_seed(seed),
            json.dumps(good[0].digests, sort_keys=True)))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Dict:
    import workloads

    workload = workloads.get(name)
    if tiny:
        workload = workload.tiny()
    if trace:
        from layers import PER_LAYER

        runs = traced(workload, seed)
        metrics = per_layer(runs)
        units = dict(PER_LAYER)
    else:
        runs = measure(workload, seed, seconds)
        metrics = end_to_end(workload, runs)
        units = dict(END_TO_END)
    _report_problems(runs)
    _digest_note(workload, seed, runs)
    record = {
        "correct": all(rep.ok for rep in runs),
        "attempted": len(runs),
        "failed": sum(1 for rep in runs if not rep.ok),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    info = provenance(workload, seed)
    info["runs"] = [
        {"ok": rep.ok, "setup_s": rep.setup_s, "wall_s": rep.wall_s,
         "cpu_s": rep.cpu_s, "peak_kb": rep.peak_kb,
         "disk_bytes": rep.disk_bytes, "samples": rep.samples,
         "failed_samples": rep.failed_samples, "counts": rep.counts,
         "digests": rep.digests}
        for rep in runs]
    print("provenance " + json.dumps(
        {key: info[key] for key in info if key != "runs"}, sort_keys=True))
    _print_table("{} seed {} ({} runs, {})".format(
        name, seed, len(runs), "per-layer" if trace else "end-to-end"),
        metrics if trace else {k: metrics[k] for k in units}, units)
    _save("{}-s{}-trace{}-{}.json".format(name, seed, int(trace),
                                          os.getpid()),
          dict(record, provenance=info))
    return record


def _terminate(signum, _frame) -> None:
    """SIGTERM unwinds like an exception, so the running child is killed."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="each workload at its smallest size "
                             "(smoke tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    _require_program()
    import workloads

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [workloads.get(args.workload).name])
    records = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.tiny)
               for name in names}
    if len(records) == 1:
        record = records[names[0]]
    else:
        record = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {"{}.{}".format(name, metric): value
                        for name, r in records.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(record, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
