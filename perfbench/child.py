"""One benchmark run in a fresh interpreter: ``child.py <request.json>``.

The request names the workload, seed, output directory, mode and the
monotonic time the parent launched this interpreter.  The child
imports the program, generates the workload's inputs (its command
line), then makes one entry call, ``repro.cli.main(argv)``, and writes
what it measured to the request's ``result`` path:

* ``plain``: wall and CPU time of the entry call (this process plus
  every worker it reaped) and the setup time before it;
* ``trace``: the same with spans and counters around each layer's
  public calls (:mod:`layers`);
* ``profile``: the same under cProfile, with self time bucketed by
  package (:mod:`profbuckets`).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(request_path: str) -> int:
    with open(request_path) as handle:
        request = json.load(handle)
    launched = request["launched"]

    import repro.cli

    import workloads

    workload = workloads.get(request["workload"])
    if request["size"] == "tiny":
        workload = workload.tiny()
    outdir = request["outdir"]
    os.makedirs(outdir)
    argv = workload.argv(request["seed"], outdir)

    mode = request["mode"]
    probe = profiler = None
    if mode == "trace":
        from layers import LayerProbe

        probe = LayerProbe(request["run_id"])
        probe.install()
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    result = {"argv": argv, "mode": mode}
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    if probe is not None:
        probe.start()
    started = time.monotonic()
    result["setup_s"] = started - launched
    try:
        if profiler is not None:
            code = profiler.runcall(repro.cli.main, argv)
        else:
            code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # recorded; the parent reports the run as failed
        code = 1
        result["error"] = traceback.format_exc()
    finished = time.monotonic()
    if probe is not None:
        probe.stop()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    result["exit_code"] = int(code or 0)
    result["wall_s"] = finished - started
    result["cpu_s"] = (_cpu_s(self_after) - _cpu_s(self_before)
                       + _cpu_s(kids_after) - _cpu_s(kids_before))
    from procmon import status_kb

    result["self_hwm_kb"] = status_kb(os.getpid(), "VmHWM") or 0

    if probe is not None:
        manifest = _manifest(workload, outdir)
        result["layers"] = probe.metrics(manifest)
        with open(request["spans"], "w") as handle:
            handle.write(probe.spans_json())
    if profiler is not None:
        import pstats

        from layers import profile_metrics

        profiler.create_stats()
        result["layers"] = profile_metrics(
            pstats.Stats(profiler).stats, result["wall_s"],
            request.get("untraced_wall_s", 0.0))
    with open(request["result"], "w") as handle:
        json.dump(result, handle)
    return 0


def _manifest(workload, outdir: str):
    if workload.kind == "service":
        return None
    path = os.path.splitext(workload.dataset_path(outdir))[0]
    try:
        with open(path + ".manifest.json") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
