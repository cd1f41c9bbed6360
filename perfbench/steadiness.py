"""Steadiness report: median and quartiles of repeated benchmark runs.

Runs ``run.py --trace 0`` once per (workload, seed), each in its own
process, and reports for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (the
distance between the quartiles as a share of the median).  A metric is
flagged when its spread exceeds its bound in BENCHMARK.json.  With
``--sets 2`` the seeds
are run twice and a metric is also flagged when the second set's
median is worse than the first's by more than the bound.

    python3 perfbench/steadiness.py --seeds 10 --sets 2
    python3 perfbench/steadiness.py --workloads service-chaos --seeds 5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import tails

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark invocation; returns its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def worse_by(metric: Dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def report(bench: Dict, sets: List[Dict[str, Dict[str, List[float]]]]
           ) -> List[str]:
    """Print the table; returns the flagged (workload, metric) pairs."""
    flags = []
    print("{:<16} {:<13} {:>3} {:>12} {:>12} {:>12} {:>7} {:>6} {}".format(
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "bound", "flag"))
    for workload in sets[0]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, values in enumerate(sets):
                series = values[workload].get(name, [])
                if not series:
                    continue
                stats = tails.summarise(series)
                medians.append(stats["median"])
                flag = ""
                if stats["spread"] > bound:
                    flag = "SPREAD"
                    flags.append("{} {} spread {:.3f} > {}".format(
                        workload, name, stats["spread"], bound))
                elif stats["spread"] > bound / 3:
                    flag = "(above a third of the bound)"
                print("{:<16} {:<13} {:>3} {:>12.6g} {:>12.6g} {:>12.6g} "
                      "{:>7.3f} {:>6} {}".format(
                          workload, name, index + 1, stats["median"],
                          stats["q1"], stats["q3"], stats["spread"],
                          bound, flag))
            if len(medians) == 2:
                drift = worse_by(metric, medians[0], medians[1])
                if drift > bound:
                    flags.append("{} {} second median worse by {:.3f}"
                                 .format(workload, name, drift))
                print("{:<16} {:<13} second median worse by {:+.3f}{}"
                      .format(workload, name, drift,
                              "  MEDIAN" if drift > bound else ""))
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds 1..N are run")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = ([n for n in args.workloads.split(",") if n]
             or [w["name"] for w in bench["workloads"]])
    seeds = range(1, args.seeds + 1)
    sets, incorrect = [], []
    started = time.monotonic()
    for index in range(args.sets):
        values: Dict[str, Dict[str, List[float]]] = {}
        for name in names:
            values[name] = {}
            for seed in seeds:
                result = run_one(name, seed, seconds)
                if not result["correct"]:
                    incorrect.append("{} seed {}".format(name, seed))
                for metric, entry in result["metrics"].items():
                    values[name].setdefault(metric, []).append(
                        entry["value"])
                print("set {} {} seed {}: {}".format(
                    index + 1, name, seed, json.dumps(
                        {k: round(v["value"], 6)
                         for k, v in result["metrics"].items()})),
                      flush=True)
        sets.append(values)
    flags = report(bench, sets)
    flags += ["incorrect run: " + item for item in incorrect]
    out = os.path.join(ROOT, ".perfbench", "steadiness")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "{}.json".format(int(time.time()))),
              "w") as handle:
        json.dump({"seconds": seconds, "seeds": list(seeds), "sets": sets,
                   "flags": flags}, handle, indent=1)
    print("{} run(s) in {:.0f}s; {}".format(
        args.sets * len(names) * len(seeds), time.monotonic() - started,
        "; ".join(flags) if flags else "no flags"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
