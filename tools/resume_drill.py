"""Kill-and-resume drill: prove crash recovery on a real sharded run.

The drill is the checkpoint subsystem's end-to-end acceptance check,
run in CI on every push (the ``resume`` job):

1. run the campaign uninterrupted (no checkpoint) -> ``baseline.json``,
2. start the same campaign sharded and checkpointed in a subprocess,
   wait until its ``.state`` files hold committed batches, then
   SIGKILL the whole process group mid-measurement,
3. verify the killed checkpoint classifies as clean — a kill leaves
   each unit's old file or its new one, never a damaged one, so it
   must never take the quarantine path,
4. resume from the checkpoint directory with ``--resume auto``,
5. fail (exit 1) unless the resumed dataset is **byte-identical** to
   the baseline.

Run:  python tools/resume_drill.py [--scale S] [--workers N]
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from repro.ckpt.checkpoint import committed_batches
from repro.ckpt.quarantine import verify_checkpoint_dir
from repro.core.config import ReproConfig
from repro.parallel import run_parallel_campaign
from repro.proxy.population import PopulationConfig
from repro.service import paths as service_paths


def build_config(args) -> ReproConfig:
    return ReproConfig(
        seed=args.seed,
        population=PopulationConfig(scale=args.scale),
        batch_size=args.batch_size,
    )


def run_campaign(args, checkpoint_dir=None, resume="never"):
    return run_parallel_campaign(
        build_config(args),
        workers=args.workers,
        num_shards=args.shards,
        atlas_probes_per_country=0,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )


def kill_midway(args, checkpoint_dir: str) -> str:
    """Start the checkpointed run in a child and SIGKILL it mid-flight.

    Returns ``"killed"`` or ``"finished"`` (the child can win the race
    on very fast machines; the drill still verifies pure replay then).
    """
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--checkpoint-dir", checkpoint_dir,
         "--scale", str(args.scale), "--seed", str(args.seed),
         "--workers", str(args.workers), "--shards", str(args.shards),
         "--batch-size", str(args.batch_size)],
        start_new_session=True,  # one killpg takes out the worker pool
    )
    deadline = time.time() + 600
    while time.time() < deadline:
        if child.poll() is not None:
            return "finished"
        if committed_batches(checkpoint_dir) >= args.kill_after:
            break
        time.sleep(0.05)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return "finished"
    child.wait(timeout=120)
    return "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=424)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=25)
    parser.add_argument("--kill-after", type=int, default=3,
                        help="SIGKILL once this many batches committed")
    parser.add_argument("--out-dir", default="results/resume_drill")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkpoint-dir", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        run_campaign(args, checkpoint_dir=args.checkpoint_dir,
                     resume="auto")
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    checkpoint_dir = os.path.join(args.out_dir, "checkpoint")
    baseline_path = os.path.join(args.out_dir, "baseline.json")
    resumed_path = os.path.join(args.out_dir, "resumed.json")

    started = time.time()
    print("baseline: uninterrupted run (scale={}, workers={}, "
          "shards={})".format(args.scale, args.workers, args.shards),
          flush=True)
    run_campaign(args).dataset.save(baseline_path)
    print("  done in {:.0f}s".format(time.time() - started), flush=True)

    print("drill: checkpointed run, SIGKILL after {} committed "
          "batch(es)".format(args.kill_after), flush=True)
    fate = kill_midway(args, checkpoint_dir)
    print("  child {} with {} batch(es) in the .state files".format(
        fate, committed_batches(checkpoint_dir)), flush=True)

    # A SIGKILL leaves each unit's old file or its new one.  If this
    # checkpoint classifies as quarantine-worthy, the commit protocol
    # is broken and resuming would hide it.
    health = verify_checkpoint_dir(checkpoint_dir)
    print("  checkpoint health after kill: {}".format(health.status),
          flush=True)
    if not health.resumable:
        print("FAIL: clean kill produced a non-resumable checkpoint "
              "({}); the quarantine path must not be taken here:".format(
                  health.status))
        for problem in health.problems:
            print("  " + problem)
        return 1

    print("resume: --resume auto from {}".format(checkpoint_dir),
          flush=True)
    resumed = run_campaign(args, checkpoint_dir=checkpoint_dir,
                           resume="auto")
    resumed.dataset.save(resumed_path)

    with open(
        service_paths.checkpoint_manifest_path(checkpoint_dir)
    ) as handle:
        manifest = json.load(handle)
    for unit in manifest["runs"][-1]["units"]:
        print("  {}: replayed {}, measured {}".format(
            unit["role"], unit.get("batches_replayed"),
            unit.get("batches_measured")), flush=True)

    with open(baseline_path, "rb") as handle:
        baseline_bytes = handle.read()
    with open(resumed_path, "rb") as handle:
        resumed_bytes = handle.read()
    if baseline_bytes != resumed_bytes:
        print("FAIL: resumed dataset differs from the uninterrupted "
              "baseline ({} vs {} bytes)".format(
                  len(resumed_bytes), len(baseline_bytes)))
        return 1
    print("OK: resumed dataset is byte-identical to the baseline "
          "({} bytes, total {:.0f}s)".format(
              len(baseline_bytes), time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
