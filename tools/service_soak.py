"""Service soak drill: SIGKILL the supervisor mid-epoch, resume, diff.

The longitudinal service's end-to-end acceptance check, run in CI on
every push (the ``service-soak`` job):

1. run an uninterrupted N-epoch service (chaos faults on) -> baseline
   ``dataset.json`` + ``dataset.availability.json``,
2. start the identical service in a subprocess, wait until epoch 1 has
   committed a few batches (a random-ish point mid-epoch-2 of the
   soak), then SIGKILL the whole process group,
3. ``repro service resume`` the killed directory,
4. fail (exit 1) unless **both** the dataset and the availability
   artifact are byte-identical to the uninterrupted baseline,
5. repeat for every requested worker count (the dataset bytes must not
   depend on that either).

Run:  python tools/service_soak.py [--scale S] [--workers 1 4]
"""

import argparse
import os
import signal
import subprocess
import sys
import time

from repro.ckpt.checkpoint import committed_batches
from repro.service import paths as service_paths


def service_cmd(args, directory, command, workers):
    cmd = [sys.executable, "-m", "repro", "service", command, directory]
    if command == "run":
        cmd += [
            "--master-seed", str(args.master_seed),
            "--scale", str(args.scale),
            "--epochs", str(args.epochs),
            "--runs-per-epoch", str(args.runs_per_epoch),
            "--shards", str(args.shards),
            "--batch-size", str(args.batch_size),
        ]
    cmd += ["--workers", str(workers)]
    return cmd


def kill_mid_epoch(args, directory, workers, kill_epoch=1):
    """Start the service in a child, SIGKILL once *kill_epoch* has
    committed batches.  Returns ``"killed"`` or ``"finished"``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (args.pythonpath, env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        service_cmd(args, directory, "run", workers),
        start_new_session=True,  # one killpg takes out the worker pool
        env=env,
        stdout=subprocess.DEVNULL,
    )
    epoch_dir = service_paths.epoch_dir(directory, kill_epoch)
    deadline = time.time() + 900
    while time.time() < deadline:
        if child.poll() is not None:
            return "finished"
        if committed_batches(epoch_dir) >= args.kill_after:
            break
        time.sleep(0.05)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return "finished"
    child.wait(timeout=120)
    return "killed"


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.008)
    parser.add_argument("--master-seed", type=int, default=777)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--runs-per-epoch", type=int, default=1)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=25)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 4],
                        help="worker counts to drill (bytes must match "
                             "across all of them)")
    parser.add_argument("--kill-after", type=int, default=2,
                        help="SIGKILL once epoch 1 committed this many "
                             "batches")
    parser.add_argument("--out-dir", default="results/service_soak")
    args = parser.parse_args()
    args.pythonpath = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )

    started = time.time()
    os.makedirs(args.out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (args.pythonpath, env.get("PYTHONPATH")) if p
    )

    baseline_dir = os.path.join(args.out_dir, "baseline")
    print("baseline: uninterrupted {}-epoch service (scale={}, "
          "chaos faults on)".format(args.epochs, args.scale), flush=True)
    subprocess.run(
        service_cmd(args, baseline_dir, "run", args.workers[0]),
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    baseline_dataset = read_bytes(service_paths.dataset_path(baseline_dir))
    baseline_avail = read_bytes(
        service_paths.availability_path(baseline_dir)
    )
    print("  done in {:.0f}s ({} dataset bytes)".format(
        time.time() - started, len(baseline_dataset)), flush=True)

    failures = 0
    for workers in args.workers:
        drill_dir = os.path.join(
            args.out_dir, "drill-w{}".format(workers)
        )
        print("drill (workers={}): SIGKILL mid-epoch-2, then resume"
              .format(workers), flush=True)
        fate = kill_mid_epoch(args, drill_dir, workers)
        print("  child {} with {} epoch-1 batch(es) committed".format(
            fate, committed_batches(
                service_paths.epoch_dir(drill_dir, 1))), flush=True)
        subprocess.run(
            service_cmd(args, drill_dir, "resume", workers),
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        quarantines = service_paths.quarantine_root(drill_dir)
        if os.path.isdir(quarantines) and os.listdir(quarantines):
            print("FAIL(workers={}): clean SIGKILL took the quarantine "
                  "path".format(workers))
            failures += 1
            continue
        dataset = read_bytes(service_paths.dataset_path(drill_dir))
        avail = read_bytes(service_paths.availability_path(drill_dir))
        if dataset != baseline_dataset:
            print("FAIL(workers={}): resumed dataset differs from the "
                  "uninterrupted baseline ({} vs {} bytes)".format(
                      workers, len(dataset), len(baseline_dataset)))
            failures += 1
        elif avail != baseline_avail:
            print("FAIL(workers={}): availability artifact differs "
                  "from the baseline".format(workers))
            failures += 1
        else:
            print("  OK: dataset and availability artifact "
                  "byte-identical to baseline", flush=True)

    if failures:
        return 1
    print("OK: {} drill(s) byte-identical (total {:.0f}s)".format(
        len(args.workers), time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
