"""Correctness gate: check one run's outputs before its numbers count.

Every run must leave the files its workload writes, with sample counts
that match what the configuration implies.  The dataset digest (and a
service's availability-artifact digest) must equal the digest pinned in
``pins.json`` for that workload and seed; at an unpinned seed the
digests are printed so a parent and a change can be compared.  A
pooled-observed run's traces must reconcile with its dataset, and a
service run must exit 0 with a journal whose final digest matches the
published dataset.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from workloads import ATLAS_COUNTRIES, ATLAS_REPETITIONS, Workload

__all__ = ["Verdict", "file_digest", "load_pins", "verify"]

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "pins.json")

#: Share of the fleet a run may lose to the geolocation discard (and,
#: under faults, to nodes that failed permanently).
MAX_NODE_LOSS = 0.05


@dataclass
class Verdict:
    """The gate's findings for one run."""

    ok: bool = True
    problems: List[str] = field(default_factory=list)
    samples: int = 0
    failed_samples: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    pinned: bool = False

    def fail(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)


def file_digest(path: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_pins(path: str = PINS) -> Dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def verify(workload: Workload, seed: int, outdir: str, exit_code: int,
           pins: Optional[Dict] = None) -> Verdict:
    """Check the outputs one run of *workload* left in *outdir*."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.fail("entry call exited {}".format(exit_code))
    dataset_path = workload.dataset_path(outdir)
    try:
        with open(dataset_path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        verdict.fail("no readable dataset: {}".format(exc))
        return verdict
    verdict.digests["dataset"] = file_digest(dataset_path)
    _check_counts(workload, data, verdict)
    if workload.kind == "service":
        _check_service(workload, outdir, data, verdict)
    else:
        _check_campaign(workload, outdir, dataset_path, data, verdict)
    _check_pins(workload, seed, verdict,
                load_pins() if pins is None else pins)
    return verdict


def _check_counts(workload: Workload, data: Dict, verdict: Verdict) -> None:
    doh, do53 = data.get("doh", []), data.get("do53", [])
    clients = len(data.get("clients", []))
    sources = Counter(sample.get("source") for sample in do53)
    verdict.samples = len(doh) + len(do53)
    verdict.failed_samples = (
        sum(1 for s in doh if not s["success"])
        + sum(1 for s in do53 if not s["success"]))
    verdict.counts = {"clients": clients, "doh": len(doh),
                      "do53": len(do53),
                      "atlas": sources.get("ripeatlas", 0)}
    fleet = workload.fleet_size()
    if not fleet * (1 - MAX_NODE_LOSS) <= clients <= fleet:
        verdict.fail("{} clients for a fleet of {}".format(clients, fleet))
    providers, runs = len(workload.providers), workload.runs()
    if {s["provider"] for s in doh} != set(workload.providers):
        verdict.fail("providers differ from the configured ones")
    if {s["run_index"] for s in doh} != set(range(runs)):
        verdict.fail("run indexes differ from 0..{}".format(runs - 1))
    if workload.kind == "service":
        # Faults may lose a node's samples in an epoch, never add any.
        per_cell = Counter((s["node_id"], s["provider"], s["run_index"])
                           for s in doh)
        if per_cell and max(per_cell.values()) > 1:
            verdict.fail("a node has two DoH samples for one run")
        low = (1 - MAX_NODE_LOSS) * clients * providers * runs
        if not low <= len(doh) <= clients * providers * runs:
            verdict.fail("{} DoH samples, expected about {}".format(
                len(doh), clients * providers * runs))
        return
    # Every client is measured once per provider and run; its Do53
    # samples can be dropped as a whole (geolocation discard).
    per_client = Counter(s["node_id"] for s in doh)
    if len(doh) != clients * providers * runs or set(
            per_client.values()) != {providers * runs}:
        verdict.fail("{} DoH samples, config implies {} per client".format(
            len(doh), providers * runs))
    brightdata = Counter(s["node_id"] for s in do53
                         if s["source"] == "brightdata")
    if (not set(brightdata.values()) <= {runs}
            or len(brightdata) < (1 - MAX_NODE_LOSS) * clients):
        verdict.fail("{} BrightData Do53 samples over {} clients, config "
                     "implies {} per client".format(
                         sum(brightdata.values()), len(brightdata), runs))
    atlas_max = ATLAS_COUNTRIES * workload.atlas_probes * ATLAS_REPETITIONS
    if not 0 < sources.get("ripeatlas", 0) <= atlas_max:
        verdict.fail("{} Atlas samples, config allows 1..{}".format(
            sources.get("ripeatlas", 0), atlas_max))


def _check_campaign(workload: Workload, outdir: str, dataset_path: str,
                    data: Dict, verdict: Verdict) -> None:
    base = os.path.splitext(dataset_path)[0]
    try:
        with open(base + ".manifest.json") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        verdict.fail("no readable manifest: {}".format(exc))
        return
    recorded = manifest.get("dataset", {})
    if (recorded.get("doh_samples"), recorded.get("do53_samples")) != (
            len(data["doh"]), len(data["do53"])):
        verdict.fail("manifest sample counts differ from the dataset")
    if workload.csv:
        csv_dir = os.path.join(outdir, "csv")
        rows = {}
        for name in sorted(os.listdir(csv_dir)):
            with open(os.path.join(csv_dir, name), "rb") as handle:
                rows[name] = sum(1 for _ in handle) - 1
        verdict.digests["csv"] = _dir_digest(csv_dir)
        if sorted(rows.values()) != sorted(
                [len(data["clients"]), len(data["doh"]),
                 len(data["do53"])]):
            verdict.fail("CSV row counts {} differ from the dataset".format(
                rows))
    if workload.observe:
        from repro.analysis.phases import reconcile_with_dataset
        from repro.dataset.store import Dataset
        from repro.obs.trace import TraceRecorder

        traces_path = base + ".traces.json"
        if not os.path.exists(traces_path):
            verdict.fail("no traces sidecar")
            return
        report = reconcile_with_dataset(TraceRecorder.load(traces_path),
                                        Dataset.load(dataset_path))
        if not report.ok:
            verdict.fail("traces do not reconcile with the dataset")


def _check_service(workload: Workload, outdir: str, data: Dict,
                   verdict: Verdict) -> None:
    from repro.ckpt.ledger import read_ledger

    service_dir = os.path.join(outdir, "svc")
    availability = os.path.join(service_dir, "dataset.availability.json")
    if not os.path.exists(availability):
        verdict.fail("no availability artifact")
    else:
        verdict.digests["availability"] = file_digest(availability)
    load = read_ledger(os.path.join(service_dir, "journal.jsonl"))
    records = load.records if load is not None else []
    done = [r.payload for r in records if r.kind == "epoch-done"]
    final = [r.payload for r in records if r.kind == "service-done"]
    if len(done) != workload.epochs or len(final) != 1:
        verdict.fail("journal holds {} epoch-done and {} service-done "
                     "records".format(len(done), len(final)))
        return
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(canonical.encode("utf-8"),
                             digest_size=16).hexdigest()
    if final[0].get("dataset_digest") != digest:
        verdict.fail("journal digest differs from the published dataset")
    if (done[-1].get("doh"), done[-1].get("do53")) != (
            len(data["doh"]), len(data["do53"])):
        verdict.fail("journal sample counts differ from the dataset")


def _dir_digest(directory: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(file_digest(os.path.join(directory, name)).encode())
    return digest.hexdigest()


def _check_pins(workload: Workload, seed: int, verdict: Verdict,
                pins: Dict) -> None:
    key = str(workload.program_seed(seed))
    pinned = pins.get(workload.pin_key, {}).get(key)
    if pinned is None:
        return
    verdict.pinned = True
    for kind, expected in sorted(pinned.items()):
        actual = verdict.digests.get(kind)
        if actual != expected:
            verdict.fail("{} digest {} differs from the pinned {}".format(
                kind, actual, expected))
