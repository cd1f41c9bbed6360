"""The benchmark's workloads: each a closed batch job at a fixed size.

A workload turns the benchmark seed and a fresh output directory into
the argument list of one user-facing entry call, ``repro.cli.main``.
Campaign workloads measure the world of program seed ``BASE_SEED +
seed``, so ``--seed 0`` is the repository's default seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

__all__ = ["BASE_SEED", "WORKLOADS", "Workload", "get"]

#: The program's default seed (the paper's collection started April 2021).
BASE_SEED = 20210402

#: Countries that get the RIPE Atlas supplement (the super-proxy ones).
ATLAS_COUNTRIES = 11
#: Measurement repetitions per Atlas probe (the campaign default).
ATLAS_REPETITIONS = 2
#: Providers a campaign measures (the paper's four).
CAMPAIGN_PROVIDERS = ("cloudflare", "google", "nextdns", "quad9")
#: Runs per client of a one-shot campaign.
CAMPAIGN_RUNS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    kind: str  # "campaign" or "service"
    scale: float
    workers: int = 1
    shards: int = 0  # 0 = the program's default
    observe: bool = False
    csv: bool = False
    atlas_probes: int = 0
    epochs: int = 0
    runs_per_epoch: int = 0
    batch_size: int = 0
    providers: Tuple[str, ...] = CAMPAIGN_PROVIDERS
    #: False when every seed runs the same input (see service-chaos).
    seeded: bool = True
    #: "full" for the benchmark, "tiny" for smoke tests (:meth:`tiny`).
    size: str = "full"

    @property
    def pin_key(self) -> str:
        """Where ``pins.json`` keeps this workload's digests."""
        return self.name if self.size == "full" else self.name + "@tiny"

    def tiny(self) -> "Workload":
        """The same job at its smallest size, for smoke tests."""
        if self.kind == "service":
            return replace(self, epochs=2, providers=self.providers[:1],
                           size="tiny")
        return replace(self, scale=0.005, atlas_probes=1, size="tiny")

    def program_seed(self, seed: int) -> int:
        return BASE_SEED + seed if self.seeded else BASE_SEED

    def dataset_path(self, outdir: str) -> str:
        if self.kind == "service":
            return os.path.join(outdir, "svc", "dataset.json")
        return os.path.join(outdir, "dataset.json")

    def argv(self, seed: int, outdir: str) -> List[str]:
        """The ``repro`` command line for *seed*, writing into *outdir*."""
        program_seed = str(self.program_seed(seed))
        if self.kind == "service":
            argv = ["service", "run", os.path.join(outdir, "svc"),
                    "--master-seed", program_seed,
                    "--scale", repr(self.scale),
                    "--epochs", str(self.epochs),
                    "--runs-per-epoch", str(self.runs_per_epoch),
                    "--shards", str(self.shards),
                    "--batch-size", str(self.batch_size),
                    "--workers", str(self.workers)]
            for provider in self.providers:
                argv += ["--provider", provider]
            return argv
        argv = ["campaign", "--scale", repr(self.scale),
                "--seed", program_seed,
                "--workers", str(self.workers),
                "--atlas-probes", str(self.atlas_probes),
                "--out", self.dataset_path(outdir)]
        if self.shards:
            argv += ["--shards", str(self.shards)]
        if self.observe:
            argv.append("--observe")
        if self.csv:
            argv += ["--csv-dir", os.path.join(outdir, "csv")]
        return argv

    def fleet_size(self) -> int:
        """Exit nodes the program builds at this scale (seed-free)."""
        from repro.proxy.population import PopulationConfig

        return sum(PopulationConfig(scale=self.scale).scaled_counts()
                   .values())

    def runs(self) -> int:
        """Runs per client over the whole job."""
        if self.kind == "service":
            return self.epochs * self.runs_per_epoch
        return CAMPAIGN_RUNS

    def expected_samples(self) -> int:
        """DoH plus Do53 samples if every node is kept and measured."""
        per_run = len(self.providers) + 1
        atlas = ATLAS_COUNTRIES * self.atlas_probes * ATLAS_REPETITIONS
        return self.fleet_size() * per_run * self.runs() + atlas

    def input_size(self) -> Dict[str, object]:
        """The size of the job, for provenance."""
        size: Dict[str, object] = {
            "fleet_nodes": self.fleet_size(),
            "scale": self.scale,
            "workers": self.workers,
            "shards": self.shards or 8,
            "providers": len(self.providers),
            "runs_per_client": self.runs(),
            "expected_samples": self.expected_samples(),
        }
        if self.kind == "service":
            size.update(epochs=self.epochs, batch_size=self.batch_size)
        else:
            size.update(batch_size=400, atlas_probes=self.atlas_probes)
        return size


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="serial-campaign",
        why="whole simulation stack plus dataset, manifest and CSV "
            "output on one core at the 2-node country floor; no pool, "
            "checkpoint, faults or tracing",
        kind="campaign", scale=0.01, workers=1, csv=True, atlas_probes=8,
    ),
    Workload(
        name="pooled-observed",
        why="the only workload where the warm pool (spawn, prime, "
            "wirepack, merge, shutdown) and obs traces do work; larger "
            "skewed fleet grows the geodesic and base-delay caches",
        kind="campaign", scale=0.02, workers=2, observe=True,
        atlas_probes=8,
    ),
    Workload(
        name="service-chaos",
        why="write path: fsync'd ledger batches, state and result blobs, "
            "journal, per-epoch republish; fault paths and one world "
            "build per shard per epoch, inline",
        kind="service", scale=0.005, workers=1, shards=2, epochs=3,
        runs_per_epoch=1, batch_size=40,
        providers=("cloudflare",), seeded=False,
    ),
)}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit("unknown workload {!r}; choose from {}".format(
            name, ", ".join(WORKLOADS)))
