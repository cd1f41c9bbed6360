"""Run manifests: every dataset ships with its own provenance.

A manifest answers "what produced these bytes?" without re-running
anything: the config hash and seed, the fault plan, the shard layout,
the package version, aggregate metrics and per-phase timings.  It is
written *next to* the dataset (``dataset.manifest.json`` beside
``dataset.json``) so the dataset files themselves stay byte-identical
to the non-observed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, Optional

from repro.ioutil import atomic_write_json

__all__ = [
    "build_manifest",
    "config_hash",
    "sidecar_path",
    "write_manifest",
]


def config_hash(config) -> str:
    """Stable hex digest of a :class:`~repro.core.config.ReproConfig`.

    Dataclass ``repr`` is deterministic and covers every field
    (population, latency params, fault plan included), so two configs
    hash equal exactly when they define the same experiment.
    """
    digest = hashlib.blake2b(
        repr(config).encode("utf-8"), digest_size=16
    )
    return digest.hexdigest()


def sidecar_path(dataset_path: str, kind: str) -> str:
    """Path of a *kind* sidecar next to *dataset_path*.

    ``sidecar_path("out/ds.json", "manifest") == "out/ds.manifest.json"``
    """
    base, _ext = os.path.splitext(dataset_path)
    return "{}.{}.json".format(base, kind)


def build_manifest(
    config,
    dataset=None,
    dataset_path: Optional[str] = None,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    metrics: Optional[Dict] = None,
    phases: Optional[Dict] = None,
    command: str = "",
    checkpoint: Optional[Dict] = None,
    availability: Optional[Dict] = None,
    service: Optional[Dict] = None,
) -> Dict:
    """Assemble the manifest dict for one finished campaign.

    *metrics* is a :meth:`MetricsRegistry.snapshot`; *phases* is the
    per-provider phase aggregate from
    :func:`repro.analysis.phases.phase_summary`.  Both are None when
    observability was off — the manifest still records provenance.

    *checkpoint*, for checkpointed runs, records resume provenance: the
    checkpoint directory and fingerprint, the per-run resume counters
    (batches replayed from a ``.state`` or ``.result`` vs measured
    live), and the extension lineage (see :mod:`repro.ckpt`).  None
    for plain runs.

    *availability* and *service*, for longitudinal service runs
    (:mod:`repro.service`), carry the compact SLO summary and the
    service identity/progress block.  None for one-shot campaigns.
    """
    from repro import __version__  # local import: repro imports core

    manifest: Dict = {
        "repro_version": __version__,
        "created_at_unix": round(time.time(), 3),
        "command": command,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "scale": config.population.scale,
        "providers": list(config.providers),
        "runs_per_client": config.runs_per_client,
        "tls_version": config.tls_version,
        "measurement_domain": config.measurement_domain,
        "batch_size": config.batch_size,
        "geolocation_error_rate": config.geolocation_error_rate,
        "fault_plan": repr(config.faults) if config.faults else None,
        "shard_layout": {
            "num_shards": num_shards,
            "workers": workers,
        },
        "metrics": metrics,
        "phases": phases,
        "checkpoint": checkpoint,
        "availability": availability,
        "service": service,
    }
    if dataset is not None:
        manifest["dataset"] = {
            "path": dataset_path,
            "clients": len(dataset.clients),
            "doh_samples": len(dataset.doh),
            "do53_samples": len(dataset.do53),
            "countries": len(dataset.countries()),
        }
    return manifest


def write_manifest(path: str, manifest: Dict) -> str:
    """Write *manifest* as sorted, indented JSON; returns *path*.

    The write is atomic (tmp + rename) so a kill mid-save never leaves
    a truncated sidecar next to a good dataset.
    """
    return atomic_write_json(
        path, manifest, indent=2, sort_keys=True, trailing_newline=True
    )
