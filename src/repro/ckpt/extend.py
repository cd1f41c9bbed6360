"""Incremental campaigns: grow a finished checkpoint, not re-run it.

Follow-up questions — "add a fifth provider", "double the runs per
client", "grow the fleet" — should reuse the weeks of samples a base
campaign already paid for.  An *extension* measures only the delta:

* ``providers`` — the new providers, across the whole base fleet
  (Do53 is skipped: the base already measured it per run),
* ``runs`` — extra runs per client, recorded with ``run_index``
  shifted past the base campaign's runs,
* ``nodes`` — a larger fleet scale, measuring only the node ids the
  base fleet did not contain.

Each extension is itself a full checkpointed campaign in a nested
``ext-<id>/`` directory (crash-safe, resumable, cached), where
``<id>`` is derived from the extension's own fingerprint — re-running
the same ``extend`` command adopts the existing delta instead of
re-measuring it, and the resume counters in the manifests prove it.

Delta semantics: the delta world is built from the *extended* config,
so its conditions are not those of a counterfactual joint run — just
as a real follow-up measurement happens later, under new network
conditions.  What is guaranteed is determinism: the same ``extend``
invocation against the same base always produces the same delta
samples and the same merged dataset bytes
(:meth:`repro.dataset.store.Dataset.merge` appends delta records after
the untouched base records).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Set, Tuple

from repro.ckpt.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    MeasureCheckpoint,
    load_unit_result,
    store_unit_result,
)
from repro.ckpt.fingerprint import campaign_fingerprint
from repro.core.campaign import Campaign, NodeFailure
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.core.world import build_world
from repro.dataset.store import Dataset
from repro.parallel.wirepack import pack_shard_result, unpack_shard_result
from repro.parallel.worker import ShardResult, measure_shard

__all__ = [
    "ExtendResult",
    "ExtensionPlan",
    "extend_campaign",
    "plan_extension",
]


@dataclass(frozen=True)
class ExtensionPlan:
    """One validated extension axis and the config it extends to."""

    kind: str  # "providers" | "runs" | "nodes"
    base_config: ReproConfig
    #: The extended config the delta world is built from.
    config: ReproConfig
    #: ``providers`` kind only: the providers being added.
    providers: Tuple[str, ...] = ()
    #: ``runs`` kind only: shift so delta run indices follow the base's.
    run_index_offset: int = 0
    #: Provider deltas skip Do53 (the base measured it per run).
    include_do53: bool = True


def plan_extension(
    base_config: ReproConfig,
    providers: Sequence[str] = (),
    extra_runs: int = 0,
    scale: Optional[float] = None,
) -> ExtensionPlan:
    """Validate one extension axis against *base_config*.

    Exactly one of *providers*, *extra_runs*, *scale* must be given;
    an extension is one delta with one clear merge rule, so growing
    two axes means two ``extend`` invocations.
    """
    axes = sum((len(providers) > 0, extra_runs > 0, scale is not None))
    if axes != 1:
        raise ValueError(
            "exactly one extension axis required: --provider, "
            "--extra-runs, or --scale"
        )
    if providers:
        from repro.doh.provider import PROVIDER_CONFIGS

        new = tuple(providers)
        unknown = sorted(set(new) - set(PROVIDER_CONFIGS))
        if unknown:
            raise ValueError(
                "unknown provider(s) {}; available: {}".format(
                    unknown, sorted(PROVIDER_CONFIGS)
                )
            )
        already = sorted(set(new) & set(base_config.providers))
        if already:
            raise ValueError(
                "provider(s) {} are already in the base campaign".format(
                    already
                )
            )
        if len(set(new)) != len(new):
            raise ValueError("duplicate providers in extension")
        return ExtensionPlan(
            kind="providers",
            base_config=base_config,
            config=replace(
                base_config, providers=base_config.providers + new
            ),
            providers=new,
            include_do53=False,
        )
    if extra_runs > 0:
        return ExtensionPlan(
            kind="runs",
            base_config=base_config,
            config=replace(base_config, runs_per_client=extra_runs),
            run_index_offset=base_config.runs_per_client,
        )
    if scale <= base_config.population.scale:
        raise ValueError(
            "extension scale {} must exceed the base scale {}".format(
                scale, base_config.population.scale
            )
        )
    config = replace(
        base_config, population=replace(base_config.population, scale=scale)
    )
    # Country floors give neighbouring small scales the same fleet.
    if fleet_node_ids(config) <= fleet_node_ids(base_config):
        raise ValueError(
            "extension scale {} adds no exit node to the base scale {}'s "
            "fleet".format(scale, base_config.population.scale)
        )
    return ExtensionPlan(kind="nodes", base_config=base_config, config=config)


@dataclass
class ExtendResult:
    """A merged dataset plus the delta's provenance."""

    dataset: Dataset
    directory: str
    extension_id: str
    kind: str
    #: The extended config (base config grown along the delta axis).
    config: Optional[ReproConfig] = None
    #: Delta batches replayed from the extension's own checkpoint vs
    #: measured live by this invocation (0 measured = pure cache hit).
    batches_replayed: int = 0
    batches_measured: int = 0
    doh_added: int = 0
    do53_added: int = 0
    clients_added: int = 0
    failures: List[NodeFailure] = field(default_factory=list)


def fleet_node_ids(config: ReproConfig) -> Set[str]:
    """Every exit-node id *config*'s world would build.

    Node ids are ``<country>-<index>`` with per-country counts fixed by
    the deterministic :class:`WorldPlan` fit, so the fleet is knowable
    without building a world.
    """
    counts = WorldPlan.for_config(config).counts
    return {
        "{}-{:04d}".format(code, index)
        for code, count in counts.items()
        for index in range(count)
    }


def _delta_client_seed(config: ReproConfig, fingerprint: str) -> int:
    """A client-stream seed disjoint from every base stream.

    Base streams sit near the world seed (serial ``seed+1``, shard k
    ``seed+1+k``, Atlas ``seed+1+num_shards``); the delta stream is
    pushed far past them and keyed on the extension fingerprint so
    distinct extensions of one base never share query names.
    """
    return config.seed + 100003 + int(fingerprint[:8], 16) % 899989


def extend_campaign(
    base_dir: str,
    dataset: Dataset,
    providers: Sequence[str] = (),
    extra_runs: int = 0,
    scale: Optional[float] = None,
    resume: str = "auto",
    progress=None,
) -> ExtendResult:
    """Grow *dataset* (produced by the checkpoint at *base_dir*) along
    one extension axis; returns the merged dataset plus provenance.

    The delta is measured under a nested checkpoint
    (``<base_dir>/ext-<id>/``) and cached as a ``delta.result`` blob:
    re-invoking the same extension replays it without measuring
    anything, which the returned (and manifest-recorded) resume
    counters make verifiable.  *resume* follows the usual contract —
    ``"auto"`` (default) adopts an interrupted or finished delta,
    ``"force"`` discards and re-measures it.
    """
    base = CampaignCheckpoint.load(base_dir)
    if base.manifest.get("status") != "complete":
        raise CheckpointError(
            "cannot extend checkpoint {!r}: the base campaign is "
            "{!r}; resume it to completion first".format(
                base_dir, base.manifest.get("status")
            )
        )
    plan = plan_extension(
        base.stored_config(), providers=providers,
        extra_runs=extra_runs, scale=scale,
    )
    execution = {
        "mode": "extend",
        "kind": plan.kind,
        "base_fingerprint": base.fingerprint,
        "providers": list(plan.providers),
        "run_index_offset": plan.run_index_offset,
        "include_do53": plan.include_do53,
    }
    fingerprint = campaign_fingerprint(plan.config, execution)
    extension_id = fingerprint[:12]
    ext_dir = os.path.join(base.directory, "ext-{}".format(extension_id))
    if resume == "never":
        # Extensions are idempotent by construction; "never" would make
        # every re-invocation (including the pure cache hit) an error.
        resume = "auto"
    ext = CampaignCheckpoint.open(
        ext_dir, plan.config, execution=execution, resume=resume
    )

    # Imported here, not at the top: the executor imports repro.ckpt.
    from repro.parallel.executor import merge_shard_results

    result_path = os.path.join(ext_dir, "delta.result")
    cached = load_unit_result(result_path, ext.fingerprint)
    if cached is None:
        delta = _measure_delta(plan, ext, progress)
        store_unit_result(
            result_path, ext.fingerprint, pack_shard_result(delta)
        )
    else:
        # Finished in an earlier invocation: nothing measured now.
        delta = unpack_shard_result(cached)
        delta.resumed_batches += delta.measured_batches
        delta.measured_batches = 0
    replayed, measured = delta.resumed_batches, delta.measured_batches
    ext.record_run(
        {
            "units": [
                {
                    "role": "delta",
                    "batches_replayed": replayed,
                    "batches_measured": measured,
                }
            ]
        }
    )
    ext.mark_complete()

    delta_result = merge_shard_results(plan.config, [delta], [])
    delta_dataset = delta_result.dataset
    merged = dataset.merge(delta_dataset)
    entry = {
        "extension": extension_id,
        "fingerprint": fingerprint,
        "kind": plan.kind,
        "providers": list(plan.providers),
        "extra_runs": extra_runs,
        "scale": scale,
        "batches_replayed": replayed,
        "batches_measured": measured,
        "doh_added": len(delta_dataset.doh),
        "do53_added": len(delta_dataset.do53),
        "clients_added": len(merged.clients) - len(dataset.clients),
    }
    base.add_lineage(entry)
    return ExtendResult(
        dataset=merged,
        directory=ext_dir,
        extension_id=extension_id,
        kind=plan.kind,
        config=plan.config,
        batches_replayed=replayed,
        batches_measured=measured,
        doh_added=entry["doh_added"],
        do53_added=entry["do53_added"],
        clients_added=entry["clients_added"],
        failures=delta_result.failures,
    )


def _measure_delta(plan: ExtensionPlan, ext: CampaignCheckpoint,
                   progress) -> ShardResult:
    """Run the delta campaign under *ext*'s ``delta.state``; returns it
    as one shard result (batch counters included)."""
    world = build_world(plan.config)
    campaign = Campaign(
        world,
        atlas_probes_per_country=0,
        client_seed=_delta_client_seed(plan.config, ext.fingerprint),
        client_name_tag="x{}-".format(ext.fingerprint[:6]),
        provider_filter=list(plan.providers) or None,
        run_index_offset=plan.run_index_offset,
        include_do53=plan.include_do53,
    )
    nodes = world.nodes()
    if plan.kind == "nodes":
        base_ids = fleet_node_ids(plan.base_config)
        nodes = [node for node in nodes if node.node_id not in base_ids]
    checkpoint = MeasureCheckpoint(ext.directory, "delta", ext.fingerprint)
    return measure_shard(campaign, nodes, 0, checkpoint, progress)
