"""The sharded parallel campaign executor.

Partitions the exit-node fleet into ``num_shards`` deterministic
shards (see :mod:`repro.parallel.sharding`), runs each shard's
campaign in a worker process (``spawn`` start method — workers receive
only picklable configs, never live worlds), and merges the results
into a single :class:`CampaignResult`.

The merge invariant: the returned dataset is **byte-identical for any
worker count**, because

* the shard partition depends only on ``(config, num_shards,
  max_nodes)``,
* each shard's execution depends only on ``(config, shard spec)`` —
  including every injected fault, whose RNG streams are keyed on
  stable identifiers (see :mod:`repro.faults`),
* merged records are ordered canonically — DoH by ``(node_id,
  run_index, provider)``, Do53 by ``(node_id, run_index)``, clients by
  ``node_id`` — with shard index as the stable tiebreak.

Every run dispatches the same shard and Atlas tasks through a pool
(:mod:`repro.parallel.pool`).  ``workers=1`` uses the
:class:`~repro.parallel.pool.InlinePool`, which runs them in this
process; more workers use a persistent
:class:`~repro.parallel.pool.WarmWorkerPool`: worker processes are
spawned once, get the ``(config, WorldPlan)`` pair pickled once per
campaign (:meth:`WarmWorkerPool.prime`) with every task, and ship
samples back as one packed binary blob per shard
(:mod:`repro.parallel.wirepack`).  Either way each worker builds its
world once and restores a pristine snapshot per task.  A worker
process that crashes or hangs is respawned (terminate→kill escalation,
never a deadlocked shutdown) and its task retried up to
``max_shard_retries`` times; a task that keeps failing raises
:class:`ShardExecutionError` naming it — the executor never hangs and
never fails anonymously.  Retries are safe because shard execution is
a pure function of ``(config, spec)``.

Small campaigns fall back to the inline pool automatically: below
:data:`BREAK_EVEN_NODES_PER_SHARD` nodes per shard (measured
break-even: process spawn, prime and one world build per worker cost
more than they save) no process is spawned unless the caller supplies
a pool.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Union

from repro.ckpt.checkpoint import CampaignCheckpoint
from repro.core.campaign import AtlasRawSample, CampaignResult
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.dataset.builder import DatasetBuilder
from repro.geo.geolocate import GeolocationService
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.parallel.pool import InlinePool, WarmWorkerPool, WorkItem
from repro.parallel.sharding import DEFAULT_NUM_SHARDS, make_shards
from repro.parallel.wirepack import unpack_atlas_samples, unpack_shard_result
from repro.parallel.worker import (
    AtlasTask,
    ShardResult,
    ShardTask,
    run_atlas_task,
    run_measurement_shard,
)

__all__ = [
    "ShardExecutionError",
    "default_worker_count",
    "merge_shard_results",
    "run_parallel_campaign",
]

ProgressFn = Callable[[int, int], None]


def default_worker_count() -> int:
    """CPUs actually available to this process.

    Prefers ``os.process_cpu_count`` (Python 3.13+: affinity-aware),
    then the scheduler affinity mask (containers with CPU pinning),
    then the raw CPU count.  Never returns less than 1.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
        if count:
            return max(1, count)
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            mask = sched_getaffinity(0)
        except OSError:
            mask = None
        if mask:
            return max(1, len(mask))
    return max(1, os.cpu_count() or 1)


class ShardExecutionError(RuntimeError):
    """A worker task failed permanently (crash, hang or exception)."""

    def __init__(self, label: str, cause: str) -> None:
        super().__init__(
            "worker task {!r} failed permanently: {}".format(label, cause)
        )
        self.label = label
        self.cause = cause


#: Below this many exit nodes per shard, pool overhead (process spawn,
#: prime, one world build per worker) exceeds the measurement work it
#: parallelises; campaigns under the line run inline instead.
BREAK_EVEN_NODES_PER_SHARD = 32


def run_parallel_campaign(
    config: ReproConfig,
    workers: Optional[int] = 1,
    num_shards: Optional[int] = None,
    atlas_probes_per_country: int = 8,
    atlas_repetitions: int = 2,
    max_nodes: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    shard_timeout_s: Optional[float] = None,
    max_shard_retries: int = 2,
    observe: bool = False,
    checkpoint_dir: Optional[str] = None,
    resume: str = "never",
    run_index_offset: int = 0,
    client_seed_offset: int = 0,
    name_prefix: str = "",
    pool: Optional[Union[WarmWorkerPool, InlinePool]] = None,
    plan: Optional[WorldPlan] = None,
) -> CampaignResult:
    """Run the full campaign across *workers* processes.

    ``workers=None`` sizes the pool to the CPUs available to this
    process (:func:`default_worker_count`).  When the effective worker
    count is 1, every task runs in this process on an
    :class:`~repro.parallel.pool.InlinePool` — no spawn, no pickling —
    the fastest single-core execution.

    *num_shards* fixes the fleet partition (default
    :data:`DEFAULT_NUM_SHARDS`); it is part of the experiment
    definition, while *workers* only controls wall-clock parallelism.
    *progress*, if given, is called as ``progress(done_tasks,
    total_tasks)`` as shard/Atlas tasks complete.  *shard_timeout_s*
    arms the hung-worker watchdog (None = wait forever);
    *max_shard_retries* bounds per-task retries after a worker crash,
    hang or exception.  Both apply to worker processes only.

    *observe* runs every shard with the observability layer on; the
    merged result then carries summed counters, merged histograms and
    all shard traces.  The dataset stays byte-identical either way.

    *checkpoint_dir* makes the run crash-safe (see :mod:`repro.ckpt`):
    every shard commits its batches to a sealed ``<role>.state``
    there, completed units persist ``<role>.result`` blobs, and a
    rerun with *resume* ``"auto"`` skips finished units, resumes
    interrupted ones from their ``.state``, and produces a dataset
    byte-identical to an uninterrupted run.

    *run_index_offset*/*client_seed_offset*/*name_prefix* give one
    campaign an identity within a longer sequence (the epoch plumbing
    of :mod:`repro.service`): emitted ``run_index`` values are shifted
    by the offset, every shard's client RNG stream is moved by
    *client_seed_offset*, and *name_prefix* is prepended to the shard
    query-name tags so distinct campaigns stay structurally disjoint.
    All three are part of the checkpoint fingerprint.

    *pool*, if given, is an already-running pool this campaign
    dispatches through (and leaves running — the caller owns its
    lifetime; the service supervisor reuses one pool, and so one warm
    world per worker, across epochs this way; tests and benchmarks
    that need worker processes at any size pass one too).  Without
    one, the run creates a temporary pool, inline when the fleet has
    fewer than :data:`BREAK_EVEN_NODES_PER_SHARD` nodes per shard, so
    small campaigns never pay process overhead.  *plan* is the config's
    :class:`WorldPlan` when the caller already derived it.  None of
    these affect the dataset: every pool is byte-identical by
    construction.
    """
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if num_shards is None:
        num_shards = DEFAULT_NUM_SHARDS
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")

    # The deterministic, RNG-free slice of every world build, computed
    # once here instead of once per worker process.
    if plan is None:
        plan = WorldPlan.for_config(config)

    # Break-even fallback: the plan's fitted counts are exactly the
    # fleet the world will build.  An explicit pool means the caller
    # already chose.  A worker_crash drill is never downgraded: its
    # os._exit needs a worker process to land in, not this one.
    fleet = plan.fleet_size()
    if max_nodes is not None:
        fleet = min(fleet, max_nodes)
    crash_drill = (
        config.faults is not None
        and config.faults.worker_crash is not None
    )
    if (pool is None and not crash_drill
            and fleet < BREAK_EVEN_NODES_PER_SHARD * num_shards):
        workers = 1

    checkpoint: Optional[CampaignCheckpoint] = None
    fingerprint = ""
    if checkpoint_dir is not None:
        # The execution shape is part of the fingerprint: resuming
        # under a different partition (or Atlas supplement) would
        # splice records from two different experiment definitions.
        checkpoint = CampaignCheckpoint.open(
            checkpoint_dir,
            config,
            execution={
                "mode": "parallel",
                "num_shards": num_shards,
                "max_nodes": max_nodes,
                "atlas_probes_per_country": atlas_probes_per_country,
                "atlas_repetitions": atlas_repetitions,
                "observe": observe,
                "run_index_offset": run_index_offset,
                "client_seed_offset": client_seed_offset,
                "name_prefix": name_prefix,
            },
            resume=resume,
            plan=plan,
        )
        fingerprint = checkpoint.fingerprint

    # The (config, plan) pair reaches the workers once, through the
    # pool prime; each task carries only its per-unit fields.
    specs = make_shards(num_shards, max_nodes=max_nodes)
    items: List[WorkItem] = [
        (
            run_measurement_shard,
            ShardTask(
                spec, observe=observe,
                checkpoint_dir=checkpoint_dir, fingerprint=fingerprint,
                run_index_offset=run_index_offset,
                client_seed_offset=client_seed_offset,
                name_prefix=name_prefix,
            ),
            "shard-{}".format(spec.shard_index),
        )
        for spec in specs
    ]
    if atlas_probes_per_country > 0:
        atlas_task = AtlasTask(
            probes_per_country=atlas_probes_per_country,
            repetitions=atlas_repetitions,
            # Past every shard's client stream (they use seed+1+k for
            # k < num_shards), so Atlas query names never collide.
            client_seed=config.seed + 1 + num_shards + client_seed_offset,
            name_tag=name_prefix + "a-",
            checkpoint_dir=checkpoint_dir,
            fingerprint=fingerprint,
        )
        items.append((run_atlas_task, atlas_task, "atlas"))

    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(items))

    owns_pool = pool is None
    if owns_pool:
        pool = (
            InlinePool() if workers == 1
            else WarmWorkerPool(min(workers, len(items)))
        )
    try:
        pool.prime(config, plan)
        outputs = pool.run_items(
            items,
            timeout_s=shard_timeout_s,
            max_retries=max_shard_retries,
            tick=tick,
        )
    finally:
        if owns_pool:
            pool.close()
    shard_results = [
        unpack_shard_result(blob) for blob in outputs[: len(specs)]
    ]
    atlas_samples = (
        unpack_atlas_samples(outputs[len(specs)])
        if atlas_probes_per_country > 0 else []
    )

    result = merge_shard_results(config, shard_results, atlas_samples)
    if checkpoint is not None:
        checkpoint.complete(
            {
                "workers": workers,
                "units": [
                    {
                        "role": "shard-{}".format(r.shard_index),
                        "batches_replayed": r.resumed_batches,
                        "batches_measured": r.measured_batches,
                    }
                    for r in sorted(
                        shard_results, key=lambda r: r.shard_index
                    )
                ],
            }
        )
    return result


def merge_shard_results(
    config: ReproConfig,
    shard_results: List[ShardResult],
    atlas_samples: List[AtlasRawSample],
) -> CampaignResult:
    """Combine shard outputs into one canonical :class:`CampaignResult`.

    ``ckpt extend`` merges its one delta result here too.
    """
    shard_results = sorted(shard_results, key=lambda r: r.shard_index)

    snapshot = None
    for result in shard_results:
        if result.geo_snapshot is not None:
            snapshot = result.geo_snapshot
            break
    if snapshot is None:
        raise RuntimeError("no shard shipped a geolocation snapshot")
    geolocation = GeolocationService.from_snapshot(
        snapshot, error_rate=config.geolocation_error_rate
    )

    kept_doh = [raw for result in shard_results for raw in result.kept_doh]
    kept_do53 = [raw for result in shard_results for raw in result.kept_do53]
    # Canonical merge order; the sort is stable and shard inputs are
    # already in (shard_index, execution) order, so ties (records
    # without a node id) stay deterministic too.
    kept_doh.sort(key=lambda raw: (raw.node_id, raw.run_index, raw.provider))
    kept_do53.sort(key=lambda raw: (raw.node_id, raw.run_index))

    # Node ids are unique across shards, so node_id alone is a total,
    # partition-independent order for failure records.
    failures = sorted(
        (f for result in shard_results for f in result.failures),
        key=lambda f: f.node_id,
    )

    builder = DatasetBuilder(
        geolocation,
        min_clients_per_country=config.population.analyzed_threshold,
    )
    for result in shard_results:
        builder.ingest_qname_map(result.qname_map)

    clients = {}
    for result in shard_results:
        for node_id, ip, country in result.client_entries:
            clients.setdefault(node_id, (ip, country))
    for node_id in sorted(clients):
        ip, country = clients[node_id]
        builder.add_client(node_id, ip, country)

    for raw in kept_doh:
        builder.add_doh(raw)
    for raw in kept_do53:
        builder.add_do53(raw)
    for probe_id, country, index, time_ms in atlas_samples:
        builder.add_atlas_do53(probe_id, country, index, time_ms)

    # Deterministic observability merge: shard_results is already in
    # shard-index order, so counter sums and histogram folds associate
    # identically for any worker count.  Gauges live under shard-unique
    # names and are exempt from that guarantee (wall clock).
    metrics_snapshot = None
    traces = None
    if any(result.metrics is not None for result in shard_results):
        merged = MetricsRegistry()
        recorder = TraceRecorder()
        for result in shard_results:
            if result.metrics is not None:
                merged.merge_snapshot(result.metrics)
            if result.traces is not None:
                recorder.merge_snapshot(result.traces)
        metrics_snapshot = merged.snapshot()
        traces = recorder

    return CampaignResult(
        dataset=builder.build(),
        raw_doh=kept_doh,
        raw_do53=kept_do53,
        discarded_doh=sum(r.dropped_doh for r in shard_results),
        discarded_do53=sum(r.dropped_do53 for r in shard_results),
        failures=failures,
        metrics=metrics_snapshot,
        traces=traces,
    )
