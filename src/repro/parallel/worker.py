"""Spawn-safe worker entry points for the sharded campaign executor.

Workers never receive a live :class:`~repro.core.world.World` — worlds
hold generator-based simulator state and cannot cross a process
boundary.  Instead every worker (a pool process, or the caller's own
process for the inline pool) holds one :class:`WarmWorld`: the world
of the ``(ReproConfig, WorldPlan)`` pair the pool primed, built once
and restored to its pristine post-boot state for every task.  A task
carries only its per-unit fields, runs its slice of the campaign, and
ships its result back as one wirepack blob (see :func:`measure_shard`
for what it holds) — the same bytes a checkpointed task keeps as its
sealed ``<role>.result``.  Shard 0's result also holds a snapshot of
the geolocation database, so the parent can rebuild an identical
service without building a world itself.

Everything here must stay importable at module top level — the
``spawn`` start method pickles functions by qualified name.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ckpt.checkpoint import (
    MeasureCheckpoint,
    load_unit_result,
    store_unit_result,
)
from repro.ckpt.worldstate import capture_world_state, restore_world_state
from repro.core.campaign import Campaign, NodeFailure
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.validation import filter_mismatched
from repro.core.world import World, build_world, install_faults
from repro.geo.geolocate import GeoRecord
from repro.obs import Observability
from repro.parallel.sharding import ShardSpec, shard_items
from repro.parallel.wirepack import (
    pack_atlas_samples,
    pack_shard_result,
    unpack_shard_result,
)
from repro.proxy.exitnode import ExitNode

__all__ = [
    "AtlasTask",
    "ShardResult",
    "ShardTask",
    "WarmWorld",
    "measure_shard",
    "run_atlas_task",
    "run_measurement_shard",
]


def _builds_same_world(a: ReproConfig, b: ReproConfig) -> bool:
    """Whether configs *a* and *b* differ in nothing but their fault
    plans, so a world built for one can be re-targeted to the other."""
    return dataclasses.replace(a, faults=None) == dataclasses.replace(
        b, faults=None
    )


class WarmWorld:
    """The one world a worker measures on: built once, restored per task.

    Holds the primed ``(config, plan)`` pair, the built world, its
    pristine post-boot snapshot and a dirty flag.  :meth:`checkout`
    rebuilds only on first use, after a checkout without a matching
    :meth:`release` (its task raised or died mid-simulation, or the
    checkout itself failed), or when the primed config differs from the
    world's in more than its fault plan.  Otherwise it restores the
    snapshot, which costs milliseconds against a fraction of a second
    per build, and when only the fault plan changed (the service's next
    epoch) re-targets the world with
    :func:`~repro.core.world.install_faults`.  Either way the world it
    returns measures exactly like a fresh ``build_world(config, plan)``.
    """

    def __init__(self) -> None:
        self.config: Optional[ReproConfig] = None
        self.plan: Optional[WorldPlan] = None
        self.world: Optional[World] = None
        self.pristine: Optional[Dict] = None
        self.dirty = False
        #: Checkouts so far; a task runner compares it before and after
        #: a task to tell whether that task took the world.
        self.checkouts = 0

    def prime(self, config: ReproConfig, plan: WorldPlan) -> None:
        """Serve *config* from the next checkout on.

        The built world is kept; the next checkout decides whether it
        can serve the new config.
        """
        self.config = config
        self.plan = plan

    def checkout(self) -> World:
        """The world for the primed config, in its pristine state.

        Marks the world dirty before touching it, until :meth:`release`.
        """
        config = self.config
        if config is None:
            raise RuntimeError("worker is not primed (no config installed)")
        world = self.world
        rebuild = (
            world is None
            or self.dirty
            or not _builds_same_world(world.config, config)
        )
        self.dirty = True
        self.checkouts += 1
        if rebuild:
            # Drop the old world first: two at once would double the
            # worker's peak memory.
            self.world = self.pristine = None
            world = build_world(config, plan=self.plan)
            # Drain the t=0 boot events so the pristine snapshot sits at
            # a batch boundary (capture refuses a non-drained heap).
            world.sim.run()
            self.pristine = capture_world_state(world)
            self.world = world
        else:
            restore_world_state(world, self.pristine)
            if world.config != config:
                install_faults(world, config)
                self.pristine = capture_world_state(world)
        return world

    def release(self) -> None:
        """Mark the checked-out world reusable: its task finished."""
        self.dirty = False


@dataclass(frozen=True)
class ShardTask:
    """One measurement shard.  Config and plan are not part of it: the
    worker holds them from the pool prime."""

    spec: ShardSpec
    #: Run the shard with the observability layer on; the worker ships
    #: metrics/trace snapshots back as plain data.  Never affects the
    #: measured records themselves.
    observe: bool = False
    #: Campaign checkpoint directory (see :mod:`repro.ckpt`).  When
    #: set, the shard commits every batch to ``shard-<k>.state``,
    #: resumes from it on a retry after a crash, and is skipped
    #: entirely when its ``shard-<k>.result`` blob already matches
    #: *fingerprint*.
    checkpoint_dir: Optional[str] = None
    fingerprint: str = ""
    #: Epoch plumbing for the longitudinal service (``repro.service``):
    #: shifts every emitted ``run_index`` so samples carry which time
    #: slice produced them, offsets the client RNG stream, and prefixes
    #: query names — all structural, so distinct epochs can never
    #: collide even at equal seeds.
    run_index_offset: int = 0
    client_seed_offset: int = 0
    name_prefix: str = ""


@dataclass(frozen=True)
class AtlasTask:
    """The RIPE Atlas supplement, run as its own deterministic task.

    Atlas measures on a pristine world of its own (rather than
    piggybacking on shard 0) so its results do not depend on how the
    fleet was partitioned.
    """

    probes_per_country: int
    repetitions: int
    #: Client-stream seed, chosen by the executor to diverge from every
    #: measurement shard.
    client_seed: int
    name_tag: str = "a-"
    #: Checkpoint directory; a matching ``atlas.result`` blob short-
    #: circuits the task (Atlas is one atomic unit, not batched).
    checkpoint_dir: Optional[str] = None
    fingerprint: str = ""


@dataclass
class ShardResult:
    """Plain-data outcome of one measurement shard."""

    shard_index: int
    kept_doh: List[DohRaw] = field(default_factory=list)
    kept_do53: List[Do53Raw] = field(default_factory=list)
    dropped_doh: int = 0
    dropped_do53: int = 0
    #: Reduced auth-server log: first resolver to ask for each qname.
    qname_map: List[Tuple[str, str]] = field(default_factory=list)
    #: ``(node_id, ip, claimed_country)`` for every measured node.
    client_entries: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Geolocation database snapshot (shard 0 only, None elsewhere).
    geo_snapshot: Optional[Dict[int, GeoRecord]] = None
    #: Nodes whose task failed every retry (fault-injected campaigns).
    failures: List[NodeFailure] = field(default_factory=list)
    #: Observability snapshots (None when the shard ran unobserved):
    #: :meth:`MetricsRegistry.snapshot` / :meth:`TraceRecorder.snapshot`
    #: plain-data forms, mergeable in the parent in shard-index order.
    metrics: Optional[Dict] = None
    traces: Optional[List[Dict]] = None
    #: Resume bookkeeping for the campaign manifest: batches replayed
    #: from the shard's ``.state`` vs measured live by this invocation.
    resumed_batches: int = 0
    measured_batches: int = 0


def measure_shard(
    campaign: Campaign,
    nodes: Sequence[ExitNode],
    shard_index: int,
    checkpoint: Optional[MeasureCheckpoint] = None,
) -> ShardResult:
    """Measure *nodes* with *campaign* and return the outcome as a
    :class:`ShardResult`: Maxmind-validated records with discard
    counts, the auth server's query log reduced to ``(qname,
    resolver_ip)`` pairs for the PoP join, the measured nodes' client
    rows, the geolocation snapshot (shard 0 only) and batch counters.

    *checkpoint*, if given, commits every batch to the unit's
    ``.state``.  The shard worker and ``ckpt extend``'s delta both
    build their result this way.
    """
    raw_doh, raw_do53 = campaign.measure(nodes, checkpoint=checkpoint)
    world = campaign.world
    kept_doh, dropped_doh = filter_mismatched(raw_doh, world.geolocation)
    kept_do53, dropped_do53 = filter_mismatched(raw_do53, world.geolocation)

    qname_map: Dict[str, str] = {}
    for entry in world.auth_server.query_log:
        qname_map.setdefault(str(entry.qname), entry.src_ip)

    measured_ids = {raw.node_id for raw in kept_doh if raw.node_id}
    measured_ids.update(raw.node_id for raw in kept_do53 if raw.node_id)

    batch_size = max(1, world.config.batch_size)
    num_batches = (len(nodes) + batch_size - 1) // batch_size
    resumed = checkpoint.resumed_batches if checkpoint is not None else 0
    return ShardResult(
        shard_index=shard_index,
        kept_doh=kept_doh,
        kept_do53=kept_do53,
        dropped_doh=len(dropped_doh),
        dropped_do53=len(dropped_do53),
        qname_map=sorted(qname_map.items()),
        client_entries=[
            (node.node_id, node.ip, node.claimed_country)
            for node in nodes
            if node.node_id in measured_ids
        ],
        geo_snapshot=(
            world.geolocation.snapshot() if shard_index == 0 else None
        ),
        failures=list(campaign.failures),
        resumed_batches=resumed,
        measured_batches=num_batches - resumed,
    )


def run_measurement_shard(task: ShardTask, warm: WarmWorld) -> bytes:
    """Measure this shard's slice of the fleet on *warm*'s world.

    Returns the result packed by
    :func:`~repro.parallel.wirepack.pack_shard_result`; the parent
    decodes it with :func:`~repro.parallel.wirepack.unpack_shard_result`.
    A shard whose sealed ``.result`` blob already matches the
    fingerprint never checks a world out.
    """
    spec = task.spec
    role = "shard-{}".format(spec.shard_index)
    checkpoint: Optional[MeasureCheckpoint] = None
    result_path = None
    if task.checkpoint_dir:
        result_path = os.path.join(task.checkpoint_dir, role + ".result")
        cached = load_unit_result(result_path, task.fingerprint)
        if cached is not None:
            # The shard finished in an earlier run; nothing measured
            # this invocation (re-stamp the per-run counters).
            result = unpack_shard_result(cached)
            result.resumed_batches += result.measured_batches
            result.measured_batches = 0
            return pack_shard_result(result)
        checkpoint = MeasureCheckpoint(
            task.checkpoint_dir, role, task.fingerprint
        )
    obs = Observability() if task.observe else None
    wall_start = time.perf_counter()
    world = warm.checkout()
    config = world.config
    campaign = Campaign(
        world,
        atlas_probes_per_country=0,
        client_seed=spec.client_seed(config.seed) + task.client_seed_offset,
        client_name_tag=task.name_prefix + spec.name_tag(),
        obs=obs,
        shard_index=spec.shard_index,
        run_index_offset=task.run_index_offset,
    )
    result = measure_shard(
        campaign, shard_items(world.nodes(), spec), spec.shard_index,
        checkpoint,
    )
    if obs is not None:
        obs.metrics.set_counter("campaign.discarded_doh", result.dropped_doh)
        obs.metrics.set_counter(
            "campaign.discarded_do53", result.dropped_do53
        )
        # Wall clock is inherently nondeterministic: a gauge under a
        # shard-unique name, never a counter, so determinism tests can
        # compare counters/histograms and ignore gauges wholesale.
        obs.metrics.set_gauge(
            "shard.{}.wall_s".format(spec.shard_index),
            time.perf_counter() - wall_start,
        )
        result.metrics = obs.metrics.snapshot()
        result.traces = obs.trace.snapshot()
    blob = pack_shard_result(result)
    if result_path is not None:
        store_unit_result(result_path, task.fingerprint, blob)
    return blob


def run_atlas_task(task: AtlasTask, warm: WarmWorld) -> bytes:
    """Run only the RIPE Atlas supplement on *warm*'s world.

    Returns the samples packed for transport; the parent decodes them
    with :func:`~repro.parallel.wirepack.unpack_atlas_samples`.
    """
    result_path = None
    if task.checkpoint_dir:
        result_path = os.path.join(task.checkpoint_dir, "atlas.result")
        cached = load_unit_result(result_path, task.fingerprint)
        if cached is not None:
            return cached
    campaign = Campaign(
        warm.checkout(),
        atlas_probes_per_country=task.probes_per_country,
        atlas_repetitions=task.repetitions,
        client_seed=task.client_seed,
        client_name_tag=task.name_tag,
    )
    blob = pack_atlas_samples(campaign.collect_atlas())
    if result_path is not None:
        store_unit_result(result_path, task.fingerprint, blob)
    return blob
