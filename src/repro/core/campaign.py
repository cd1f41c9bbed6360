"""The full measurement campaign (§3.1, §5.1).

For every exit node in the fleet, the client performs — per run — four
DoH measurements (one per provider) and one Do53 measurement, all
through the same node (session stickiness), with fresh UUID subdomains
throughout.  Two runs per client, as in the paper.

Afterwards:

* data points whose BrightData country label disagrees with the
  Maxmind lookup of the exit /24 are discarded (§3.5),
* Do53 samples from the 11 super-proxy countries are marked invalid
  and replaced by RIPE Atlas measurements (§3.5),
* DoH queries are joined against the authoritative server's log to
  identify the serving PoP (§5.2).

Measurements for different clients run concurrently in simulation
(the real campaign spanned April–May 2021), batched to bound memory.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atlas.api import AtlasClient
from repro.atlas.probes import build_probes
from repro.core.client import MeasurementClient
from repro.core.timeline import Do53Raw, DohRaw
from repro.core.validation import filter_mismatched
from repro.core.world import World
from repro.dataset.builder import DatasetBuilder
from repro.dataset.store import Dataset
from repro.doh.provider import PROVIDER_CONFIGS
from repro.faults.plan import WORKER_CRASH_EXIT
from repro.geo.countries import COUNTRIES, SUPER_PROXY_COUNTRIES
from repro.netsim.engine import SimulationError
from repro.obs import Observability
from repro.obs.collect import collect_world_metrics
from repro.obs.trace import TraceRecorder
from repro.proxy.exitnode import ExitNode

__all__ = ["AtlasRawSample", "Campaign", "CampaignResult", "NodeFailure"]

#: One successful Atlas resolution in raw, mergeable form:
#: ``(probe_id, country, result_index, time_ms)``.
AtlasRawSample = Tuple[str, str, int, float]


@dataclass(frozen=True)
class NodeFailure:
    """A node whose measurement task failed on every attempt.

    The paper's campaign saw these constantly (peers churning away
    mid-session); they are data, not crashes — the campaign records
    them and keeps going.
    """

    node_id: str
    error: str
    attempts: int


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    dataset: Dataset
    raw_doh: List[DohRaw] = field(default_factory=list)
    raw_do53: List[Do53Raw] = field(default_factory=list)
    discarded_doh: int = 0
    discarded_do53: int = 0
    #: Nodes whose task failed every attempt (exceptions, not failed
    #: samples — those stay in raw_doh/raw_do53 with success=False).
    failures: List[NodeFailure] = field(default_factory=list)
    #: Observability artefacts (None when the campaign ran unobserved):
    #: a :meth:`MetricsRegistry.snapshot` dict and the populated
    #: :class:`TraceRecorder`.  They live outside the dataset on
    #: purpose — dataset bytes never depend on observability.
    metrics: Optional[Dict] = None
    traces: Optional[TraceRecorder] = None

    @property
    def discard_rate(self) -> float:
        total = (
            len(self.raw_doh) + len(self.raw_do53)
            + self.discarded_doh + self.discarded_do53
        )
        discarded = self.discarded_doh + self.discarded_do53
        return discarded / total if total else 0.0


class Campaign:
    """Runs the full data collection over a built world."""

    def __init__(
        self,
        world: World,
        atlas_probes_per_country: int = 20,
        atlas_repetitions: int = 2,
        client_seed: Optional[int] = None,
        client_name_tag: str = "",
        max_node_retries: int = 1,
        obs: Optional[Observability] = None,
        provider_filter: Optional[Sequence[str]] = None,
        run_index_offset: int = 0,
        include_do53: bool = True,
        shard_index: Optional[int] = None,
    ) -> None:
        """*client_seed*/*client_name_tag* isolate the measurement
        client's RNG stream and query-name namespace; the sharded
        executor derives both from the shard index so shards diverge
        deterministically (``repro.parallel``).  The defaults reproduce
        the single-process campaign exactly.

        *max_node_retries* bounds how often a node task that raised is
        retried with a fresh session (BrightData-style peer rotation)
        before it becomes a :class:`NodeFailure` record.

        *obs* turns on the observability layer: the client records a
        phase trace per measurement and the campaign scrapes metrics.
        Observation is read-only — the produced records and dataset are
        byte-identical with or without it.

        *provider_filter*/*run_index_offset*/*include_do53* exist for
        incremental campaigns (``repro ckpt extend``): the first
        restricts the per-node plan to a subset of the world's
        providers, the second shifts the recorded ``run_index`` so
        delta runs merge after the base checkpoint's runs, and the
        third skips the per-run Do53 measurement (a provider-only
        delta must not duplicate the base campaign's Do53 samples).
        *shard_index* identifies this campaign to the ``worker_crash``
        fault (None for the serial campaign).
        """
        self.world = world
        self.atlas_probes_per_country = atlas_probes_per_country
        self.atlas_repetitions = atlas_repetitions
        self.max_node_retries = max(0, max_node_retries)
        self.obs = obs
        #: NodeFailure records from the most recent measure() call.
        self.failures: List[NodeFailure] = []
        if client_seed is None:
            client_seed = world.config.seed + 1
        self.client = MeasurementClient(
            world.client_host,
            random.Random(client_seed),
            measurement_domain=world.config.measurement_domain,
            tls_version=world.config.tls_version,
            name_tag=client_name_tag,
            recorder=obs.trace if obs is not None else None,
        )
        # Hot-path lookups hoisted out of the 22k-iteration node loop:
        # the provider list is per-config constant and the super-proxy
        # choice only depends on the (per-country) profile location.
        provider_names = list(world.config.providers)
        if provider_filter is not None:
            wanted = set(provider_filter)
            unknown = wanted - set(provider_names)
            if unknown:
                raise ValueError(
                    "provider_filter names providers not in the world: "
                    "{}".format(sorted(unknown))
                )
            provider_names = [
                name for name in provider_names if name in wanted
            ]
        self._providers = [
            PROVIDER_CONFIGS[name] for name in provider_names
        ]
        self.run_index_offset = run_index_offset
        self.include_do53 = include_do53
        self.shard_index = shard_index
        self._super_proxy_by_country: Dict[str, object] = {}

    # -- per-node measurement plan -------------------------------------------

    def _super_proxy_for(self, node: ExitNode):
        country = node.claimed_country
        cached = self._super_proxy_by_country.get(country)
        if cached is not None:
            return cached
        profile = COUNTRIES.get(country)
        if profile is None:
            # No profile to anchor on: fall back to the node's own
            # location (not cacheable per country).
            return self.world.proxy_network.nearest_super_proxy(
                node.host.location
            )
        super_proxy = self.world.proxy_network.nearest_super_proxy(
            profile.location
        )
        self._super_proxy_by_country[country] = super_proxy
        return super_proxy

    def _node_task(self, node: ExitNode, sink_doh: List[DohRaw],
                   sink_do53: List[Do53Raw]):
        world = self.world
        country = node.claimed_country
        super_proxy = self._super_proxy_for(node)
        providers = self._providers
        offset = self.run_index_offset
        for run_index in range(world.config.runs_per_client):
            for provider in providers:
                raw = yield from self.client.measure_doh(
                    super_proxy,
                    provider,
                    country,
                    node_id=node.node_id,
                    run_index=run_index + offset,
                )
                sink_doh.append(raw)
            if not self.include_do53:
                continue
            raw53 = yield from self.client.measure_do53(
                super_proxy,
                country,
                node_id=node.node_id,
                run_index=run_index + offset,
            )
            sink_do53.append(raw53)

    def _guarded_node_task(self, node: ExitNode, sink_doh: List[DohRaw],
                           sink_do53: List[Do53Raw]):
        """Run the node's plan, isolating failures into records.

        Each attempt buffers its samples locally and only commits on
        success, so a half-measured attempt never pollutes the sinks;
        a retry is a fresh session with fresh query names (the client's
        RNG stream simply continues, which keeps every draw
        deterministic).  :class:`SimulationError` still propagates — a
        broken simulation must never masquerade as a node failure.
        """
        attempts = 1 + self.max_node_retries
        last_error = ""
        for _attempt in range(attempts):
            local_doh: List[DohRaw] = []
            local_do53: List[Do53Raw] = []
            try:
                yield from self._node_task(node, local_doh, local_do53)
            except SimulationError:
                raise
            except Exception as exc:
                last_error = str(exc) or exc.__class__.__name__
                if self.obs is not None:
                    self.obs.metrics.inc("campaign.task_errors")
                continue
            sink_doh.extend(local_doh)
            sink_do53.extend(local_do53)
            if self.obs is not None:
                self.obs.metrics.inc("campaign.nodes_measured")
            return
        if self.obs is not None:
            self.obs.metrics.inc("campaign.node_failures")
        self.failures.append(
            NodeFailure(
                node_id=node.node_id, error=last_error, attempts=attempts
            )
        )

    # -- execution ------------------------------------------------------------

    def measure(
        self,
        nodes: Optional[Sequence[ExitNode]] = None,
        progress=None,
        checkpoint=None,
    ) -> Tuple[List[DohRaw], List[Do53Raw]]:
        """Run the batched measurement phase only; returns raw records.

        This is the half of :meth:`run` the sharded executor runs in
        worker processes — everything after it (validation, dataset
        build, Atlas) happens on merged records in the parent.

        *checkpoint*, if given, is a
        :class:`~repro.ckpt.checkpoint.MeasureCheckpoint`: every
        committed batch rewrites the unit's sealed ``.state`` (the
        samples of every batch so far plus the world state after this
        one), and a later call with the same checkpoint replays those
        samples, restores the world, and measures only the remaining
        batches — producing byte-identical records (see
        docs/checkpointing.md).
        """
        world = self.world
        sim = world.sim
        if nodes is None:
            nodes = world.nodes()
        raw_doh: List[DohRaw] = []
        raw_do53: List[Do53Raw] = []
        self.failures = []

        resume_batches = 0
        if checkpoint is not None:
            resumed = checkpoint.prepare(self)
            resume_batches = resumed.batches_done
            raw_doh.extend(resumed.doh)
            raw_do53.extend(resumed.do53)
            self.failures.extend(resumed.failures)
            if self.obs is not None:
                metrics = self.obs.metrics
                prefix = "ckpt.{}.".format(checkpoint.role)
                # Gauges, not counters: resume bookkeeping must never
                # break metrics byte-identity between a resumed and an
                # uninterrupted run (determinism checks ignore gauges).
                metrics.set_gauge(prefix + "batches_replayed",
                                  float(resume_batches))
                metrics.set_gauge(prefix + "samples_replayed",
                                  float(resumed.samples_replayed))

        batch_size = max(1, world.config.batch_size)
        # The measurement loop allocates millions of short-lived objects
        # (events, messages, generator frames).  None is left in a
        # reference cycle once its process finishes (a TCP connection
        # pair links through mailboxes, not through its endpoints), so
        # reference counting frees them while the batch runs.  The
        # cyclic collector is paused for the batch and collects the
        # young generation once per drained batch: a backstop that
        # finds nothing on healthy, chaos and observed batches.  The
        # pacing is a pure function of the node order, never wall
        # time, so results are byte-identical with collection at any
        # cadence.
        injector = world.fault_injector
        num_batches = (len(nodes) + batch_size - 1) // batch_size
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for batch_index in range(num_batches):
                start = batch_index * batch_size
                done_nodes = min(start + batch_size, len(nodes))
                if batch_index < resume_batches:
                    # Replayed from the .state; the restored world state
                    # already reflects having measured this batch.
                    if progress is not None:
                        progress(done_nodes, len(nodes))
                    continue
                if injector is not None and injector.worker_crash_due(
                    self.shard_index, batch_index, resume_batches
                ):
                    # Preemption drill: die exactly like the OOM killer
                    # would — no cleanup, no commit of this batch.
                    os._exit(WORKER_CRASH_EXIT)
                batch = nodes[start:start + batch_size]
                doh_before = len(raw_doh)
                do53_before = len(raw_do53)
                failures_before = len(self.failures)
                processes = [
                    sim.spawn(
                        self._guarded_node_task(node, raw_doh, raw_do53),
                        name="measure-{}".format(node.node_id),
                    )
                    for node in batch
                ]
                sim.run()
                for process in processes:
                    if not process.triggered:
                        # A node task that never finished means the batch
                        # deadlocked (an event nobody will trigger).  This
                        # used to be silently ignored, losing measurements.
                        raise SimulationError(
                            "campaign process {!r} did not finish "
                            "(deadlock?)".format(process.name)
                        )
                    if not process.ok:
                        # Only SimulationError escapes the guard; per-node
                        # exceptions became NodeFailure records instead of
                        # aborting the whole batch.
                        raise process.exception  # type: ignore[misc]
                # The heap is drained between batches: drop per-channel
                # bookkeeping so memory (and GC pressure) stays bounded on
                # full-scale runs.
                world.network.forget_flow_state()
                if gc_was_enabled:
                    gc.collect(0)
                if checkpoint is not None:
                    checkpoint.commit_batch(
                        self,
                        raw_doh[doh_before:],
                        raw_do53[do53_before:],
                        self.failures[failures_before:],
                    )
                if progress is not None:
                    progress(done_nodes, len(nodes))
        finally:
            if gc_was_enabled:
                gc.enable()
        if checkpoint is not None and self.obs is not None:
            self.obs.metrics.set_gauge(
                "ckpt.{}.batches_measured".format(checkpoint.role),
                float(num_batches - resume_batches),
            )
        if self.obs is not None:
            self._observe_measurements(raw_doh, raw_do53)
        return raw_doh, raw_do53

    def _observe_measurements(
        self, raw_doh: List[DohRaw], raw_do53: List[Do53Raw]
    ) -> None:
        """Scrape metrics for a finished measurement phase.

        Totals use ``set_counter`` so calling this again (``run()``
        re-scrapes after Atlas) refreshes rather than double-counts;
        histograms are filled exactly once, here.
        """
        metrics = self.obs.metrics
        metrics.set_counter("campaign.raw_doh", len(raw_doh))
        metrics.set_counter("campaign.raw_do53", len(raw_do53))
        metrics.set_counter(
            "campaign.raw_doh_failed",
            sum(1 for raw in raw_doh if not raw.success),
        )
        metrics.set_counter(
            "campaign.raw_do53_failed",
            sum(1 for raw in raw_do53 if not raw.success),
        )
        for raw in raw_doh:
            if raw.success:
                metrics.observe("doh.tunnel_ms", raw.t_b - raw.t_a)
                metrics.observe("doh.exchange_ms", raw.t_d - raw.t_c)
        for raw in raw_do53:
            if raw.success:
                metrics.observe("do53.dns_ms", raw.dns_ms)
        collect_world_metrics(self.world, metrics)

    def run(
        self,
        nodes: Optional[Sequence[ExitNode]] = None,
        progress=None,
    ) -> CampaignResult:
        """Execute the campaign; returns the processed dataset.

        *progress*, if given, is called as ``progress(done, total)``
        after every batch (long full-scale runs print from it).
        """
        world = self.world
        if nodes is None:
            nodes = world.nodes()
        raw_doh, raw_do53 = self.measure(nodes, progress)

        # -- Maxmind validation (discard label mismatches) -----------------
        kept_doh, dropped_doh = filter_mismatched(raw_doh, world.geolocation)
        kept_do53, dropped_do53 = filter_mismatched(raw_do53, world.geolocation)

        builder = DatasetBuilder(
            world.geolocation,
            min_clients_per_country=world.config.population.analyzed_threshold,
        )
        builder.ingest_auth_log(world.auth_server.query_log)

        measured_node_ids = set()
        for raw in kept_doh:
            if raw.node_id:
                measured_node_ids.add(raw.node_id)
        for raw in kept_do53:
            if raw.node_id:
                measured_node_ids.add(raw.node_id)
        node_by_id = {node.node_id: node for node in nodes}
        for node_id in sorted(measured_node_ids):
            node = node_by_id.get(node_id)
            if node is None:
                continue
            builder.add_client(node.node_id, node.ip, node.claimed_country)

        for raw in kept_doh:
            builder.add_doh(raw)
        for raw in kept_do53:
            builder.add_do53(raw)

        # -- RIPE Atlas supplement for the 11 super-proxy countries --------
        self._run_atlas(builder)

        metrics_snapshot = None
        traces = None
        if self.obs is not None:
            # Refresh world totals to cover the Atlas phase too.
            collect_world_metrics(world, self.obs.metrics)
            self.obs.metrics.set_counter("campaign.discarded_doh",
                                         len(dropped_doh))
            self.obs.metrics.set_counter("campaign.discarded_do53",
                                         len(dropped_do53))
            metrics_snapshot = self.obs.metrics.snapshot()
            traces = self.obs.trace

        return CampaignResult(
            dataset=builder.build(),
            raw_doh=kept_doh,
            raw_do53=kept_do53,
            discarded_doh=len(dropped_doh),
            discarded_do53=len(dropped_do53),
            failures=list(self.failures),
            metrics=metrics_snapshot,
            traces=traces,
        )

    def collect_atlas(self) -> List[AtlasRawSample]:
        """Run the RIPE Atlas supplement; returns raw samples.

        Returned tuples are plain data so a worker process can ship
        them back to the parent for merging (``repro.parallel``).
        """
        world = self.world
        samples: List[AtlasRawSample] = []
        if self.atlas_probes_per_country <= 0:
            return samples
        covered = set(world.population.infrastructure)
        target_countries = [
            code for code in SUPER_PROXY_COUNTRIES if code in covered
        ]
        probes = build_probes(
            network=world.network,
            rng=world.rng,
            allocator=world.allocator,
            infrastructure=world.population.infrastructure,
            countries=target_countries,
            probes_per_country=self.atlas_probes_per_country,
        )
        atlas = AtlasClient(world.sim, probes)
        for code in target_countries:
            results = world.run(
                atlas.measure_dns(
                    code,
                    self.client.fresh_name,
                    repetitions=self.atlas_repetitions,
                ),
                name="atlas-{}".format(code),
            )
            for index, result in enumerate(results):
                if result.success:
                    samples.append(
                        (result.probe_id, result.country, index,
                         result.time_ms)
                    )
        return samples

    def _run_atlas(self, builder: DatasetBuilder) -> None:
        for probe_id, country, index, time_ms in self.collect_atlas():
            builder.add_atlas_do53(probe_id, country, index, time_ms)
