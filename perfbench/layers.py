"""Per-layer metrics of one traced entry call, read from outside.

:class:`LayerProbe` wraps the public calls of each layer with spans
(:mod:`spans`) and reads counters off public attributes after the
calls; :meth:`LayerProbe.metrics` turns what it saw into the
``per_layer`` metrics of BENCHMARK.json.  Nothing under ``src/`` is
edited: the wrappers are installed on the loaded modules and classes
and removed when the call ends.

Inside warm-pool workers nothing is seen; pool work is timed from the
parent (dispatch, first result, straggler, unpack, close).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import profbuckets
import tails
from spans import Instrumentation, SpanRecorder, self_times

__all__ = ["LayerProbe", "PER_LAYER", "profile_metrics", "MB"]

MB = 1e6

#: Layers whose span self time is reported (``cli`` is the remainder of
#: the entry call outside every instrumented call).
SPAN_LAYERS = ("core", "atlas", "dataset", "obs", "parallel", "ckpt",
               "service", "analysis", "cli")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [(layer + ".self_share", "ratio")
     for layer in profbuckets.LAYERS + ("other",)]
    + [("profile.self_s", "s"), ("profile.slowdown", "ratio")]
    + [("netsim.events", "count"),
       ("netsim.base_delay_hit_ratio", "ratio"),
       ("netsim.base_delay_lookups", "count"),
       ("geo.geodesic_hit_ratio", "ratio"),
       ("geo.geodesic_lookups", "count")]
    + [("core.build_world_s", "s"), ("core.build_world_calls", "count"),
       ("core.plan_s", "s"), ("core.measure_s", "s"),
       ("core.filter_s", "s")]
    + [("atlas.collect_s", "s")]
    + [("dataset.build_s", "s"), ("dataset.save_s", "s"),
       ("dataset.csv_s", "s"), ("dataset.mb", "MB")]
    + [("obs.traces", "count"), ("obs.merge_s", "s"),
       ("obs.sidecar_s", "s"), ("obs.traces_mb", "MB")]
    + [("parallel.spawn_s", "s"), ("parallel.prime_s", "s"),
       ("parallel.first_result_s", "s"), ("parallel.dispatch_s", "s"),
       ("parallel.straggler_s", "s"), ("parallel.unpack_s", "s"),
       ("parallel.blob_mb", "MB"), ("parallel.close_s", "s"),
       ("parallel.tail_s", "s"), ("parallel.results", "count")]
    + [("parallel.shard_s.p50", "s"), ("parallel.shard_s.max", "s"),
       ("parallel.shard_s.n", "count")]
    + [("ckpt.commits", "count"), ("ckpt.commit_s", "s"),
       ("ckpt.append_ms.p50", "ms"), ("ckpt.append_ms.tail", "ms"),
       ("ckpt.append_ms.tail_pct", "%"), ("ckpt.append_ms.n", "count"),
       ("ckpt.fsyncs", "count"), ("ckpt.fsync_s", "s"),
       ("ckpt.capture_s", "s"), ("ckpt.result_s", "s"),
       ("ckpt.write_mb", "MB")]
    + [("faults.activations", "count"), ("faults.node_failures", "count")]
    + [("service.epoch_s.p50", "s"), ("service.epoch_s.max", "s"),
       ("service.epochs", "count"), ("service.boundary_s", "s"),
       ("service.journal_appends", "count")]
    + [("analysis.availability_s", "s")]
    + [(layer + ".span_self_s", "s") for layer in SPAN_LAYERS]
    + [("trace.meas_per_s", "meas/s"),
       ("trace.untraced_meas_per_s", "meas/s"),
       ("trace.overhead_share", "ratio"), ("trace.spans", "count")]
)

#: ``(module, name, span)`` for functions wrapped wherever imported.
_FUNCTIONS = (
    ("repro.core.validation", "filter_mismatched", "core.filter"),
    ("repro.dataset.csvio", "export_csv", "dataset.csv"),
    ("repro.obs.manifest", "build_manifest", "obs.sidecar"),
    ("repro.obs.manifest", "write_manifest", "obs.sidecar"),
    ("repro.parallel.wirepack", "unpack_shard_result", "parallel.unpack"),
    ("repro.parallel.wirepack", "unpack_atlas_samples", "parallel.unpack"),
    ("repro.parallel.worker", "run_measurement_shard", "parallel.shard"),
    ("repro.ckpt.worldstate", "capture_world_state", "ckpt.capture"),
    ("repro.ckpt.checkpoint", "store_unit_result", "ckpt.result"),
    ("repro.ckpt.checkpoint", "load_unit_result", "ckpt.result"),
    ("repro.analysis.availability", "availability_report",
     "analysis.availability"),
)

#: ``(module, class, method, span)`` for methods wrapped on the class.
_METHODS = (
    ("repro.core.plan", "WorldPlan", "for_config", "core.plan"),
    ("repro.dataset.builder", "DatasetBuilder", "ingest_auth_log",
     "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "ingest_qname_map",
     "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "add_client",
     "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "add_doh", "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "add_do53",
     "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "add_atlas_do53",
     "dataset.build"),
    ("repro.dataset.builder", "DatasetBuilder", "build", "dataset.build"),
    ("repro.obs.trace", "TraceRecorder", "merge_snapshot", "obs.merge"),
    ("repro.obs.metrics", "MetricsRegistry", "merge_snapshot",
     "obs.merge"),
    ("repro.parallel.pool", "WarmWorkerPool", "__init__",
     "parallel.spawn"),
    ("repro.parallel.pool", "WarmWorkerPool", "prime", "parallel.prime"),
    ("repro.parallel.pool", "WarmWorkerPool", "close", "parallel.close"),
    ("repro.ckpt.checkpoint", "MeasureCheckpoint", "commit_batch",
     "ckpt.commit"),
    ("repro.ckpt.ledger", "LedgerWriter", "append", "ckpt.append"),
    ("repro.service.journal", "ServiceJournal", "append",
     "service.journal_append"),
)

#: Modules imported before wrapping, so that every ``from x import y``
#: the entry call will use is already bound and gets wrapped too.
_PRELOAD = (
    "repro.cli", "repro.parallel.executor", "repro.parallel.pool",
    "repro.service.supervisor", "repro.ckpt.checkpoint",
    "repro.dataset.csvio", "repro.analysis.phases",
)


def _world_counters(world) -> Tuple[int, int, int, int]:
    """(events executed, base-delay hits, misses, fault activations)."""
    latency = world.network.latency
    injector = world.fault_injector
    activations = (sum(injector.activations.values())
                   if injector is not None else 0)
    return (world.sim.events_executed, latency.base_cache_hits,
            latency.base_cache_misses, activations)


def _path(args, kwargs) -> str:
    """The ``path`` argument of a ``save(self, path)`` call."""
    return kwargs["path"] if "path" in kwargs else args[1]


def _io_written() -> int:
    """This process's ``wchar`` write counter (bytes), 0 if unknown."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class LayerProbe:
    """Spans and counters of one traced entry call."""

    def __init__(self, run_id: str) -> None:
        self.recorder = SpanRecorder(run_id)
        self.instrumentation = Instrumentation(self.recorder)
        self.counts: Dict[str, float] = defaultdict(float)
        self.result_times: List[float] = []
        self.dataset_bytes = 0
        self.traces_bytes = 0
        self.entry = None
        self._geo_start = (0, 0)
        self._io_start = 0

    # -- wiring -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module in _PRELOAD:
            importlib.import_module(module)
        inst = self.instrumentation
        for module, name, span in _FUNCTIONS:
            inst.function(module, name, span)
        for module, cls, name, span in _METHODS:
            inst.method(module, cls, name, span)
        self._install_world_hooks()
        self._install_special()

    def _install_world_hooks(self) -> None:
        import repro.core.campaign as campaign_mod
        import repro.core.world as world_mod

        rec, counts = self.recorder, self.counts

        def after_build(_args, _kwargs, world) -> None:
            events, hits, misses, activations = _world_counters(world)
            counts["netsim.events"] += events
            counts["base_hits"] += hits
            counts["base_misses"] += misses
            counts["faults.activations"] += activations

        self.instrumentation.function(
            world_mod.__name__, "build_world", "core.build_world",
            after=after_build)

        def deltas(name: str, original, node_failures: bool):
            def wrapper(campaign, *args, **kwargs):
                before = _world_counters(campaign.world)
                span = rec.begin(name)
                try:
                    return original(campaign, *args, **kwargs)
                finally:
                    rec.end(span)
                    after = _world_counters(campaign.world)
                    for key, old, new in zip(
                            ("netsim.events", "base_hits", "base_misses",
                             "faults.activations"), before, after):
                        counts[key] += new - old
                    if node_failures:
                        counts["faults.node_failures"] += len(
                            campaign.failures)
            return wrapper

        cls = campaign_mod.Campaign
        self.instrumentation.replace(
            cls, "measure", deltas("core.measure", cls.measure, True))
        self.instrumentation.replace(
            cls, "collect_atlas",
            deltas("atlas.collect", cls.collect_atlas, False))

    def _install_special(self) -> None:
        import repro.dataset.store as store_mod
        import repro.obs.trace as trace_mod
        import repro.parallel.pool as pool_mod
        import repro.service.supervisor as supervisor_mod

        rec, inst = self.recorder, self.instrumentation

        def after_save(args, kwargs, _result) -> None:
            self.dataset_bytes = os.path.getsize(_path(args, kwargs))

        inst.method(store_mod.__name__, "Dataset", "save", "dataset.save",
                    after=after_save)

        def after_traces(args, kwargs, _result) -> None:
            self.counts["obs.traces"] += len(args[0])
            self.traces_bytes += os.path.getsize(_path(args, kwargs))

        inst.method(trace_mod.__name__, "TraceRecorder", "save",
                    "obs.sidecar", after=after_traces)

        # Every fsync of the process, whichever module calls it.
        inst.replace(os, "fsync", rec.wrap("ckpt.fsync", os.fsync))

        # Each epoch of the service is one run_parallel_campaign call
        # made by the supervisor (and only by it).
        inst.function(supervisor_mod.__name__, "run_parallel_campaign",
                      "service.epoch", everywhere=False)

        original = pool_mod.WarmWorkerPool.run_items

        def run_items(pool, items, timeout_s=None, max_retries=2,
                      tick=None):
            def timed_tick() -> None:
                self.result_times.append(rec.clock())
                if tick is not None:
                    tick()

            span = rec.begin("parallel.dispatch")
            try:
                outputs = original(pool, items, timeout_s=timeout_s,
                                   max_retries=max_retries,
                                   tick=timed_tick)
            finally:
                rec.end(span)
            for output in outputs:
                payload = getattr(output, "payload", output)
                if isinstance(payload, (bytes, bytearray)):
                    self.counts["blob_bytes"] += len(payload)
            return outputs

        inst.replace(pool_mod.WarmWorkerPool, "run_items", run_items)

    # -- the traced call --------------------------------------------------

    def start(self) -> None:
        from repro.geo.coords import geodesic_cache_info

        info = geodesic_cache_info()
        self._geo_start = (info.hits, info.misses)
        self._io_start = _io_written()
        self.entry = self.recorder.begin("cli.main")

    def stop(self) -> None:
        from repro.geo.coords import geodesic_cache_info

        self.recorder.end(self.entry)
        info = geodesic_cache_info()
        self.counts["geo_hits"] = info.hits - self._geo_start[0]
        self.counts["geo_misses"] = info.misses - self._geo_start[1]
        self.counts["write_bytes"] = _io_written() - self._io_start
        self.instrumentation.undo()

    # -- metrics ----------------------------------------------------------

    def _total(self, name: str) -> float:
        return sum(span.duration for span in self.recorder.named(name))

    def _durations(self, name: str) -> List[float]:
        return [span.duration for span in self.recorder.named(name)]

    def metrics(self, manifest: Optional[Dict] = None) -> Dict[str, float]:
        """Per-layer metrics (all but the profile and overhead ones).

        *manifest* is the run's manifest; a pooled run's simulator
        events are read from its merged ``sim.events_executed``.
        """
        counts, out = self.counts, {}
        events = counts["netsim.events"]
        if manifest and events == 0:
            counters = (manifest.get("metrics") or {}).get("counters", {})
            events = counters.get("sim.events_executed", 0)
        out["netsim.events"] = events
        lookups = counts["base_hits"] + counts["base_misses"]
        out["netsim.base_delay_lookups"] = lookups
        out["netsim.base_delay_hit_ratio"] = (
            counts["base_hits"] / lookups if lookups else 0.0)
        geo = counts["geo_hits"] + counts["geo_misses"]
        out["geo.geodesic_lookups"] = geo
        out["geo.geodesic_hit_ratio"] = (
            counts["geo_hits"] / geo if geo else 0.0)

        out["core.build_world_s"] = self._total("core.build_world")
        out["core.build_world_calls"] = len(
            self.recorder.named("core.build_world"))
        out["core.plan_s"] = self._total("core.plan")
        out["core.measure_s"] = self._total("core.measure")
        out["core.filter_s"] = self._total("core.filter")
        out["atlas.collect_s"] = self._total("atlas.collect")

        out["dataset.build_s"] = self._total("dataset.build")
        out["dataset.save_s"] = self._total("dataset.save")
        out["dataset.csv_s"] = self._total("dataset.csv")
        out["dataset.mb"] = self.dataset_bytes / MB

        out["obs.traces"] = counts["obs.traces"]
        out["obs.merge_s"] = self._total("obs.merge")
        out["obs.sidecar_s"] = self._total("obs.sidecar")
        out["obs.traces_mb"] = self.traces_bytes / MB

        out.update(self._pool_metrics())
        shards = tails.calls(self._durations("parallel.shard"))
        out["parallel.shard_s.p50"] = shards["p50"]
        out["parallel.shard_s.max"] = shards["max"]
        out["parallel.shard_s.n"] = shards["n"]

        out["ckpt.commits"] = len(self.recorder.named("ckpt.commit"))
        out["ckpt.commit_s"] = self._total("ckpt.commit")
        appends = tails.calls(
            [d * 1e3 for d in self._durations("ckpt.append")])
        out["ckpt.append_ms.n"] = appends["n"]
        out["ckpt.append_ms.p50"] = appends["p50"]
        out["ckpt.append_ms.tail"] = appends["tail"]
        out["ckpt.append_ms.tail_pct"] = appends["tail_pct"]
        out["ckpt.fsyncs"] = len(self.recorder.named("ckpt.fsync"))
        out["ckpt.fsync_s"] = self._total("ckpt.fsync")
        out["ckpt.capture_s"] = self._total("ckpt.capture")
        out["ckpt.result_s"] = self._total("ckpt.result")
        out["ckpt.write_mb"] = counts["write_bytes"] / MB

        out["faults.activations"] = counts["faults.activations"]
        out["faults.node_failures"] = counts["faults.node_failures"]

        epochs = self.recorder.named("service.epoch")
        durations = tails.calls([span.duration for span in epochs])
        out["service.epoch_s.p50"] = durations["p50"]
        out["service.epoch_s.max"] = durations["max"]
        out["service.epochs"] = durations["n"]
        # Epoch end -> next epoch start (or the end of the entry call):
        # verify, accumulate, publish and journal.
        boundary = 0.0
        for index, span in enumerate(epochs):
            following = (epochs[index + 1].start if index + 1 < len(epochs)
                         else self.entry.end)
            boundary += following - span.end
        out["service.boundary_s"] = boundary
        out["service.journal_appends"] = len(
            self.recorder.named("service.journal_append"))
        out["analysis.availability_s"] = self._total("analysis.availability")

        selfs = self_times(self.recorder.spans)
        for layer in SPAN_LAYERS:
            out[layer + ".span_self_s"] = 0.0
        for span in self.recorder.spans:
            key = span.layer + ".span_self_s"
            if key in out:
                out[key] += selfs[span.id]
        out["trace.spans"] = len(self.recorder.spans)
        return out

    def _pool_metrics(self) -> Dict[str, float]:
        out = {
            "parallel.spawn_s": self._total("parallel.spawn"),
            "parallel.prime_s": self._total("parallel.prime"),
            "parallel.dispatch_s": self._total("parallel.dispatch"),
            "parallel.unpack_s": self._total("parallel.unpack"),
            "parallel.close_s": self._total("parallel.close"),
            "parallel.blob_mb": self.counts["blob_bytes"] / MB,
            "parallel.results": len(self.result_times),
            "parallel.first_result_s": 0.0,
            "parallel.straggler_s": 0.0,
            "parallel.tail_s": 0.0,
        }
        dispatches = self.recorder.named("parallel.dispatch")
        results = self.result_times
        if dispatches and results:
            out["parallel.first_result_s"] = results[0] - dispatches[0].start
            out["parallel.tail_s"] = self.entry.end - results[-1]
        if len(results) >= 2:
            out["parallel.straggler_s"] = results[-1] - results[-2]
        return out

    def spans_json(self) -> str:
        return json.dumps([span.to_json() for span in self.recorder.spans])


def profile_metrics(stats, profiled_wall_s: float,
                    untraced_wall_s: float) -> Dict[str, float]:
    """Self-time shares per layer from a ``pstats`` stats table."""
    buckets = profbuckets.bucket_self_time(stats)
    out = {layer + ".self_share": share
           for layer, share in profbuckets.shares(buckets).items()}
    out["profile.self_s"] = sum(buckets.values())
    out["profile.slowdown"] = (profiled_wall_s / untraced_wall_s
                               if untraced_wall_s else 0.0)
    return out
