"""Observability layer (``repro.obs``): traces, metrics, manifests.

The paper's methodology is a *decomposition* of latency into phases
(Figure 2, Equations 1–8); this subsystem makes the decomposition
visible at runtime:

* :mod:`repro.obs.trace` — per-measurement phase timelines, keyed by
  ``(node_id, provider, run_index)``;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with a
  deterministic shard merge;
* :mod:`repro.obs.manifest` — self-describing run manifests written
  next to every dataset;
* :mod:`repro.obs.collect` — scraping the world's internal counters.

The cardinal invariant: observability **observes, never perturbs**.
No recorder or registry ever draws from a simulation RNG stream or
yields to the kernel, so the exported dataset is byte-identical with
observability on or off (``tests/obs/test_determinism.py`` enforces
this).  Observability is off when a campaign holds no
:class:`Observability` (``obs is None``, the default); every hook is
then a single ``None`` check.
"""

from repro.obs.collect import collect_world_metrics
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    sidecar_path,
    write_manifest,
)
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.trace import (
    DO53_PROVIDER_KEY,
    PhaseEvent,
    SampleTrace,
    TraceRecorder,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "DO53_PROVIDER_KEY",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PhaseEvent",
    "SampleTrace",
    "TraceRecorder",
    "build_manifest",
    "collect_world_metrics",
    "config_hash",
    "sidecar_path",
    "write_manifest",
]


class Observability:
    """One switch bundling a trace recorder and a metrics registry.

    Pass an instance to :class:`~repro.core.campaign.Campaign` (or
    ``observe=True`` to ``run_parallel_campaign``) to enable capture;
    pass nothing and every instrumentation point stays a no-op.
    """

    __slots__ = ("trace", "metrics")

    def __init__(self) -> None:
        self.trace = TraceRecorder()
        self.metrics = MetricsRegistry()
