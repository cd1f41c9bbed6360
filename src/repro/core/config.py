"""Single configuration object for the reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.netsim.latency import LatencyParams
from repro.proxy.population import PopulationConfig
from repro.tls.handshake import TlsVersion

__all__ = ["ReproConfig"]


@dataclass
class ReproConfig:
    """Everything needed to rebuild the simulated world and campaign.

    The default values reproduce the paper's setup: four public DoH
    providers measured from the full 22,052-node fleet, two runs per
    client, TLS 1.3, measurement domain ``a.com`` with its
    authoritative server and web server in the United States.
    """

    seed: int = 20210402  # the paper's collection started April 2021
    population: PopulationConfig = field(default_factory=PopulationConfig)
    latency: LatencyParams = field(default_factory=LatencyParams)
    providers: Tuple[str, ...] = ("cloudflare", "google", "nextdns", "quad9")
    tls_version: str = TlsVersion.TLS13
    #: Measurement domain the authors control (Figure 1).
    measurement_domain: str = "a.com"
    #: Runs per client (the paper conducts 2 runs of 5 requests each).
    runs_per_client: int = 2
    #: Maxmind database error rate (exercises the mismatch discard).
    geolocation_error_rate: float = 0.0
    #: Number of clients measured concurrently (simulation batching).
    batch_size: int = 400
    #: Deterministic fault schedule (None = healthy Internet).  Part of
    #: the config so it shards and pickles; see ``repro.faults``.
    faults: Optional[FaultPlan] = None

