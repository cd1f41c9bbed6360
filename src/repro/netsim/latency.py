"""Geography-aware one-way delay model.

Every message delivery in the simulator samples a one-way delay that
decomposes the same way real Internet paths do:

``delay = access(src) + access(dst) + serialisation + propagation * stretch
          + queueing jitter + international transit extras``

* *access* is the last-mile latency of a residential endpoint (DSL,
  cable, congested wireless); datacenter endpoints contribute a fixed
  sub-millisecond hop.
* *serialisation* is message size over the endpoint's access bandwidth —
  this is where nationwide bandwidth (one of the paper's Section 6
  covariates) bites directly.
* *propagation* is great-circle distance over the speed of light in
  fibre, inflated by a per-site *path stretch* factor modelling routing
  circuity (poorly connected countries detour through remote exchange
  points, a well-documented effect that the paper's "number of ASes"
  covariate proxies).
* *queueing jitter* is a lognormal per-hop term.
* international messages pay each endpoint's *international transit*
  surcharge (satellite/submarine-cable detours for low-infrastructure
  countries).

This module holds the components and a memo of each pair's
per-message constants; :meth:`repro.netsim.network.Network.transmit`
draws the jitter terms and adds them up once per transmission.
Message loss is sampled per transmission; the transport layer decides
what a loss costs (UDP retry timers, TCP retransmission timeouts).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.geo.coords import geodesic_km

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import SiteProfile

__all__ = ["LatencyModel", "LatencyParams"]


@dataclass(frozen=True)
class LatencyParams:
    """Global tunables of the delay model (calibrated empirically)."""

    #: Speed of light in fibre, km per millisecond (~2/3 c).
    fiber_km_per_ms: float = 200.0
    #: Fixed per-message forwarding overhead (NIC/kernel/router), ms.
    per_hop_overhead_ms: float = 0.35
    #: Median of the lognormal queueing term for a 1.0 jitter scale, ms.
    queueing_median_ms: float = 0.8
    #: Sigma of the lognormal queueing term.
    queueing_sigma: float = 0.85
    #: Sigma of the multiplicative lognormal on residential access delay.
    access_sigma: float = 0.45
    #: Floor applied to any sampled one-way delay, ms.
    min_delay_ms: float = 0.05


class LatencyModel:
    """The delay components between two sites, memoized per pair.

    Every value is a pure function of the two site profiles; the jitter
    draws come from the network's seeded :class:`random.Random`, so a
    seed gives fully reproducible runs.
    """

    #: Entries kept in the per-pair base-delay memo before it is reset.
    BASE_CACHE_LIMIT = 1 << 16

    def __init__(self, params: LatencyParams = LatencyParams()) -> None:
        self.params = params
        # Memo of everything about a (src, dst) pair that does not vary
        # per message: the deterministic base delay (overhead +
        # propagation + international transit), the queueing lognormal's
        # mu, each endpoint's datacenter flag / last-mile latency /
        # access rate in bits-per-ms, and the summed loss rate.  Keyed
        # by the identity of the frozen site profiles — far cheaper to
        # hash than the seven-field dataclasses themselves — with the
        # profiles pinned in the entry so an id is never reused while
        # its entry lives.  Every cached value is a pure function of the
        # profile values, so identity- vs value-keying changes only
        # hit/miss accounting, never a returned delay.
        self._base_cache: "dict[Tuple[int, int], tuple]" = {}
        self.base_cache_hits = 0
        self.base_cache_misses = 0

    # -- components -----------------------------------------------------

    def propagation_ms(self, src: "SiteProfile", dst: "SiteProfile") -> float:
        """Deterministic propagation component (no jitter)."""
        distance = geodesic_km(src.location, dst.location)
        stretch = 0.5 * (src.path_stretch + dst.path_stretch)
        return (distance / self.params.fiber_km_per_ms) * stretch

    def serialization_ms(self, site: "SiteProfile", nbytes: int) -> float:
        """Time to clock *nbytes* through *site*'s access link."""
        if site.bandwidth_mbps <= 0:
            raise ValueError("site bandwidth must be positive")
        bits = nbytes * 8.0
        return bits / (site.bandwidth_mbps * 1000.0)

    def _transit_extra_ms(self, src: "SiteProfile", dst: "SiteProfile") -> float:
        if src.country_code == dst.country_code:
            return 0.0
        return src.intl_extra_ms + dst.intl_extra_ms

    def base_ms(self, src: "SiteProfile", dst: "SiteProfile") -> float:
        """Deterministic per-pair delay: overhead + propagation + transit.

        Memoized — this is the expensive jitter-free part of every
        sampled delay, identical for every message on the same path.
        """
        entry = self._base_cache.get((id(src), id(dst)))
        if entry is not None:
            self.base_cache_hits += 1
            return entry[0]
        return self._pair_entry(src, dst)[0]

    def _pair_entry(self, src: "SiteProfile", dst: "SiteProfile") -> tuple:
        """Compute and memoize the per-pair constants (cache miss path).

        Entry layout: ``(base_ms, queueing_mu, src_datacenter,
        src_last_mile_ms, src_bits_per_ms, dst_datacenter,
        dst_last_mile_ms, dst_bits_per_ms, loss_sum, src, dst)``.
        The bits-per-ms rates cache the exact product
        ``bandwidth_mbps * 1000.0`` that serialisation divides by, so
        sampled delays are bit-identical to the uncached form.
        """
        cache = self._base_cache
        self.base_cache_misses += 1
        params = self.params
        base = (
            params.per_hop_overhead_ms
            + self.propagation_ms(src, dst)
            + self._transit_extra_ms(src, dst)
        )
        scale = max(src.jitter_scale, dst.jitter_scale)
        mu = math.log(params.queueing_median_ms * max(scale, 1e-6))
        if src.bandwidth_mbps <= 0 or dst.bandwidth_mbps <= 0:
            raise ValueError("site bandwidth must be positive")
        if len(cache) >= self.BASE_CACHE_LIMIT:
            cache.clear()
        entry = (
            base,
            mu,
            src.datacenter,
            src.last_mile_ms,
            src.bandwidth_mbps * 1000.0,
            dst.datacenter,
            dst.last_mile_ms,
            dst.bandwidth_mbps * 1000.0,
            src.loss_rate + dst.loss_rate,
            src,
            dst,
        )
        cache[(id(src), id(dst))] = entry
        return entry

    # -- sampling ---------------------------------------------------------

    def loss(
        self, src: "SiteProfile", dst: "SiteProfile", rng: random.Random
    ) -> bool:
        """Sample whether a single transmission is lost."""
        probability = src.loss_rate + dst.loss_rate
        return rng.random() < probability

    def expected_rtt_ms(
        self, src: "SiteProfile", dst: "SiteProfile", nbytes: int = 100
    ) -> float:
        """Jitter-free round-trip estimate (used for RTO seeding)."""
        # base_ms already holds overhead + propagation + transit once;
        # a round trip pays each of those twice.
        return (
            2.0 * self.base_ms(src, dst)
            + 2.0 * (src.last_mile_ms + dst.last_mile_ms)
            + self.serialization_ms(src, nbytes)
            + self.serialization_ms(dst, nbytes)
        )

