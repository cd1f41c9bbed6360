"""Precomputed world-build snapshot shipped to shard workers.

Building a world repeats a block of work that is expensive but fully
deterministic — a pure function of the :class:`PopulationConfig` and
the static country tables, untouched by the world's RNG stream:

* fitting the per-country client counts to the paper's Figure-3
  population statistics (a bisection over power-law transforms),
* the per-country ISP resolver-quality multipliers (one SHA-256 per
  country, re-derived per *node* when choosing default resolvers),
* which countries resolve through off-shore hubs, and which hub city
  each one uses (a nearest-hub sweep per remote country).

In the sharded executor every worker builds the same world from
scratch, so this block used to run ``num_shards + 1`` times.  A
:class:`WorldPlan` computes it once in the parent and reaches the
workers with the pool prime — it is plain picklable data, no simulator
state.  Because every value is exactly what the worker would have
computed itself, worlds built with and without a plan are identical,
and the dataset bytes cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.geo.cities import CITIES
from repro.geo.coords import geodesic_km
from repro.geo.countries import COUNTRIES
from repro.proxy.population import (
    _REMOTE_RESOLVER_HUBS,
    PopulationConfig,
    country_has_remote_resolvers,
    country_resolver_quality,
)

__all__ = ["WorldPlan"]


@dataclass(frozen=True)
class WorldPlan:
    """Deterministic, picklable precomputation for one world build.

    Values are snapshots of what :func:`build_population` would derive
    itself; the population config they were fitted against is recorded
    so a mismatched plan fails loudly instead of silently building a
    different fleet.
    """

    #: The PopulationConfig the counts were fitted for.
    population: PopulationConfig
    #: Per-country client counts (the fitted, scaled Figure-3 fleet).
    counts: Dict[str, int]
    #: Per-country ISP resolver-quality multipliers.
    resolver_quality: Dict[str, float]
    #: Country code -> hub city key for countries whose ISPs resolve
    #: through off-shore upstreams; absent countries resolve locally.
    remote_hub: Dict[str, str]

    @classmethod
    def for_config(cls, config) -> "WorldPlan":
        """Build the plan for *config*.

        *config* is either a :class:`ReproConfig` (its ``population``
        is used) or a :class:`PopulationConfig` directly.
        """
        population = getattr(config, "population", config)
        if not isinstance(population, PopulationConfig):
            raise TypeError(
                "expected ReproConfig or PopulationConfig, got {!r}".format(
                    type(config).__name__
                )
            )
        counts = population.scaled_counts()
        quality = {
            code: country_resolver_quality(code) for code in sorted(COUNTRIES)
        }
        remote_hub: Dict[str, str] = {}
        for code in sorted(COUNTRIES):
            if not country_has_remote_resolvers(code):
                continue
            country = COUNTRIES[code]
            # Mirrors build_population's nearest-hub sweep exactly:
            # same candidate order, same tie behaviour (min keeps the
            # first), same memoized distance.
            hub = min(
                (CITIES[key] for key in _REMOTE_RESOLVER_HUBS),
                key=lambda c: geodesic_km(c.location, country.location),
            )
            remote_hub[code] = hub.key
        return cls(
            population=population,
            counts=counts,
            resolver_quality=quality,
            remote_hub=remote_hub,
        )

    def fleet_size(self) -> int:
        """Total exit nodes this plan's world will build.

        The executor's break-even fallback uses this to predict the
        per-shard workload *before* any world exists — the fitted
        counts are exact, not an estimate.
        """
        return sum(self.counts.values())

    def check_population(self, population: PopulationConfig) -> None:
        """Raise if this plan was fitted for a different population."""
        if population != self.population:
            raise ValueError(
                "WorldPlan was built for a different PopulationConfig; "
                "rebuild it with WorldPlan.for_config(config)"
            )
