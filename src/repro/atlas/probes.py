"""RIPE Atlas probes: residential hosts with a stub resolver."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.dns.stub import StubResolver
from repro.geo.countries import COUNTRIES
from repro.geo.ipalloc import IpAllocator
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.proxy.population import (
    CountryInfrastructure,
    PopulationConfig,
    choose_default_resolver,
    client_site_for,
    country_resolver_quality,
)

__all__ = ["AtlasProbe", "build_probes"]


@dataclass
class AtlasProbe:
    """One volunteer probe: host plus its default resolver."""

    probe_id: str
    host: Host
    stub: StubResolver

    @property
    def country_code(self) -> str:
        return self.host.country_code


def build_probes(
    network: Network,
    rng: random.Random,
    allocator: IpAllocator,
    infrastructure: Mapping[str, CountryInfrastructure],
    countries: Sequence[str],
    probes_per_country: int = 20,
) -> Dict[str, List[AtlasProbe]]:
    """Deploy Atlas probes in *countries*.

    Probes are residential machines sampled from the same per-country
    infrastructure model as exit nodes, with the same default-resolver
    mix (ISP/overloaded/foreign) — which is why the §4.4 BrightData
    consistency validation holds: both platforms observe the same
    resolver population.
    """
    population_config = PopulationConfig()
    probes: Dict[str, List[AtlasProbe]] = {}
    for code in countries:
        code = code.upper()
        country = COUNTRIES.get(code)
        infra = infrastructure.get(code)
        if country is None or infra is None or not infra.resolvers:
            continue
        fleet: List[AtlasProbe] = []
        for index in range(probes_per_country):
            ip = allocator.allocate(code, new_subnet=True)
            host = network.add_host(
                "atlas-{}-{}".format(code, index),
                ip,
                client_site_for(country, rng),
            )
            _kind, resolver_ip = choose_default_resolver(
                code, infra, infrastructure, rng, population_config,
                country_resolver_quality(code),
            )
            stub = StubResolver(host, resolver_ip, rng)
            fleet.append(
                AtlasProbe(
                    probe_id="atlas-{}-{:03d}".format(code, index),
                    host=host,
                    stub=stub,
                )
            )
        probes[code] = fleet
    return probes
