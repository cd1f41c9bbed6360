"""World builder: the simulated Internet the measurements run on.

Assembles, in dependency order:

1. simulator kernel, network fabric, IP allocator, geolocation DB;
2. anycast root and TLD DNS services (six global sites each);
3. the paper's authoritative server and web server for ``a.com``
   (Ashburn, USA — Figure 1), with a wildcard so every fresh
   ``<UUID>.a.com`` resolves but always cache-misses;
4. the four DoH providers with their PoP fleets behind anycast VIPs;
5. the 11 BrightData super proxies;
6. the residential exit-node fleet with per-country ISP resolvers;
7. the measurement client machine (USA).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dns.authoritative import AuthoritativeServer
from repro.dns.name import DomainName
from repro.dns.records import ARecord, NSRecord, RRClass, RRType, ResourceRecord
from repro.dns.recursive import RecursiveResolver
from repro.dns.zone import Zone
from repro.doh.provider import (
    DohProvider,
    PROVIDER_CONFIGS,
    ProviderConfig,
    build_provider,
)
from repro.faults.injector import FaultInjector
from repro.geo.cities import CITIES, City
from repro.geo.coords import geodesic_km
from repro.geo.countries import SUPER_PROXY_COUNTRIES
from repro.geo.geolocate import GeolocationService
from repro.geo.ipalloc import IpAllocator
from repro.http.message import HttpRequest, HttpResponse, Status
from repro.http.server import ConnInfo, HttpServer
from repro.netsim.engine import Simulator
from repro.netsim.host import Host, SiteProfile
from repro.netsim.latency import LatencyModel
from repro.netsim.network import Network
from repro.proxy.network import CensorshipPolicy, ProxyNetwork
from repro.proxy.population import (
    PopulationResult,
    build_population,
)
from repro.proxy.superproxy import SuperProxy
from repro.core.config import ReproConfig
from repro.core.plan import WorldPlan

__all__ = ["World", "build_world", "install_faults"]

#: Anycast service addresses for shared DNS infrastructure.
ROOT_VIP = "10.53.1.1"
TLD_VIP = "10.53.1.2"

#: Cities hosting root/TLD anycast instances (major IXP locations).
_INFRA_CITIES = (
    "ashburn", "amsterdam", "tokyo", "saopaulo", "johannesburg", "sydney",
)

#: Super-proxy city per super-proxy country.
_SUPER_PROXY_CITIES = {
    "US": "ashburn",
    "CA": "toronto",
    "GB": "london",
    "IN": "mumbai",
    "JP": "tokyo",
    "KR": "seoul",
    "SG": "singaporecity",
    "DE": "frankfurt",
    "NL": "amsterdam",
    "FR": "paris",
    "AU": "sydney",
}

_INFRA_TTL = 14 * 86400  # infrastructure records stay warm all campaign


@dataclass
class World:
    """The fully built simulated Internet."""

    config: ReproConfig
    sim: Simulator
    network: Network
    rng: random.Random
    allocator: IpAllocator
    geolocation: GeolocationService
    root_servers: List[AuthoritativeServer]
    tld_servers: List[AuthoritativeServer]
    auth_server: AuthoritativeServer
    auth_ip: str
    web_server: HttpServer
    web_ip: str
    providers: Dict[str, DohProvider]
    proxy_network: ProxyNetwork
    super_proxies: List[SuperProxy]
    population: PopulationResult
    client_host: Host
    #: Present only when the config carries a FaultPlan.
    fault_injector: Optional[FaultInjector] = None

    # -- conveniences ------------------------------------------------------

    def provider(self, name: str) -> DohProvider:
        """The deployed provider named *name*."""
        return self.providers[name.lower()]

    def nodes(self):
        """Every exit node in the fleet."""
        return self.population.nodes

    def run(self, process, name: str = ""):
        """Run one process to completion on the shared simulator."""
        return self.sim.run_process(process, name=name)


def _dc_host(
    network: Network,
    allocator: IpAllocator,
    name: str,
    city: City,
    stretch: float = 1.2,
) -> Host:
    site = SiteProfile.datacenter_site(
        city.location, city.country_code, path_stretch=stretch
    )
    ip = allocator.allocate(city.country_code, new_subnet=True)
    return network.add_host(name, ip, site)


def _nearest_selector(hosts: Sequence[Host]):
    """Anycast selector: route each client to the nearest instance."""
    def selector(client: Host) -> str:
        return min(
            hosts,
            key=lambda h: geodesic_km(h.location, client.location),
        ).ip
    return selector


def build_world(
    config: ReproConfig,
    provider_configs: "Optional[Dict[str, ProviderConfig]]" = None,
    plan=None,
) -> World:
    """Build the entire simulated world for *config*.

    *provider_configs* overrides individual provider definitions by
    name (ablation studies patch anycast policies or backbone quality
    without touching the global tables).

    *plan* is the :class:`repro.core.plan.WorldPlan` for *config* — the
    deterministic slice of the build (population fit, resolver
    qualities, remote-resolver hubs).  It is fitted here when the
    caller passes none; shard workers receive the parent's, so the fit
    runs once per campaign rather than once per process.
    """
    if plan is None:
        plan = WorldPlan.for_config(config)
    sim = Simulator()
    rng = random.Random(config.seed)
    network = Network(sim, rng, latency=LatencyModel(config.latency))
    allocator = IpAllocator()
    geolocation = GeolocationService(error_rate=config.geolocation_error_rate)

    domain = config.measurement_domain
    # -- shared DNS infrastructure: root and TLD anycast ------------------
    infra_cities = [CITIES[key] for key in _INFRA_CITIES]

    root_zone = Zone(DomainName("."), default_ttl=_INFRA_TTL)
    tld_zones: Dict[str, Zone] = {}

    def tld_zone(tld: str) -> Zone:
        if tld not in tld_zones:
            tld_zones[tld] = Zone(DomainName(tld), default_ttl=_INFRA_TTL)
            root_zone.delegate(
                tld, "ns.{}.nic".format(tld), TLD_VIP, ttl=_INFRA_TTL
            )
        return tld_zones[tld]

    # -- the paper's authoritative server + web server (USA) ---------------
    ashburn = CITIES["ashburn"]
    auth_host = _dc_host(network, allocator, "auth-a-com", ashburn)
    web_host = _dc_host(network, allocator, "web-a-com", ashburn)

    domain_tld = domain.rsplit(".", 1)[-1]
    tld_zone(domain_tld).delegate(
        domain, "ns1.{}".format(domain), auth_host.ip, ttl=86400
    )
    auth_zone = Zone(DomainName(domain), default_ttl=86400)
    auth_zone.add_record(
        domain, RRType.NS, NSRecord(DomainName("ns1." + domain))
    )
    auth_zone.add_record("ns1." + domain, RRType.A, ARecord(auth_host.ip))
    auth_zone.add_record(domain, RRType.A, ARecord(web_host.ip), ttl=300)
    auth_zone.add_record(
        "*." + domain, RRType.A, ARecord(web_host.ip), ttl=60
    )
    auth_server = AuthoritativeServer(auth_host, [auth_zone])
    auth_server.start()

    def web_handler(request: HttpRequest, info: ConnInfo):
        body = b"<html><body>measurement endpoint</body></html>"
        response = HttpResponse(status=Status.OK, body=body)
        response.headers.set("Server", "nginx")
        return response
        yield  # pragma: no cover - makes this a generator

    web_server = HttpServer(web_host, 80, web_handler, processing_ms=0.5)
    web_server.start()

    # -- provider authoritative DNS ----------------------------------------
    overrides = provider_configs or {}
    provider_configs = [
        overrides.get(name, PROVIDER_CONFIGS[name])
        for name in config.providers
    ]
    provider_auth_host = _dc_host(
        network, allocator, "provider-auth", ashburn
    )
    provider_auth_zones: List[Zone] = []
    provider_a_records: Dict[str, List[ResourceRecord]] = {}
    for pconfig in provider_configs:
        pdomain = pconfig.domain
        ptld = pdomain.rsplit(".", 1)[-1]
        tld_zone(ptld).delegate(
            pdomain, "ns1." + pdomain, provider_auth_host.ip, ttl=_INFRA_TTL
        )
        zone = Zone(DomainName(pdomain), default_ttl=_INFRA_TTL)
        zone.add_record(
            pdomain, RRType.NS, NSRecord(DomainName("ns1." + pdomain))
        )
        zone.add_record("ns1." + pdomain, RRType.A, ARecord(provider_auth_host.ip))
        a_record = zone.add_record(
            pdomain, RRType.A, ARecord(pconfig.vip), ttl=7 * 86400
        )
        provider_auth_zones.append(zone)
        provider_a_records[pdomain] = [a_record]
    provider_auth_server = AuthoritativeServer(
        provider_auth_host, provider_auth_zones
    )
    provider_auth_server.start()

    # -- deploy root/TLD instances -------------------------------------------
    root_servers: List[AuthoritativeServer] = []
    tld_servers: List[AuthoritativeServer] = []
    root_hosts: List[Host] = []
    tld_hosts: List[Host] = []
    for city in infra_cities:
        root_host = _dc_host(
            network, allocator, "root-" + city.key, city, stretch=1.15
        )
        server = AuthoritativeServer(root_host, [root_zone],
                                     keep_query_log=False)
        server.start()
        root_servers.append(server)
        root_hosts.append(root_host)

        tld_host = _dc_host(
            network, allocator, "tld-" + city.key, city, stretch=1.15
        )
        server = AuthoritativeServer(
            tld_host, list(tld_zones.values()), keep_query_log=False
        )
        server.start()
        tld_servers.append(server)
        tld_hosts.append(tld_host)

    network.register_anycast(ROOT_VIP, _nearest_selector(root_hosts))
    network.register_anycast(TLD_VIP, _nearest_selector(tld_hosts))

    # Records every live resolver holds: TLD delegations with glue.
    warm_records: List[ResourceRecord] = []
    for tld, zone in tld_zones.items():
        tld_name = DomainName(tld)
        ns_name = DomainName("ns.{}.nic".format(tld))
        warm_records.append(
            ResourceRecord(
                tld_name, RRType.NS, RRClass.IN, _INFRA_TTL, NSRecord(ns_name)
            )
        )
        warm_records.append(
            ResourceRecord(
                ns_name, RRType.A, RRClass.IN, _INFRA_TTL, ARecord(TLD_VIP)
            )
        )

    # -- DoH providers ----------------------------------------------------------
    providers: Dict[str, DohProvider] = {}
    for pconfig in provider_configs:
        pop_ips = []
        for city_key in pconfig.pop_city_keys:
            city = CITIES[city_key]
            ip = allocator.allocate(city.country_code, new_subnet=True)
            geolocation.register(ip, city.country_code, city.location)
            pop_ips.append(ip)
        providers[pconfig.name] = build_provider(
            pconfig.name,
            network,
            rng,
            pop_ips,
            [ROOT_VIP],
            warm_records,
            config=pconfig,
        )

    # -- BrightData ------------------------------------------------------------
    proxy_network = ProxyNetwork(rng)
    censorship = CensorshipPolicy(
        blocked_domains=frozenset(p.domain for p in provider_configs)
    )
    super_proxies: List[SuperProxy] = []
    for country_code in SUPER_PROXY_COUNTRIES:
        city = CITIES[_SUPER_PROXY_CITIES[country_code]]
        sp_host = _dc_host(
            network, allocator, "superproxy-" + country_code, city
        )
        sp_resolver = RecursiveResolver(
            sp_host, [ROOT_VIP], rng, processing_ms=0.8
        )
        sp_resolver.warm(warm_records)
        super_proxy = SuperProxy(sp_host, proxy_network, rng,
                                 resolver=sp_resolver)
        super_proxy.start()
        proxy_network.add_super_proxy(super_proxy)
        super_proxies.append(super_proxy)

    population = build_population(
        network=network,
        rng=rng,
        allocator=allocator,
        geolocation=geolocation,
        root_servers=[ROOT_VIP],
        proxy_network=proxy_network,
        censorship=censorship,
        config=config.population,
        warm_records=warm_records,
        provider_records=provider_a_records,
        plan=plan,
    )

    # -- the measurement client (a university machine in the USA) ---------
    client_host = _dc_host(network, allocator, "measurement-client", ashburn)

    world = World(
        config=config,
        sim=sim,
        network=network,
        rng=rng,
        allocator=allocator,
        geolocation=geolocation,
        root_servers=root_servers,
        tld_servers=tld_servers,
        auth_server=auth_server,
        auth_ip=auth_host.ip,
        web_server=web_server,
        web_ip=web_host.ip,
        providers=providers,
        proxy_network=proxy_network,
        super_proxies=super_proxies,
        population=population,
        client_host=client_host,
    )
    install_faults(world, config)
    return world


def install_faults(world: World, config: ReproConfig) -> None:
    """Wire a fresh fault injector for *config* into every component.

    Providers, super proxies, exit nodes and the network fabric's
    burst-loss chain all get the injector of ``config.faults`` (None
    for a healthy Internet), and *config* becomes ``world.config``.
    Nothing else in a world depends on the fault plan, so a world
    built for one plan and re-targeted here measures exactly like a
    fresh build for *config*.  Precondition: *config* differs from
    ``world.config`` in nothing but its fault plan.
    """
    injector: Optional[FaultInjector] = None
    if config.faults is not None:
        injector = FaultInjector(config.faults, config.seed)
    world.config = config
    world.fault_injector = injector
    world.network.burst_loss = (
        injector.make_burst_loss() if injector is not None else None
    )
    for provider in world.providers.values():
        provider.fault_injector = injector
    for proxy in world.super_proxies:
        proxy.fault_injector = injector
    for node in world.population.nodes:
        node.fault_injector = injector
