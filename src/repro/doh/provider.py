"""DoH provider deployments.

A provider is a fleet of PoPs (datacenter hosts in cities from
:mod:`repro.doh.pops`), each running:

* an HTTPS front end (TLS 1.3 preferred) speaking RFC 8484, and
* a recursive resolution backend (a :class:`RecursiveResolver` with a
  warm infrastructure cache) that contacts the world's authoritative
  servers over the provider's backbone.

All PoPs hide behind one anycast VIP; the network fabric routes each
client to the PoP chosen by the provider's :class:`AnycastPolicy`.

Provider-specific parameters encode the architectural differences the
paper observed: Cloudflare's well-peered backbone, Google's sparse but
well-routed hubs, NextDNS's third-party transit hop, and Quad9's poor
anycast assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dns.message import Rcode
from repro.dns.records import ResourceRecord
from repro.dns.recursive import RecursiveResolver, ResolutionError
from repro.doh.anycast import AnycastPolicy, PopAssignment
from repro.doh.pops import PROVIDER_POPS
from repro.doh.wire import (
    DohWireError,
    decode_query_from_request,
    encode_response,
)
from repro.geo.cities import CITIES, City
from repro.geo.countries import COUNTRIES
from repro.http.message import HttpRequest, HttpResponse, Status
from repro.http.server import ConnInfo, HttpServer
from repro.netsim.host import Host, SiteProfile
from repro.netsim.network import Network

__all__ = [
    "DohPop",
    "DohProvider",
    "PROVIDER_CONFIGS",
    "ProviderConfig",
    "build_provider",
]

DOH_PORT = 443


def _infrastructure_deficit(profile) -> float:
    """How much a country's infrastructure degrades anycast routing.

    A composite of the paper's three Internet-investment covariates:
    AS diversity, nationwide bandwidth (FCC fast cutoff) and income
    group.  0 = well-connected, 1 = fully degraded routing.
    """
    from repro.geo.countries import IncomeGroup

    score = 0.0
    if profile.num_ases <= 25:
        score += 0.40
    if not profile.fast_internet:
        score += 0.35
    if profile.income_group in (
        IncomeGroup.LOWER_MIDDLE, IncomeGroup.LOW
    ):
        score += 0.25
    return score


@dataclass(frozen=True)
class ProviderConfig:
    """Static description of one public DoH service."""

    name: str
    display_name: str
    domain: str            # DoH endpoint hostname clients resolve
    vip: str               # anycast service address
    pop_city_keys: Tuple[str, ...]
    anycast: AnycastPolicy
    #: Routing circuity of the provider's PoP↔authoritative backbone.
    backbone_stretch: float
    #: HTTPS front-end handling time per request, ms.
    frontend_ms: float
    #: Recursive backend handling time per query, ms.
    backend_ms: float
    #: Probability a query detours through a third-party transit hop
    #: (NextDNS runs on rented networks), and the cost of that hop.
    forward_prob: float = 0.0
    forward_ms: float = 0.0
    tls_crypto_ms: float = 1.0
    #: Ablation switch: route every client to its nearest PoP, ignoring
    #: both the anycast policy and infrastructure degradation.
    ideal_routing: bool = False
    #: Whether the backend forwards EDNS Client-Subnet upstream.
    #: Google's public resolver does; Cloudflare pointedly does not
    #: (the paper's ethics appendix is careful never to inspect ECS).
    sends_ecs: bool = False


#: Calibrated per-provider parameters.  The anycast numbers target the
#: paper's Figure 6 (nearest-PoP rates and potential-improvement
#: medians); backbone/processing split reproduces the Figure 4 ordering.
PROVIDER_CONFIGS: Dict[str, ProviderConfig] = {
    "cloudflare": ProviderConfig(
        name="cloudflare",
        display_name="Cloudflare",
        domain="cloudflare-dns.com",
        vip="10.53.0.1",
        pop_city_keys=PROVIDER_POPS["cloudflare"],
        anycast=AnycastPolicy(
            nearest_prob=0.48, far_prob=0.10,
            neighborhood_size=8, neighborhood_decay=0.6,
        ),
        backbone_stretch=1.56,
        frontend_ms=1.0,
        backend_ms=10.0,
        tls_crypto_ms=0.8,
    ),
    "google": ProviderConfig(
        name="google",
        display_name="Google",
        domain="dns.google",
        vip="10.53.0.2",
        pop_city_keys=PROVIDER_POPS["google"],
        anycast=AnycastPolicy(
            nearest_prob=0.72, far_prob=0.035,
            neighborhood_size=3, neighborhood_decay=0.45,
        ),
        backbone_stretch=1.72,
        frontend_ms=1.4,
        backend_ms=22.0,
        tls_crypto_ms=0.9,
        sends_ecs=True,
    ),
    "nextdns": ProviderConfig(
        name="nextdns",
        display_name="NextDNS",
        domain="dns.nextdns.io",
        vip="10.53.0.3",
        pop_city_keys=PROVIDER_POPS["nextdns"],
        anycast=AnycastPolicy(
            nearest_prob=0.90, far_prob=0.01,
            neighborhood_size=3, neighborhood_decay=0.5,
        ),
        backbone_stretch=1.86,
        frontend_ms=2.6,
        backend_ms=25.0,
        forward_prob=0.50,
        forward_ms=40.0,
        tls_crypto_ms=8.0,
    ),
    "quad9": ProviderConfig(
        name="quad9",
        display_name="Quad9",
        domain="dns.quad9.net",
        vip="10.53.0.4",
        pop_city_keys=PROVIDER_POPS["quad9"],
        anycast=AnycastPolicy(
            nearest_prob=0.21, far_prob=0.22,
            neighborhood_size=10, neighborhood_decay=0.72,
        ),
        backbone_stretch=1.68,
        frontend_ms=1.6,
        backend_ms=16.0,
        tls_crypto_ms=1.2,
    ),
    # Not in the paper's measured set; the fifth provider that
    # incremental campaigns (``repro ckpt extend --provider adguard``)
    # grow into.  Hub-only anycast between Google's and NextDNS's
    # quality, modest processing budget.
    "adguard": ProviderConfig(
        name="adguard",
        display_name="AdGuard",
        domain="dns.adguard.com",
        vip="10.53.0.5",
        pop_city_keys=PROVIDER_POPS["adguard"],
        anycast=AnycastPolicy(
            nearest_prob=0.60, far_prob=0.05,
            neighborhood_size=5, neighborhood_decay=0.55,
        ),
        backbone_stretch=1.80,
        frontend_ms=2.0,
        backend_ms=20.0,
        tls_crypto_ms=1.5,
    ),
}


@dataclass
class DohPop:
    """One deployed point of presence."""

    city: City
    host: Host
    server: HttpServer
    resolver: RecursiveResolver
    queries_served: int = 0


class DohProvider:
    """A deployed DoH service: PoPs, VIP routing, query handling."""

    def __init__(
        self,
        config: ProviderConfig,
        network: Network,
        rng: random.Random,
    ) -> None:
        self.config = config
        self.network = network
        self.rng = rng
        #: Set by build_world when the config carries a FaultPlan; every
        #: PoP consults it for outage windows (refusal / SERVFAIL).
        self.fault_injector = None
        self.pops: List[DohPop] = []
        self._assignments: Dict[str, PopAssignment] = {}
        self._pop_by_ip: Dict[str, DohPop] = {}

    # -- deployment -------------------------------------------------------

    def deploy(
        self,
        pop_ips: Sequence[str],
        root_servers: Sequence[str],
        warm_records: Sequence[ResourceRecord],
    ) -> None:
        """Stand up every PoP and register the anycast VIP."""
        if self.pops:
            raise RuntimeError("provider already deployed")
        for city_key, ip in zip(self.config.pop_city_keys, pop_ips):
            city = CITIES[city_key]
            site = SiteProfile.datacenter_site(
                city.location,
                city.country_code,
                path_stretch=self.config.backbone_stretch,
            )
            host = self.network.add_host(
                "{}-pop-{}".format(self.config.name, city_key), ip, site
            )
            resolver = RecursiveResolver(
                host,
                list(root_servers),
                self.rng,
                processing_ms=self.config.backend_ms,
            )
            resolver.warm(list(warm_records))
            pop = DohPop(city=city, host=host, server=None, resolver=resolver)  # type: ignore[arg-type]
            server = HttpServer(
                host,
                DOH_PORT,
                self._make_handler(pop),
                use_tls=True,
                processing_ms=self.config.frontend_ms,
                tls_crypto_ms=self.config.tls_crypto_ms,
                refuse=self._connection_refused,
            )
            pop.server = server
            server.start()
            self.pops.append(pop)
            self._pop_by_ip[ip] = pop
        self.network.register_anycast(self.config.vip, self._route)

    # -- anycast routing -------------------------------------------------

    def assignment_for(self, client: Host) -> PopAssignment:
        """The (stable) PoP assignment for *client*."""
        cached = self._assignments.get(client.ip)
        if cached is not None:
            return cached
        policy = self.config.anycast
        if self.config.ideal_routing:
            policy = AnycastPolicy(nearest_prob=1.0, far_prob=0.0)
        else:
            profile = COUNTRIES.get(client.country_code)
            if profile is not None and not client.site.datacenter:
                policy = policy.degraded(_infrastructure_deficit(profile))
        assignment = policy.assign(
            client.location,
            [pop.city.location for pop in self.pops],
            identity="{}:{}".format(self.config.name, client.ip),
        )
        self._assignments[client.ip] = assignment
        return assignment

    def _route(self, client: Host) -> str:
        return self.pops[self.assignment_for(client).pop_index].host.ip

    def pop_for(self, client: Host) -> DohPop:
        """The concrete PoP serving *client*."""
        return self.pops[self.assignment_for(client).pop_index]

    # -- request handling ---------------------------------------------------

    def _connection_refused(self) -> bool:
        """Fault hook: drop connections during a "refuse" outage window."""
        injector = self.fault_injector
        if injector is None:
            return False
        return injector.provider_refuses(
            self.config.name, self.network.sim.now
        )

    def _make_handler(self, pop: DohPop):
        def handler(request: HttpRequest, info: ConnInfo):
            try:
                query = decode_query_from_request(request)
            except DohWireError:
                return HttpResponse(status=Status.BAD_REQUEST)
            injector = self.fault_injector
            if injector is not None and injector.provider_servfails(
                self.config.name, self.network.sim.now
            ):
                # Backend outage: HTTPS stays up, resolution does not.
                pop.queries_served += 1
                return encode_response(
                    query.respond(Rcode.SERVFAIL, ra=True)
                )
            if self.config.forward_prob > 0.0 and (
                self.rng.random() < self.config.forward_prob
            ):
                # Third-party transit detour before the backend sees it.
                yield pop.host.busy(self.config.forward_ms)
            question = query.question
            # Recursive-backend handling time (cache-miss path work);
            # resolver.resolve() is invoked inline so the resolver's own
            # serving delay does not apply here.
            if self.config.backend_ms > 0:
                yield pop.host.busy(self.config.backend_ms)
            client_subnet = None
            if self.config.sends_ecs:
                from repro.dns.edns import ClientSubnet
                from repro.geo.ipalloc import parse_ipv4, format_ipv4

                truncated = format_ipv4(
                    parse_ipv4(info.peer_ip) & 0xFFFFFF00
                )
                client_subnet = ClientSubnet(
                    address=truncated, source_prefix=24
                )
            try:
                outcome = yield from pop.resolver.resolve(
                    question.name, question.qtype,
                    client_subnet=client_subnet,
                )
                answer = query.respond(
                    outcome.rcode, answers=outcome.records, ra=True
                )
            except ResolutionError:
                answer = query.respond(Rcode.SERVFAIL, ra=True)
            pop.queries_served += 1
            return encode_response(answer)

        return handler

    # -- reporting ---------------------------------------------------------

    def total_queries(self) -> int:
        """Queries served across every PoP."""
        return sum(pop.queries_served for pop in self.pops)


def build_provider(
    name: str,
    network: Network,
    rng: random.Random,
    pop_ips: Sequence[str],
    root_servers: Sequence[str],
    warm_records: Sequence[ResourceRecord],
    config: Optional[ProviderConfig] = None,
) -> DohProvider:
    """Deploy provider *name* (or a custom *config*) onto *network*."""
    if config is None:
        config = PROVIDER_CONFIGS[name.lower()]
    provider = DohProvider(config, network, rng)
    provider.deploy(pop_ips, root_servers, warm_records)
    return provider
