"""Exit-node population and per-country network infrastructure.

Builds the residential measurement fleet the paper bought from
BrightData: 22,052 exit nodes across 224 countries, each with

* a residential network attachment derived from its country's
  infrastructure profile (bandwidth → last-mile latency and
  serialisation, AS count → routing circuity, income → international
  transit surcharges),
* a *default DNS resolver* — usually a nearby ISP resolver, sometimes
  an overloaded one, sometimes a misconfigured distant one (these
  clients are the population for whom DoH turns out faster than Do53),
* a BrightData country label that is wrong for ~0.88% of nodes (the
  paper's Maxmind-mismatch discard rate).

The per-country client counts are fitted so the fleet matches the
paper's Figure 3: capped at 282 clients, at least 10 in analysed
countries, median ~103.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dns.records import ResourceRecord
from repro.dns.recursive import RecursiveResolver
from repro.geo.cities import cities_in_country
from repro.geo.coords import LatLon
from repro.geo.countries import COUNTRIES, Country, IncomeGroup
from repro.geo.geolocate import GeolocationService
from repro.geo.ipalloc import IpAllocator
from repro.netsim.host import SiteProfile
from repro.netsim.network import Network
from repro.proxy.exitnode import ExitNode
from repro.proxy.network import CensorshipPolicy, ProxyNetwork

__all__ = [
    "CountryInfrastructure",
    "PopulationConfig",
    "PopulationResult",
    "ResolverKind",
    "build_population",
    "client_site_for",
    "choose_default_resolver",
    "fit_population_counts",
    "resolver_site_for",
]


class ResolverKind:
    """How a node's default resolver is configured."""

    ISP = "isp"                # nearby ISP resolver (the common case)
    OVERLOADED = "overloaded"  # in-country but slow resolver
    FOREIGN = "foreign"        # distant resolver in another country


@dataclass
class PopulationConfig:
    """Knobs for fleet generation."""

    total_clients: int = 22052
    max_clients_per_country: int = 282
    min_analyzed_clients: int = 10
    median_target: int = 103
    #: Scale factor on all per-country counts (cheap benchmarking runs).
    scale: float = 1.0
    #: Fraction of nodes whose BrightData country label is wrong.
    mislabel_rate: float = 0.0088
    #: Fraction of nodes with a poor default resolver.
    bad_resolver_rate: float = 0.26
    #: Among bad resolvers, fraction that are foreign (vs overloaded).
    foreign_share: float = 0.5
    #: Probability an ISP resolver has a provider's domain pre-cached.
    provider_warm_prob: float = 0.85
    #: Probability a node's OS stub cache already holds a provider's
    #: address (popular names resolve locally in ~0ms).
    os_cache_prob: float = 0.82

    def scaled_counts(self) -> Dict[str, int]:
        """Per-country client counts after fitting and scaling."""
        counts = fit_population_counts(
            {code: c.target_clients for code, c in COUNTRIES.items()},
            total=self.total_clients,
            cap=self.max_clients_per_country,
            min_analyzed=self.min_analyzed_clients,
            median_target=self.median_target,
        )
        if self.scale >= 0.999:
            return counts
        scaled: Dict[str, int] = {}
        for code, count in counts.items():
            value = int(round(count * self.scale))
            scaled[code] = max(2, value) if count >= 2 else count
        return scaled

    @property
    def analyzed_threshold(self) -> int:
        """Per-country minimum clients for analysis, scale-adjusted."""
        if self.scale >= 0.999:
            return self.min_analyzed_clients
        return max(3, int(round(self.min_analyzed_clients * self.scale)))


def fit_population_counts(
    base: Mapping[str, int],
    total: int = 22052,
    cap: int = 282,
    min_analyzed: int = 10,
    median_target: int = 103,
) -> Dict[str, int]:
    """Fit per-country counts to the paper's population statistics.

    Countries whose base weight is below *min_analyzed* keep it (the
    paper's 25 excluded countries/territories); the rest are rescaled by
    a power transform ``min(cap, alpha * base**beta)`` where *alpha* is
    bisected for the total and *beta* picked so the median approaches
    *median_target*.
    """
    fixed = {code: b for code, b in base.items() if b < min_analyzed}
    adjustable = {code: b for code, b in base.items() if b >= min_analyzed}
    if not adjustable:
        return dict(base)
    budget = total - sum(fixed.values())

    def transformed(alpha: float, beta: float) -> Dict[str, int]:
        return {
            code: min(cap, max(min_analyzed, int(round(alpha * b ** beta))))
            for code, b in adjustable.items()
        }

    def solve_alpha(beta: float) -> float:
        lo, hi = 1e-3, 1e3
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if sum(transformed(mid, beta).values()) < budget:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    best_counts: Optional[Dict[str, int]] = None
    best_score = float("inf")
    for beta in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0):
        alpha = solve_alpha(beta)
        counts = transformed(alpha, beta)
        med = statistics.median(counts.values())
        score = abs(med - median_target)
        if score < best_score:
            best_score = score
            best_counts = counts
    assert best_counts is not None
    result = dict(fixed)
    result.update(best_counts)
    return result


# ---------------------------------------------------------------------------
# Site derivation from country profiles
# ---------------------------------------------------------------------------

_INCOME_STRETCH = {
    IncomeGroup.HIGH: 0.0,
    IncomeGroup.UPPER_MIDDLE: 0.08,
    IncomeGroup.LOWER_MIDDLE: 0.25,
    IncomeGroup.LOW: 0.45,
}
_INCOME_INTL = {
    IncomeGroup.HIGH: 1.0,
    IncomeGroup.UPPER_MIDDLE: 1.15,
    IncomeGroup.LOWER_MIDDLE: 1.5,
    IncomeGroup.LOW: 2.2,
}


def _country_stretch(country: Country) -> float:
    return (
        1.18
        + 1.5 / math.log(3.0 + country.num_ases)
        + _INCOME_STRETCH[country.income_group]
    )


def _country_intl_extra(country: Country) -> float:
    base = max(0.0, 24.0 - 6.0 * math.log(1.0 + country.bandwidth_mbps))
    return base * _INCOME_INTL[country.income_group]


def _clamp_latlon(lat: float, lon: float) -> LatLon:
    lat = max(-85.0, min(85.0, lat))
    while lon > 180.0:
        lon -= 360.0
    while lon < -180.0:
        lon += 360.0
    return LatLon(lat, lon)


def _node_location(country: Country, rng: random.Random) -> LatLon:
    cities = cities_in_country(country.code)
    if cities:
        city = cities[rng.randrange(len(cities))]
        base = city.location
        sigma = 0.4
    else:
        base = country.location
        sigma = 2.2 if country.target_clients >= 200 else 1.1
    return _clamp_latlon(
        base.lat + rng.gauss(0.0, sigma), base.lon + rng.gauss(0.0, sigma)
    )


def client_site_for(country: Country, rng: random.Random) -> SiteProfile:
    """Sample a residential attachment for a node in *country*."""
    mbps = max(1.0, rng.lognormvariate(math.log(country.bandwidth_mbps), 0.55))
    last_mile = min(
        90.0, max(2.0, 110.0 / math.sqrt(country.bandwidth_mbps))
    ) * rng.lognormvariate(0.0, 0.35)
    return SiteProfile(
        location=_node_location(country, rng),
        country_code=country.code,
        last_mile_ms=min(120.0, last_mile),
        bandwidth_mbps=mbps,
        path_stretch=_country_stretch(country),
        jitter_scale=1.0 + 6.0 / math.sqrt(country.bandwidth_mbps),
        loss_rate=min(0.02, 0.001 + 0.008 / country.bandwidth_mbps),
        intl_extra_ms=_country_intl_extra(country),
    )


def resolver_site_for(
    country: Country,
    rng: random.Random,
    location: Optional[LatLon] = None,
    site_country: Optional[str] = None,
) -> SiteProfile:
    """Attachment of an ISP resolver host serving *country*.

    ``location``/``site_country`` override placement for off-shore
    upstream resolvers (the host then physically sits abroad).
    """
    if location is None:
        location = _node_location(country, rng)
    return SiteProfile(
        location=location,
        country_code=site_country or country.code,
        last_mile_ms=0.4,
        bandwidth_mbps=2000.0,
        # ISP resolver cores sit on the provider's transit uplinks, which
        # are far less circuitous than residential last-mile routing.
        path_stretch=min(1.55, max(1.0, _country_stretch(country) * 0.95)),
        jitter_scale=0.6,
        loss_rate=0.0008,
        intl_extra_ms=_country_intl_extra(country) * 0.4,
        datacenter=True,
    )


@lru_cache(maxsize=None)
def country_resolver_quality(country_code: str) -> float:
    """Deterministic per-country ISP-resolver quality multiplier.

    Real ISP resolver deployments vary enormously between countries —
    the paper finds whole countries (Indonesia, Brazil) where switching
    to DoH is a *speedup* because default resolvers are poor.  The
    multiplier is lognormal, keyed by country code so it is stable
    across builds.
    """
    import hashlib

    digest = hashlib.sha256(
        "resolver-quality:{}".format(country_code).encode()
    ).digest()
    u = int.from_bytes(digest[:8], "big") / float(1 << 64)
    # Inverse-normal via Box-Muller on two hash-derived uniforms.
    v = int.from_bytes(digest[8:16], "big") / float(1 << 64)
    z = math.sqrt(-2.0 * math.log(max(u, 1e-12))) * math.cos(2 * math.pi * v)
    return min(15.0, max(0.4, math.exp(1.0 * z)))


@lru_cache(maxsize=None)
def country_has_remote_resolvers(country_code: str) -> bool:
    """Whether a country's ISPs resolve through off-shore upstreams.

    Some national ISPs forward DNS to resolvers hosted abroad (upstream
    transit providers); every Do53 query then pays an international
    round trip.  Deterministic per country, ~8% of countries.
    """
    import hashlib

    digest = hashlib.sha256(
        "remote-resolver:{}".format(country_code).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64) < 0.14


#: Hub cities that host off-shore upstream resolvers.
_REMOTE_RESOLVER_HUBS = ("london", "miami", "frankfurt", "singaporecity")


def _resolver_processing_ms(
    country: Country,
    rng: random.Random,
    quality: Optional[float] = None,
) -> float:
    if quality is None:
        quality = country_resolver_quality(country.code)
    base = (1.2 + 10.0 / math.sqrt(country.bandwidth_mbps))
    base *= quality
    return base * rng.lognormvariate(0.0, 0.4)


# ---------------------------------------------------------------------------
# Fleet assembly
# ---------------------------------------------------------------------------

@dataclass
class CountryInfrastructure:
    """Per-country hosts supporting the resident exit nodes."""

    country: Country
    resolvers: List[RecursiveResolver] = field(default_factory=list)
    overloaded_resolver: Optional[RecursiveResolver] = None

    def all_resolvers(self) -> List[RecursiveResolver]:
        """Every resolver serving this country, slow one included."""
        extra = [self.overloaded_resolver] if self.overloaded_resolver else []
        return self.resolvers + extra


@dataclass
class PopulationResult:
    """Everything the fleet build produced."""

    nodes: List[ExitNode]
    infrastructure: Dict[str, CountryInfrastructure]
    resolver_kind: Dict[str, str]  # node_id -> ResolverKind
    counts: Dict[str, int]



def _pick_mislabel(
    true_code: str, rng: random.Random, codes: Sequence[str]
) -> str:
    wrong = codes[rng.randrange(len(codes))]
    if wrong == true_code:
        wrong = codes[(codes.index(wrong) + 1) % len(codes)]
    return wrong


def build_population(
    network: Network,
    rng: random.Random,
    allocator: IpAllocator,
    geolocation: GeolocationService,
    root_servers: Sequence[str],
    proxy_network: ProxyNetwork,
    censorship: CensorshipPolicy,
    config: PopulationConfig,
    warm_records: Sequence[ResourceRecord] = (),
    provider_records: Mapping[str, Sequence[ResourceRecord]] = {},
    plan=None,
) -> PopulationResult:
    """Create every exit node, ISP resolver and enrolment record.

    *warm_records* seed every resolver's cache (root hints and TLD
    delegations — what any live resolver holds); *provider_records*
    maps provider domains to their A records, pre-cached with
    probability ``config.provider_warm_prob`` per resolver (popular
    names are usually warm in ISP caches).

    *plan*, if given, is a :class:`repro.core.plan.WorldPlan` carrying
    the precomputed population fit, resolver-quality multipliers and
    remote-resolver hub choices.  Every plan value equals what this
    function derives itself, so the built fleet — and every RNG draw —
    is identical with or without one; the plan only skips recomputing.
    """
    if plan is not None:
        plan.check_population(config)
        counts = plan.counts
        quality_map: Optional[Mapping[str, float]] = plan.resolver_quality
        remote_hubs: Optional[Mapping[str, str]] = plan.remote_hub
    else:
        counts = config.scaled_counts()
        quality_map = None
        remote_hubs = None
    infrastructure: Dict[str, CountryInfrastructure] = {}
    resolver_kind: Dict[str, str] = {}
    nodes: List[ExitNode] = []
    codes = sorted(COUNTRIES)

    # First pass: per-country resolvers.
    for code in codes:
        country = COUNTRIES[code]
        if counts.get(code, 0) <= 0:
            continue
        infra = CountryInfrastructure(country=country)
        n_resolvers = max(1, min(5, int(round(math.log(2 + country.num_ases)))))
        country_quality = (
            quality_map[code] if quality_map is not None else None
        )
        if remote_hubs is not None:
            hub_key = remote_hubs.get(code)
            remote = hub_key is not None
            if remote:
                from repro.geo.cities import CITIES

                hub = CITIES[hub_key]
        else:
            remote = country_has_remote_resolvers(code)
            if remote:
                from repro.geo.cities import CITIES
                from repro.geo.coords import geodesic_km

                hub = min(
                    (CITIES[key] for key in _REMOTE_RESOLVER_HUBS),
                    key=lambda c: geodesic_km(c.location, country.location),
                )
        for index in range(n_resolvers):
            ip = allocator.allocate(code, new_subnet=True)
            host = network.add_host(
                "resolver-{}-{}".format(code, index),
                ip,
                resolver_site_for(
                    country,
                    rng,
                    location=hub.location if remote else None,
                    site_country=hub.country_code if remote else None,
                ),
            )
            resolver = RecursiveResolver(
                host,
                list(root_servers),
                rng,
                processing_ms=_resolver_processing_ms(
                    country, rng, quality=country_quality
                ),
            )
            _warm_resolver(resolver, warm_records, provider_records,
                           config.provider_warm_prob, rng)
            resolver.start()
            infra.resolvers.append(resolver)
        # One overloaded resolver per country.
        ip = allocator.allocate(code, new_subnet=True)
        host = network.add_host(
            "resolver-{}-slow".format(code), ip, resolver_site_for(country, rng)
        )
        slow = RecursiveResolver(
            host,
            list(root_servers),
            rng,
            processing_ms=rng.uniform(150.0, 550.0),
        )
        _warm_resolver(slow, warm_records, provider_records,
                       config.provider_warm_prob, rng)
        slow.start()
        infra.overloaded_resolver = slow
        infrastructure[code] = infra

    # Second pass: the nodes themselves.
    for code in codes:
        country = COUNTRIES[code]
        n_nodes = counts.get(code, 0)
        if n_nodes <= 0:
            continue
        infra = infrastructure[code]
        blocked = censorship.blocked_hosts_for(code)
        country_quality = (
            quality_map[code] if quality_map is not None else None
        )
        for index in range(n_nodes):
            ip = allocator.allocate(code, new_subnet=True)
            site = client_site_for(country, rng)
            host = network.add_host(
                "exit-{}-{}".format(code, index), ip, site
            )
            geolocation.register(ip, code, site.location)
            kind, resolver_ip = choose_default_resolver(
                code, infra, infrastructure, rng, config,
                quality=country_quality,
            )
            claimed = code
            if rng.random() < config.mislabel_rate:
                claimed = _pick_mislabel(code, rng, codes)
            os_cache: Dict[str, str] = {}
            for domain, records in sorted(provider_records.items()):
                if records and rng.random() < config.os_cache_prob:
                    os_cache[domain] = records[0].rdata.address
            node = ExitNode(
                node_id="{}-{:04d}".format(code, index),
                host=host,
                resolver_ip=resolver_ip,
                claimed_country=claimed,
                rng=rng,
                blocked_hosts=blocked,
                os_dns_cache=os_cache,
            )
            node.start()
            proxy_network.enroll(node)
            resolver_kind[node.node_id] = kind
            nodes.append(node)

    return PopulationResult(
        nodes=nodes,
        infrastructure=infrastructure,
        resolver_kind=resolver_kind,
        counts=counts,
    )


def _warm_resolver(
    resolver: RecursiveResolver,
    warm_records: Sequence[ResourceRecord],
    provider_records: Mapping[str, Sequence[ResourceRecord]],
    warm_prob: float,
    rng: random.Random,
) -> None:
    resolver.warm(list(warm_records))
    for _domain, records in sorted(provider_records.items()):
        if rng.random() < warm_prob:
            resolver.warm(list(records))


def choose_default_resolver(
    code: str,
    infra: CountryInfrastructure,
    all_infra: Dict[str, CountryInfrastructure],
    rng: random.Random,
    config: PopulationConfig,
    quality: Optional[float] = None,
) -> Tuple[str, str]:
    """Pick a node's default resolver; returns (kind, resolver_ip).

    In countries with nationally poor resolver deployments (quality
    multiplier well above 1) a much larger share of clients sits behind
    slow resolvers — these are the countries the paper finds benefiting
    from a switch to DoH (e.g. Brazil, Indonesia).
    """
    if quality is None:
        quality = country_resolver_quality(code)
    bad_rate = config.bad_resolver_rate
    if quality >= 2.5:
        bad_rate = min(0.7, bad_rate + 0.1 * quality)
    if rng.random() < bad_rate:
        if rng.random() < config.foreign_share and len(all_infra) > 1:
            others = [c for c in sorted(all_infra) if c != code]
            foreign = all_infra[others[rng.randrange(len(others))]]
            pool = foreign.resolvers or [foreign.overloaded_resolver]
            choice = pool[rng.randrange(len(pool))]
            return ResolverKind.FOREIGN, choice.host.ip
        assert infra.overloaded_resolver is not None
        return ResolverKind.OVERLOADED, infra.overloaded_resolver.host.ip
    resolver = infra.resolvers[rng.randrange(len(infra.resolvers))]
    return ResolverKind.ISP, resolver.host.ip
