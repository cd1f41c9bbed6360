"""PoP distance analyses (Figures 6 and 9).

"Potential improvement" (Figure 6) is the distance from a client to
the PoP that actually served it minus the distance to the closest PoP
*observed in the dataset* for the same provider.  Everything is
computed from dataset fields (client /24 geolocation, PoP /24
geolocation), not from simulator internals — the same information the
paper had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataset.store import Dataset
from repro.geo.coords import KM_PER_MILE, LatLon, geodesic_km
from repro.stats.descriptive import median

__all__ = [
    "PopDistanceStats",
    "client_pop_distances",
    "pop_distance_stats",
    "potential_improvements",
]


def _client_locations(dataset: Dataset) -> Dict[str, LatLon]:
    return {
        client.node_id: LatLon(client.lat, client.lon)
        for client in dataset.clients
    }


def _observed_pop_sites(dataset: Dataset) -> Dict[str, List[LatLon]]:
    sites: Dict[str, set] = {}
    for sample in dataset.successful_doh():
        if sample.pop_lat is not None and sample.pop_lon is not None:
            sites.setdefault(sample.provider, set()).add(
                (sample.pop_lat, sample.pop_lon)
            )
    return {
        provider: [LatLon(lat, lon) for lat, lon in sorted(coords)]
        for provider, coords in sites.items()
    }


def client_pop_distances(
    dataset: Dataset, provider: str
) -> List[Tuple[str, float]]:
    """Figure 9: per client, miles to the PoP that served it."""
    locations = _client_locations(dataset)
    out: List[Tuple[str, float]] = []
    seen = set()
    for sample in dataset.successful_doh(provider):
        if sample.node_id in seen or sample.pop_lat is None:
            continue
        client_loc = locations.get(sample.node_id)
        if client_loc is None:
            continue
        seen.add(sample.node_id)
        pop_loc = LatLon(sample.pop_lat, sample.pop_lon)
        out.append(
            (sample.node_id, geodesic_km(client_loc, pop_loc) / KM_PER_MILE)
        )
    return out


def potential_improvements(
    dataset: Dataset, provider: str
) -> List[Tuple[str, float]]:
    """Figure 6: per client, miles of potential improvement."""
    locations = _client_locations(dataset)
    sites = _observed_pop_sites(dataset).get(provider, [])
    if not sites:
        return []
    out: List[Tuple[str, float]] = []
    seen = set()
    for sample in dataset.successful_doh(provider):
        if sample.node_id in seen or sample.pop_lat is None:
            continue
        client_loc = locations.get(sample.node_id)
        if client_loc is None:
            continue
        seen.add(sample.node_id)
        used = geodesic_km(client_loc, LatLon(sample.pop_lat, sample.pop_lon))
        nearest = min(geodesic_km(client_loc, site) for site in sites)
        out.append(
            (sample.node_id, max(0.0, used - nearest) / KM_PER_MILE)
        )
    return out


@dataclass(frozen=True)
class PopDistanceStats:
    """One provider's Figure 6 summary numbers."""

    provider: str
    clients: int
    median_improvement_miles: float
    share_nearest: float            # improvement == 0 (routed optimally)
    share_over_1000_miles: float    # paper: CF 26%, Google 10%
    median_distance_miles: float    # Figure 9 median



def pop_distance_stats(dataset: Dataset) -> List[PopDistanceStats]:
    """Per-provider PoP-distance summaries (Figures 6 and 9)."""
    out: List[PopDistanceStats] = []
    for provider in dataset.providers():
        improvements = [m for _, m in potential_improvements(dataset, provider)]
        distances = [m for _, m in client_pop_distances(dataset, provider)]
        if not improvements:
            continue
        out.append(
            PopDistanceStats(
                provider=provider,
                clients=len(improvements),
                median_improvement_miles=median(improvements),
                share_nearest=sum(1 for m in improvements if m < 1.0)
                / len(improvements),
                share_over_1000_miles=sum(
                    1 for m in improvements if m >= 1000.0
                )
                / len(improvements),
                median_distance_miles=median(distances)
                if distances
                else float("nan"),
            )
        )
    return out
