"""Geodesic coordinate helpers.

The paper geolocates clients and resolvers with Maxmind and compares
geodesic distances (e.g. the "potential improvement" metric of
Figure 6, reported in miles).  We use the haversine great-circle
distance, which is accurate to ~0.5% — far below the noise of /24-based
geolocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "EARTH_RADIUS_KM",
    "KM_PER_MILE",
    "LatLon",
    "geodesic_cache_info",
    "geodesic_km",
]

EARTH_RADIUS_KM = 6371.0088
KM_PER_MILE = 1.609344


@dataclass(frozen=True)
class LatLon:
    """A point on the Earth's surface in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError("latitude out of range: {}".format(self.lat))
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError("longitude out of range: {}".format(self.lon))
        # Hashing dominates the memoized-distance lookups (every probe
        # hashes two coordinates), so compute the dataclass hash once.
        object.__setattr__(self, "_hash", hash((self.lat, self.lon)))

    def __hash__(self) -> int:
        return self._hash


#: Cache size for memoized pair distances.  The simulator asks for the
#: same (site, site) pairs over and over — every transmission between a
#: client and its super proxy, resolver or provider PoP recomputes the
#: identical great-circle distance — so the full-scale campaign's
#: working set (22k clients x a handful of partners each) fits easily.
_GEODESIC_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=_GEODESIC_CACHE_SIZE)
def geodesic_km(a: LatLon, b: LatLon) -> float:
    """Haversine great-circle distance between *a* and *b* in km.

    Memoized on the (hashable, frozen) coordinate pair: the trig is
    ~10 libm calls and sits on the per-message latency hot path.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    # Clamp for floating error on antipodal points.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def geodesic_cache_info():
    """Hit/miss statistics of the memoized distance (benchmark guard)."""
    return geodesic_km.cache_info()
