"""Geography, demographics and addressing substrate.

Provides the data the paper pulled from external services:

* country profiles (World Bank income groups and GDP per capita, Ookla
  nationwide bandwidth, IPInfo AS counts) — :mod:`repro.geo.countries`;
* a world city table used to place DoH points-of-presence —
  :mod:`repro.geo.cities`;
* geodesic distance helpers — :mod:`repro.geo.coords`;
* per-country IP prefix allocation — :mod:`repro.geo.ipalloc`;
* a Maxmind-like /24 geolocation service — :mod:`repro.geo.geolocate`.
"""

from repro.geo.coords import LatLon, geodesic_km
from repro.geo.countries import (
    COUNTRIES,
    Country,
    IncomeGroup,
    country,
)
from repro.geo.cities import CITIES, City
from repro.geo.ipalloc import IpAllocator
from repro.geo.geolocate import GeolocationService

__all__ = [
    "CITIES",
    "COUNTRIES",
    "City",
    "Country",
    "GeolocationService",
    "IncomeGroup",
    "IpAllocator",
    "LatLon",
    "country",
    "geodesic_km",
]
