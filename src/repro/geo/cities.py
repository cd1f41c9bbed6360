"""A world city table used to place DoH points-of-presence.

The paper observed provider PoPs at the city level (146 for Cloudflare,
26 for Google, 107 for NextDNS, and a large Quad9 footprint with heavy
Sub-Saharan coverage).  This table carries ~210 cities with approximate
coordinates; :mod:`repro.doh.pops` selects per-provider subsets from it.

Coordinates are approximate (±0.2°), which is far below the resolution
that matters for latency modelling at intercity scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.geo.coords import LatLon

__all__ = ["CITIES", "City", "cities_in_country"]


@dataclass(frozen=True)
class City:
    """One city: a stable key, display name, country and location."""

    key: str
    name: str
    country_code: str
    location: LatLon


def _t(key: str, name: str, cc: str, lat: float, lon: float) -> City:
    return City(key=key, name=name, country_code=cc, location=LatLon(lat, lon))


_RAW = (
    # North America
    _t("ashburn", "Ashburn", "US", 39.0, -77.5),
    _t("newyork", "New York", "US", 40.7, -74.0),
    _t("boston", "Boston", "US", 42.4, -71.1),
    _t("atlanta", "Atlanta", "US", 33.7, -84.4),
    _t("miami", "Miami", "US", 25.8, -80.2),
    _t("chicago", "Chicago", "US", 41.9, -87.6),
    _t("dallas", "Dallas", "US", 32.8, -96.8),
    _t("houston", "Houston", "US", 29.8, -95.4),
    _t("denver", "Denver", "US", 39.7, -105.0),
    _t("phoenix", "Phoenix", "US", 33.4, -112.1),
    _t("losangeles", "Los Angeles", "US", 34.1, -118.2),
    _t("sanjose", "San Jose", "US", 37.3, -121.9),
    _t("seattle", "Seattle", "US", 47.6, -122.3),
    _t("saltlakecity", "Salt Lake City", "US", 40.8, -111.9),
    _t("minneapolis", "Minneapolis", "US", 45.0, -93.3),
    _t("kansascity", "Kansas City", "US", 39.1, -94.6),
    _t("columbus", "Columbus", "US", 40.0, -83.0),
    _t("detroit", "Detroit", "US", 42.3, -83.0),
    _t("philadelphia", "Philadelphia", "US", 40.0, -75.2),
    _t("toronto", "Toronto", "CA", 43.7, -79.4),
    _t("montreal", "Montreal", "CA", 45.5, -73.6),
    _t("vancouver", "Vancouver", "CA", 49.3, -123.1),
    _t("calgary", "Calgary", "CA", 51.0, -114.1),
    _t("mexicocity", "Mexico City", "MX", 19.4, -99.1),
    _t("queretaro", "Queretaro", "MX", 20.6, -100.4),
    _t("guadalajara", "Guadalajara", "MX", 20.7, -103.3),
    _t("guatemalacity", "Guatemala City", "GT", 14.6, -90.5),
    _t("sanjosecr", "San Jose CR", "CR", 9.9, -84.1),
    _t("panamacity", "Panama City", "PA", 9.0, -79.5),
    _t("santodomingo", "Santo Domingo", "DO", 18.5, -69.9),
    _t("kingston", "Kingston", "JM", 18.0, -76.8),
    _t("sanjuan", "San Juan", "PR", 18.4, -66.1),
    _t("portofspain", "Port of Spain", "TT", 10.7, -61.5),
    _t("hamilton", "Hamilton", "BM", 32.3, -64.8),
    _t("willemstad", "Willemstad", "CW", 12.1, -68.9),
    # South America
    _t("saopaulo", "Sao Paulo", "BR", -23.5, -46.6),
    _t("riodejaneiro", "Rio de Janeiro", "BR", -22.9, -43.2),
    _t("fortaleza", "Fortaleza", "BR", -3.7, -38.5),
    _t("portoalegre", "Porto Alegre", "BR", -30.0, -51.2),
    _t("curitiba", "Curitiba", "BR", -25.4, -49.3),
    _t("brasilia", "Brasilia", "BR", -15.8, -47.9),
    _t("buenosaires", "Buenos Aires", "AR", -34.6, -58.4),
    _t("cordoba", "Cordoba", "AR", -31.4, -64.2),
    _t("santiago", "Santiago", "CL", -33.5, -70.7),
    _t("bogota", "Bogota", "CO", 4.6, -74.1),
    _t("medellin", "Medellin", "CO", 6.2, -75.6),
    _t("lima", "Lima", "PE", -12.0, -77.0),
    _t("quito", "Quito", "EC", -0.2, -78.5),
    _t("guayaquil", "Guayaquil", "EC", -2.2, -79.9),
    _t("caracas", "Caracas", "VE", 10.5, -66.9),
    _t("lapaz", "La Paz", "BO", -16.5, -68.1),
    _t("asuncion", "Asuncion", "PY", -25.3, -57.6),
    _t("montevideo", "Montevideo", "UY", -34.9, -56.2),
    _t("georgetown", "Georgetown", "GY", 6.8, -58.2),
    # Europe
    _t("london", "London", "GB", 51.5, -0.1),
    _t("manchester", "Manchester", "GB", 53.5, -2.2),
    _t("edinburgh", "Edinburgh", "GB", 55.95, -3.2),
    _t("dublin", "Dublin", "IE", 53.3, -6.3),
    _t("paris", "Paris", "FR", 48.9, 2.4),
    _t("marseille", "Marseille", "FR", 43.3, 5.4),
    _t("lyon", "Lyon", "FR", 45.8, 4.8),
    _t("frankfurt", "Frankfurt", "DE", 50.1, 8.7),
    _t("berlin", "Berlin", "DE", 52.5, 13.4),
    _t("munich", "Munich", "DE", 48.1, 11.6),
    _t("hamburg", "Hamburg", "DE", 53.6, 10.0),
    _t("dusseldorf", "Dusseldorf", "DE", 51.2, 6.8),
    _t("amsterdam", "Amsterdam", "NL", 52.4, 4.9),
    _t("brussels", "Brussels", "BE", 50.85, 4.35),
    _t("luxembourgcity", "Luxembourg", "LU", 49.6, 6.1),
    _t("zurich", "Zurich", "CH", 47.4, 8.5),
    _t("geneva", "Geneva", "CH", 46.2, 6.1),
    _t("vienna", "Vienna", "AT", 48.2, 16.4),
    _t("madrid", "Madrid", "ES", 40.4, -3.7),
    _t("barcelona", "Barcelona", "ES", 41.4, 2.2),
    _t("lisbon", "Lisbon", "PT", 38.7, -9.1),
    _t("milan", "Milan", "IT", 45.5, 9.2),
    _t("rome", "Rome", "IT", 41.9, 12.5),
    _t("palermo", "Palermo", "IT", 38.1, 13.4),
    _t("stockholm", "Stockholm", "SE", 59.3, 18.1),
    _t("gothenburg", "Gothenburg", "SE", 57.7, 12.0),
    _t("oslo", "Oslo", "NO", 59.9, 10.8),
    _t("copenhagen", "Copenhagen", "DK", 55.7, 12.6),
    _t("helsinki", "Helsinki", "FI", 60.2, 24.9),
    _t("reykjavik", "Reykjavik", "IS", 64.1, -21.9),
    _t("warsaw", "Warsaw", "PL", 52.2, 21.0),
    _t("prague", "Prague", "CZ", 50.1, 14.4),
    _t("bratislava", "Bratislava", "SK", 48.1, 17.1),
    _t("budapest", "Budapest", "HU", 47.5, 19.0),
    _t("bucharest", "Bucharest", "RO", 44.4, 26.1),
    _t("sofia", "Sofia", "BG", 42.7, 23.3),
    _t("athens", "Athens", "GR", 38.0, 23.7),
    _t("thessaloniki", "Thessaloniki", "GR", 40.6, 23.0),
    _t("zagreb", "Zagreb", "HR", 45.8, 16.0),
    _t("ljubljana", "Ljubljana", "SI", 46.1, 14.5),
    _t("belgrade", "Belgrade", "RS", 44.8, 20.5),
    _t("sarajevo", "Sarajevo", "BA", 43.85, 18.4),
    _t("skopje", "Skopje", "MK", 42.0, 21.4),
    _t("tirana", "Tirana", "AL", 41.3, 19.8),
    _t("tallinn", "Tallinn", "EE", 59.4, 24.8),
    _t("riga", "Riga", "LV", 56.9, 24.1),
    _t("vilnius", "Vilnius", "LT", 54.7, 25.3),
    _t("minsk", "Minsk", "BY", 53.9, 27.6),
    _t("kyiv", "Kyiv", "UA", 50.5, 30.5),
    _t("chisinau", "Chisinau", "MD", 47.0, 28.85),
    _t("moscow", "Moscow", "RU", 55.8, 37.6),
    _t("stpetersburg", "Saint Petersburg", "RU", 59.9, 30.3),
    _t("yekaterinburg", "Yekaterinburg", "RU", 56.8, 60.6),
    _t("novosibirsk", "Novosibirsk", "RU", 55.0, 82.9),
    _t("khabarovsk", "Khabarovsk", "RU", 48.5, 135.1),
    _t("valletta", "Valletta", "MT", 35.9, 14.5),
    _t("nicosia", "Nicosia", "CY", 35.2, 33.4),
    # Middle East
    _t("istanbul", "Istanbul", "TR", 41.0, 29.0),
    _t("ankara", "Ankara", "TR", 39.9, 32.9),
    _t("telaviv", "Tel Aviv", "IL", 32.1, 34.8),
    _t("haifa", "Haifa", "IL", 32.8, 35.0),
    _t("riyadh", "Riyadh", "SA", 24.7, 46.7),
    _t("jeddah", "Jeddah", "SA", 21.5, 39.2),
    _t("dubai", "Dubai", "AE", 25.2, 55.3),
    _t("abudhabi", "Abu Dhabi", "AE", 24.5, 54.4),
    _t("doha", "Doha", "QA", 25.3, 51.5),
    _t("kuwaitcity", "Kuwait City", "KW", 29.4, 48.0),
    _t("manama", "Manama", "BH", 26.2, 50.6),
    _t("muscat", "Muscat", "OM", 23.6, 58.5),
    _t("amman", "Amman", "JO", 32.0, 35.9),
    _t("beirut", "Beirut", "LB", 33.9, 35.5),
    _t("baghdad", "Baghdad", "IQ", 33.3, 44.4),
    _t("tehran", "Tehran", "IR", 35.7, 51.4),
    # Central/South Asia
    _t("almaty", "Almaty", "KZ", 43.25, 76.9),
    _t("nursultan", "Nur-Sultan", "KZ", 51.2, 71.4),
    _t("tashkent", "Tashkent", "UZ", 41.3, 69.3),
    _t("bishkek", "Bishkek", "KG", 42.9, 74.6),
    _t("tbilisi", "Tbilisi", "GE", 41.7, 44.8),
    _t("yerevan", "Yerevan", "AM", 40.2, 44.5),
    _t("baku", "Baku", "AZ", 40.4, 49.9),
    _t("mumbai", "Mumbai", "IN", 19.1, 72.9),
    _t("delhi", "New Delhi", "IN", 28.6, 77.2),
    _t("chennai", "Chennai", "IN", 13.1, 80.3),
    _t("bangalore", "Bangalore", "IN", 13.0, 77.6),
    _t("hyderabad", "Hyderabad", "IN", 17.4, 78.5),
    _t("kolkata", "Kolkata", "IN", 22.6, 88.4),
    _t("karachi", "Karachi", "PK", 24.9, 67.1),
    _t("lahore", "Lahore", "PK", 31.6, 74.3),
    _t("islamabad", "Islamabad", "PK", 33.7, 73.1),
    _t("dhaka", "Dhaka", "BD", 23.8, 90.4),
    _t("colombo", "Colombo", "LK", 6.9, 79.9),
    _t("kathmandu", "Kathmandu", "NP", 27.7, 85.3),
    _t("male", "Male", "MV", 4.2, 73.5),
    # East/Southeast Asia
    _t("yangon", "Yangon", "MM", 16.8, 96.2),
    _t("bangkok", "Bangkok", "TH", 13.75, 100.5),
    _t("hanoi", "Hanoi", "VN", 21.0, 105.85),
    _t("hochiminh", "Ho Chi Minh City", "VN", 10.8, 106.7),
    _t("phnompenh", "Phnom Penh", "KH", 11.6, 104.9),
    _t("vientiane", "Vientiane", "LA", 17.97, 102.6),
    _t("kualalumpur", "Kuala Lumpur", "MY", 3.15, 101.7),
    _t("johor", "Johor Bahru", "MY", 1.5, 103.7),
    _t("singaporecity", "Singapore", "SG", 1.35, 103.85),
    _t("jakarta", "Jakarta", "ID", -6.2, 106.8),
    _t("surabaya", "Surabaya", "ID", -7.3, 112.7),
    _t("medan", "Medan", "ID", 3.6, 98.7),
    _t("manila", "Manila", "PH", 14.6, 121.0),
    _t("cebu", "Cebu", "PH", 10.3, 123.9),
    _t("hongkongcity", "Hong Kong", "HK", 22.3, 114.2),
    _t("macaocity", "Macao", "MO", 22.2, 113.55),
    _t("taipei", "Taipei", "TW", 25.0, 121.6),
    _t("kaohsiung", "Kaohsiung", "TW", 22.6, 120.3),
    _t("tokyo", "Tokyo", "JP", 35.7, 139.7),
    _t("osaka", "Osaka", "JP", 34.7, 135.5),
    _t("fukuoka", "Fukuoka", "JP", 33.6, 130.4),
    _t("seoul", "Seoul", "KR", 37.6, 127.0),
    _t("busan", "Busan", "KR", 35.1, 129.0),
    _t("ulaanbaatar", "Ulaanbaatar", "MN", 47.9, 106.9),
    # Oceania
    _t("sydney", "Sydney", "AU", -33.9, 151.2),
    _t("melbourne", "Melbourne", "AU", -37.8, 145.0),
    _t("brisbane", "Brisbane", "AU", -27.5, 153.0),
    _t("perth", "Perth", "AU", -31.95, 115.85),
    _t("adelaide", "Adelaide", "AU", -34.9, 138.6),
    _t("auckland", "Auckland", "NZ", -36.85, 174.75),
    _t("wellington", "Wellington", "NZ", -41.3, 174.8),
    _t("suva", "Suva", "FJ", -18.1, 178.45),
    _t("noumea", "Noumea", "NC", -22.3, 166.45),
    _t("guamcity", "Hagatna", "GU", 13.5, 144.75),
    _t("portmoresby", "Port Moresby", "PG", -9.45, 147.2),
    _t("papeete", "Papeete", "PF", -17.5, -149.6),
    # North Africa
    _t("cairo", "Cairo", "EG", 30.05, 31.25),
    _t("alexandria", "Alexandria", "EG", 31.2, 29.9),
    _t("tunis", "Tunis", "TN", 36.8, 10.2),
    _t("algiers", "Algiers", "DZ", 36.75, 3.05),
    _t("casablanca", "Casablanca", "MA", 33.6, -7.6),
    _t("tripoli", "Tripoli", "LY", 32.9, 13.2),
    _t("khartoum", "Khartoum", "SD", 15.6, 32.5),
    # Sub-Saharan Africa
    _t("lagos", "Lagos", "NG", 6.5, 3.4),
    _t("abuja", "Abuja", "NG", 9.1, 7.4),
    _t("accra", "Accra", "GH", 5.6, -0.2),
    _t("abidjan", "Abidjan", "CI", 5.3, -4.0),
    _t("dakar", "Dakar", "SN", 14.7, -17.45),
    _t("bamako", "Bamako", "ML", 12.65, -8.0),
    _t("ouagadougou", "Ouagadougou", "BF", 12.37, -1.52),
    _t("niamey", "Niamey", "NE", 13.5, 2.1),
    _t("ndjamena", "N'Djamena", "TD", 12.1, 15.0),
    _t("conakry", "Conakry", "GN", 9.5, -13.7),
    _t("freetown", "Freetown", "SL", 8.5, -13.2),
    _t("monrovia", "Monrovia", "LR", 6.3, -10.8),
    _t("lome", "Lome", "TG", 6.1, 1.2),
    _t("cotonou", "Cotonou", "BJ", 6.4, 2.4),
    _t("banjul", "Banjul", "GM", 13.45, -16.6),
    _t("douala", "Douala", "CM", 4.05, 9.7),
    _t("libreville", "Libreville", "GA", 0.4, 9.45),
    _t("kinshasa", "Kinshasa", "CD", -4.3, 15.3),
    _t("luanda", "Luanda", "AO", -8.8, 13.2),
    _t("addisababa", "Addis Ababa", "ET", 9.0, 38.7),
    _t("djiboutic", "Djibouti City", "DJ", 11.6, 43.1),
    _t("mogadishu", "Mogadishu", "SO", 2.05, 45.3),
    _t("nairobi", "Nairobi", "KE", -1.3, 36.8),
    _t("mombasa", "Mombasa", "KE", -4.05, 39.65),
    _t("kampala", "Kampala", "UG", 0.3, 32.6),
    _t("daressalaam", "Dar es Salaam", "TZ", -6.8, 39.3),
    _t("kigali", "Kigali", "RW", -1.95, 30.1),
    _t("lusaka", "Lusaka", "ZM", -15.4, 28.3),
    _t("harare", "Harare", "ZW", -17.8, 31.05),
    _t("lilongwe", "Lilongwe", "MW", -13.98, 33.8),
    _t("maputo", "Maputo", "MZ", -25.95, 32.6),
    _t("gaborone", "Gaborone", "BW", -24.65, 25.9),
    _t("windhoek", "Windhoek", "NA", -22.6, 17.1),
    _t("johannesburg", "Johannesburg", "ZA", -26.2, 28.05),
    _t("capetown", "Cape Town", "ZA", -33.9, 18.4),
    _t("durban", "Durban", "ZA", -29.85, 31.0),
    _t("antananarivo", "Antananarivo", "MG", -18.9, 47.5),
    _t("portlouis", "Port Louis", "MU", -20.2, 57.5),
    _t("reuniondenis", "Saint-Denis", "RE", -20.9, 55.45),
)

#: All cities keyed by slug.
CITIES: Dict[str, City] = {entry.key: entry for entry in _RAW}

if len(CITIES) != len(_RAW):  # pragma: no cover - data sanity
    raise RuntimeError("duplicate city keys in city table")


def cities_in_country(country_code: str) -> List[City]:
    """All cities located in *country_code*, sorted by key."""
    code = country_code.upper()
    return [CITIES[k] for k in sorted(CITIES) if CITIES[k].country_code == code]
