"""Per-provider point-of-presence tables.

The paper observed, via geolocation of the recursive resolver addresses
hitting its authoritative server:

* **Cloudflare** — 146 PoPs, the broadest footprint, including a
  presence in West Africa (Senegal) no other provider had;
* **Google** — only 26 PoPs, none in Africa, each covering a large
  region;
* **NextDNS** — 107 PoPs, but operated on 47 third-party ASes rather
  than its own network;
* **Quad9** — a large footprint with notably more Sub-Saharan African
  PoPs than anyone else, yet poor client→PoP assignment.

The selections below reproduce those counts and geographic skews from
the shared city table.  Counts are asserted at import time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.geo.cities import CITIES

__all__ = ["PROVIDER_POPS", "PROVIDER_NAMES"]

PROVIDER_NAMES = ("cloudflare", "google", "nextdns", "quad9")

_ALL = frozenset(CITIES)

# --- Cloudflare: everything except a curated exclusion list (146) -------
_CLOUDFLARE_EXCLUDE = frozenset(
    {
        # Middle East (censorship / no presence)
        "jeddah", "muscat", "riyadh", "tehran", "baghdad", "haifa",
        "ankara", "abudhabi",
        # Africa: Cloudflare's 2021 footprint kept the major hubs only
        "abidjan", "abuja", "addisababa", "alexandria", "algiers",
        "antananarivo", "bamako", "banjul", "conakry", "cotonou", "douala",
        "freetown", "gaborone", "harare", "kampala", "khartoum", "kinshasa",
        "libreville", "lilongwe", "lome", "lusaka", "mogadishu", "monrovia",
        "ndjamena", "niamey", "ouagadougou", "tripoli", "windhoek",
        # Asia secondary sites
        "bishkek", "tashkent", "nursultan", "ulaanbaatar", "vientiane",
        "yangon", "male", "kathmandu", "medan", "cebu", "kaohsiung",
        "fukuoka", "busan", "macaocity",
        # Europe secondary sites
        "khabarovsk", "novosibirsk", "yekaterinburg", "minsk", "chisinau",
        "sarajevo", "skopje", "tirana", "palermo", "gothenburg",
        "thessaloniki", "lyon", "valletta",
        # North America secondary sites
        "guadalajara", "queretaro", "guatemalacity", "sanjosecr",
        "santodomingo", "willemstad", "hamilton", "portofspain", "kingston",
        # South America secondary sites
        "cordoba", "lapaz", "georgetown", "guayaquil", "caracas", "brasilia",
        # Oceania secondary sites
        "noumea", "papeete", "suva", "portmoresby", "guamcity",
    }
)
CLOUDFLARE_POPS: Tuple[str, ...] = tuple(sorted(_ALL - _CLOUDFLARE_EXCLUDE))

# --- Google: 26 large regional hubs, none in Africa ----------------------
GOOGLE_POPS: Tuple[str, ...] = tuple(
    sorted(
        {
            "ashburn", "newyork", "chicago", "dallas", "losangeles",
            "seattle", "atlanta", "denver",
            "london", "frankfurt", "paris", "amsterdam", "madrid", "milan",
            "warsaw",
            "tokyo", "seoul", "taipei", "hongkongcity", "singaporecity",
            "mumbai", "delhi",
            "saopaulo", "santiago",
            "sydney", "melbourne",
        }
    )
)

# --- NextDNS: 107 sites hosted on third-party networks -------------------
NEXTDNS_POPS: Tuple[str, ...] = tuple(
    sorted(
        {
            # North America (20)
            "ashburn", "atlanta", "boston", "chicago", "dallas", "denver",
            "houston", "losangeles", "miami", "minneapolis", "newyork",
            "philadelphia", "phoenix", "sanjose", "seattle", "saltlakecity",
            "toronto", "montreal", "vancouver", "mexicocity",
            # Europe (40)
            "amsterdam", "athens", "barcelona", "belgrade", "berlin",
            "bratislava", "brussels", "bucharest", "budapest", "copenhagen",
            "dublin", "dusseldorf", "frankfurt", "geneva", "hamburg",
            "helsinki", "kyiv", "lisbon", "ljubljana", "london",
            "luxembourgcity", "madrid", "manchester", "marseille", "milan",
            "moscow", "munich", "oslo", "paris", "prague", "riga", "rome",
            "sofia", "stockholm", "tallinn", "vienna", "vilnius", "warsaw",
            "zagreb", "zurich",
            # Asia (24)
            "almaty", "bangalore", "bangkok", "chennai", "colombo", "delhi",
            "dhaka", "hanoi", "hochiminh", "hongkongcity", "jakarta",
            "karachi", "kualalumpur", "manila", "mumbai", "osaka", "seoul",
            "singaporecity", "taipei", "tokyo", "tbilisi", "yerevan",
            "islamabad", "phnompenh",
            # Middle East (6)
            "istanbul", "telaviv", "dubai", "doha", "amman", "kuwaitcity",
            # Oceania (6)
            "sydney", "melbourne", "brisbane", "perth", "auckland",
            "wellington",
            # South America (8)
            "saopaulo", "riodejaneiro", "buenosaires", "santiago", "bogota",
            "lima", "quito", "montevideo",
            # Africa (3)
            "johannesburg", "capetown", "lagos",
        }
    )
)

# --- Quad9: broad footprint, all African sites retained (152) -------------
_QUAD9_EXCLUDE = frozenset(
    {
        # North America
        "columbus", "detroit", "kansascity", "saltlakecity", "phoenix",
        "philadelphia", "boston", "calgary", "queretaro", "guadalajara",
        "willemstad", "hamilton", "portofspain",
        # Europe
        "khabarovsk", "novosibirsk", "yekaterinburg", "stpetersburg",
        "minsk", "chisinau", "sarajevo", "skopje", "tirana", "palermo",
        "gothenburg", "thessaloniki", "lyon", "marseille", "manchester",
        "edinburgh", "dusseldorf", "hamburg", "riga", "vilnius",
        # Asia
        "bishkek", "tashkent", "nursultan", "ulaanbaatar", "vientiane",
        "yangon", "male", "kathmandu", "medan", "cebu", "kaohsiung",
        "fukuoka", "busan", "macaocity", "johor", "surabaya", "hyderabad",
        "kolkata", "lahore",
        # Middle East
        "jeddah", "muscat", "riyadh", "tehran", "baghdad", "haifa",
        "ankara", "manama",
        # South America
        "cordoba", "lapaz", "georgetown", "guayaquil", "caracas",
        "brasilia", "curitiba", "asuncion", "medellin", "fortaleza",
        "portoalegre",
        # Oceania
        "noumea", "papeete", "suva", "portmoresby", "guamcity", "adelaide",
    }
)
QUAD9_POPS: Tuple[str, ...] = tuple(sorted(_ALL - _QUAD9_EXCLUDE))

# --- AdGuard: a 30-hub footprint, the follow-up provider -----------------
# Not one of the paper's four measured services; it exists so incremental
# campaigns (``repro ckpt extend --provider adguard``) have a realistic
# fifth provider to grow into, mirroring the resolver sets of the
# follow-up studies (Hounsel et al.).  Hub-only deployment, one African
# site.
ADGUARD_POPS: Tuple[str, ...] = tuple(
    sorted(
        {
            # North America (9)
            "ashburn", "newyork", "chicago", "dallas", "losangeles",
            "seattle", "miami", "toronto", "mexicocity",
            # Europe (9)
            "london", "frankfurt", "paris", "amsterdam", "warsaw",
            "stockholm", "moscow", "milan", "madrid",
            # Asia + Middle East (7)
            "tokyo", "seoul", "singaporecity", "hongkongcity", "mumbai",
            "dubai", "istanbul",
            # Rest of world (5)
            "johannesburg", "saopaulo", "buenosaires", "sydney",
            "auckland",
        }
    )
)

#: PoP city keys per provider.
PROVIDER_POPS: Dict[str, Tuple[str, ...]] = {
    "cloudflare": CLOUDFLARE_POPS,
    "google": GOOGLE_POPS,
    "nextdns": NEXTDNS_POPS,
    "quad9": QUAD9_POPS,
    "adguard": ADGUARD_POPS,
}

_EXPECTED_COUNTS = {
    "cloudflare": 146, "google": 26, "nextdns": 107, "quad9": 152,
    "adguard": 30,
}
for _name, _expected in _EXPECTED_COUNTS.items():
    _actual = len(PROVIDER_POPS[_name])
    if _actual != _expected:  # pragma: no cover - data sanity
        raise RuntimeError(
            "{} PoP count {} != expected {}".format(_name, _actual, _expected)
        )
for _name, _keys in PROVIDER_POPS.items():
    _unknown = [key for key in _keys if key not in CITIES]
    if _unknown:  # pragma: no cover - data sanity
        raise RuntimeError("{} has unknown cities: {}".format(_name, _unknown))

