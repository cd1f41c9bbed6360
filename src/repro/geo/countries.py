"""Per-country profiles used throughout the reproduction.

The paper joins its measurements against three external datasets:

* World Bank GDP per capita and income-group classification,
* Ookla Speedtest nationwide fixed-broadband bandwidth,
* IPInfo per-country autonomous-system counts.

Those services are not reachable offline, so this module carries a
curated snapshot (circa 2021) of plausible values for 232 countries and
territories.  Values are approximate; what matters for the reproduction
is the *joint distribution* (income correlates with bandwidth, AS count
and infrastructure quality), which drives both the latency simulator
and the Section 6 regressions.

``target_clients`` is the expected number of BrightData exit nodes the
population generator places in the country; the paper observed 10–282
clients per country with a median of 103.  ``censored`` marks countries
where DoH queries to public providers are dropped (the paper observed
99% DoH drop rates from China in 2021); these countries end up excluded
from per-country analyses exactly as the paper's 25 exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.geo.coords import LatLon

__all__ = [
    "COUNTRIES",
    "Country",
    "IncomeGroup",
    "SUPER_PROXY_COUNTRIES",
    "country",
]


class IncomeGroup:
    """World Bank income-group labels."""

    HIGH = "high"
    UPPER_MIDDLE = "upper_middle"
    LOWER_MIDDLE = "lower_middle"
    LOW = "low"

    ORDER = (HIGH, UPPER_MIDDLE, LOWER_MIDDLE, LOW)


#: The 11 countries hosting BrightData super-proxy servers.  In these
#: countries the super proxy performs Do53 resolution itself, so exit-node
#: Do53 timings are unavailable and the paper fell back to RIPE Atlas.
SUPER_PROXY_COUNTRIES = (
    "US",
    "CA",
    "GB",
    "IN",
    "JP",
    "KR",
    "SG",
    "DE",
    "NL",
    "FR",
    "AU",
)


@dataclass(frozen=True)
class Country:
    """Static profile of one country or territory."""

    code: str
    name: str
    location: LatLon
    region: str
    income_group: str
    gdp_per_capita: float  # USD, current
    bandwidth_mbps: float  # Ookla fixed broadband median download
    num_ases: int  # IPInfo AS count
    target_clients: int  # expected BrightData exit nodes
    censored: bool = False  # DoH to public providers dropped

    @property
    def fast_internet(self) -> bool:
        """FCC "fast Internet" definition used by the paper (>25 Mbps)."""
        return self.bandwidth_mbps > 25.0


def _c(
    code: str,
    name: str,
    lat: float,
    lon: float,
    region: str,
    income: str,
    gdp: float,
    mbps: float,
    ases: int,
    clients: int,
    censored: bool = False,
) -> Country:
    return Country(
        code=code,
        name=name,
        location=LatLon(lat, lon),
        region=region,
        income_group=income,
        gdp_per_capita=gdp,
        bandwidth_mbps=mbps,
        num_ases=ases,
        target_clients=clients,
        censored=censored,
    )


_H = IncomeGroup.HIGH
_UM = IncomeGroup.UPPER_MIDDLE
_LM = IncomeGroup.LOWER_MIDDLE
_L = IncomeGroup.LOW

_RAW: Tuple[Country, ...] = (
    # --- North America -------------------------------------------------
    _c("US", "United States", 39.8, -98.6, "NA", _H, 69288, 203.0, 29000, 282),
    _c("CA", "Canada", 56.1, -106.3, "NA", _H, 51988, 175.0, 2500, 240),
    _c("MX", "Mexico", 23.6, -102.6, "NA", _UM, 9926, 48.0, 450, 230),
    _c("GT", "Guatemala", 15.8, -90.2, "NA", _UM, 5026, 22.0, 40, 95),
    _c("BZ", "Belize", 17.2, -88.7, "NA", _UM, 6228, 18.0, 8, 18),
    _c("SV", "El Salvador", 13.8, -88.9, "NA", _LM, 4551, 28.0, 25, 70),
    _c("HN", "Honduras", 14.8, -86.6, "NA", _LM, 2772, 15.0, 28, 75),
    _c("NI", "Nicaragua", 12.9, -85.2, "NA", _LM, 2046, 22.0, 18, 55),
    _c("CR", "Costa Rica", 9.7, -84.2, "NA", _UM, 12509, 45.0, 60, 90),
    _c("PA", "Panama", 8.5, -80.8, "NA", _H, 14516, 75.0, 55, 85),
    _c("CU", "Cuba", 21.5, -77.8, "NA", _UM, 9500, 4.0, 5, 22),
    _c("DO", "Dominican Republic", 18.7, -70.2, "NA", _UM, 8477, 32.0, 45, 110),
    _c("HT", "Haiti", 19.1, -72.3, "NA", _LM, 1815, 6.0, 12, 30),
    _c("JM", "Jamaica", 18.1, -77.3, "NA", _UM, 5184, 38.0, 22, 60),
    _c("TT", "Trinidad and Tobago", 10.4, -61.3, "NA", _H, 15243, 55.0, 18, 45),
    _c("BB", "Barbados", 13.2, -59.5, "NA", _H, 17225, 62.0, 8, 20),
    _c("BS", "Bahamas", 24.7, -78.0, "NA", _H, 27478, 50.0, 10, 18),
    _c("BM", "Bermuda", 32.3, -64.8, "NA", _H, 114090, 120.0, 6, 12),
    _c("PR", "Puerto Rico", 18.2, -66.4, "NA", _H, 32640, 90.0, 25, 55),
    _c("LC", "Saint Lucia", 13.9, -61.0, "NA", _UM, 9414, 35.0, 4, 11),
    _c("VC", "Saint Vincent", 13.2, -61.2, "NA", _UM, 8666, 30.0, 3, 10),
    _c("GD", "Grenada", 12.1, -61.7, "NA", _UM, 9011, 28.0, 3, 10),
    _c("AG", "Antigua and Barbuda", 17.1, -61.8, "NA", _H, 15781, 40.0, 4, 10),
    _c("DM", "Dominica", 15.4, -61.4, "NA", _UM, 7653, 25.0, 3, 8),
    _c("KN", "Saint Kitts and Nevis", 17.3, -62.7, "NA", _H, 18083, 35.0, 3, 8),
    _c("KY", "Cayman Islands", 19.3, -81.3, "NA", _H, 85250, 85.0, 5, 10),
    _c("CW", "Curacao", 12.2, -69.0, "NA", _H, 17717, 48.0, 6, 12),
    _c("AW", "Aruba", 12.5, -70.0, "NA", _H, 23384, 45.0, 4, 10),
    _c("GP", "Guadeloupe", 16.2, -61.6, "NA", _H, 24000, 60.0, 4, 11),
    _c("MQ", "Martinique", 14.6, -61.0, "NA", _H, 25000, 62.0, 4, 11),
    # --- South America -------------------------------------------------
    _c("BR", "Brazil", -10.8, -52.9, "SA", _UM, 7519, 90.0, 8800, 282),
    _c("AR", "Argentina", -34.0, -64.0, "SA", _UM, 10636, 52.0, 950, 230),
    _c("CL", "Chile", -31.8, -71.0, "SA", _H, 16265, 175.0, 300, 160),
    _c("CO", "Colombia", 3.9, -73.1, "SA", _UM, 6104, 45.0, 420, 210),
    _c("PE", "Peru", -9.2, -75.0, "SA", _UM, 6692, 48.0, 180, 150),
    _c("VE", "Venezuela", 7.1, -66.2, "SA", _UM, 3740, 9.0, 110, 120),
    _c("EC", "Ecuador", -1.8, -78.2, "SA", _UM, 5934, 40.0, 120, 120),
    _c("BO", "Bolivia", -16.7, -64.7, "SA", _LM, 3345, 20.0, 55, 80),
    _c("PY", "Paraguay", -23.2, -58.4, "SA", _UM, 5415, 30.0, 60, 70),
    _c("UY", "Uruguay", -32.8, -55.8, "SA", _H, 17313, 95.0, 40, 60),
    _c("GY", "Guyana", 4.8, -58.9, "SA", _UM, 9999, 18.0, 10, 18),
    _c("SR", "Suriname", 4.1, -55.9, "SA", _UM, 4869, 22.0, 8, 15),
    _c("GF", "French Guiana", 4.0, -53.0, "SA", _H, 18000, 40.0, 4, 10),
    # --- Europe ---------------------------------------------------------
    _c("GB", "United Kingdom", 54.0, -2.5, "EU", _H, 47334, 92.0, 2900, 240),
    _c("DE", "Germany", 51.1, 10.4, "EU", _H, 50802, 120.0, 2800, 250),
    _c("FR", "France", 46.6, 2.5, "EU", _H, 43519, 180.0, 1700, 240),
    _c("NL", "Netherlands", 52.2, 5.3, "EU", _H, 58061, 150.0, 1400, 180),
    _c("BE", "Belgium", 50.6, 4.7, "EU", _H, 51768, 85.0, 340, 130),
    _c("LU", "Luxembourg", 49.8, 6.1, "EU", _H, 135683, 130.0, 70, 25),
    _c("IE", "Ireland", 53.2, -8.1, "EU", _H, 99152, 90.0, 300, 90),
    _c("ES", "Spain", 40.2, -3.6, "EU", _H, 30116, 170.0, 900, 230),
    _c("PT", "Portugal", 39.6, -8.0, "EU", _H, 24262, 135.0, 170, 120),
    _c("IT", "Italy", 42.8, 12.8, "EU", _H, 35551, 80.0, 950, 240),
    _c("CH", "Switzerland", 46.8, 8.2, "EU", _H, 93457, 180.0, 750, 120),
    _c("AT", "Austria", 47.6, 14.1, "EU", _H, 53268, 75.0, 550, 110),
    _c("SE", "Sweden", 62.8, 16.7, "EU", _H, 60239, 160.0, 650, 130),
    _c("NO", "Norway", 64.6, 12.7, "EU", _H, 89203, 135.0, 380, 90),
    _c("DK", "Denmark", 56.0, 10.0, "EU", _H, 68008, 160.0, 300, 90),
    _c("FI", "Finland", 64.5, 26.3, "EU", _H, 53983, 105.0, 290, 90),
    _c("IS", "Iceland", 64.9, -18.6, "EU", _H, 68384, 200.0, 50, 20),
    _c("PL", "Poland", 52.1, 19.4, "EU", _H, 17841, 110.0, 2600, 230),
    _c("CZ", "Czechia", 49.8, 15.5, "EU", _H, 26379, 70.0, 1800, 150),
    _c("SK", "Slovakia", 48.7, 19.5, "EU", _H, 21088, 65.0, 300, 90),
    _c("HU", "Hungary", 47.2, 19.4, "EU", _H, 18728, 140.0, 450, 120),
    _c("RO", "Romania", 45.8, 24.9, "EU", _H, 14862, 180.0, 1500, 170),
    _c("BG", "Bulgaria", 42.8, 25.2, "EU", _UM, 11635, 75.0, 650, 120),
    _c("GR", "Greece", 39.1, 22.9, "EU", _H, 20277, 35.0, 220, 120),
    _c("HR", "Croatia", 45.4, 16.4, "EU", _H, 17399, 45.0, 180, 80),
    _c("SI", "Slovenia", 46.1, 14.8, "EU", _H, 29201, 80.0, 230, 60),
    _c("RS", "Serbia", 44.2, 20.8, "EU", _UM, 9215, 60.0, 320, 110),
    _c("BA", "Bosnia and Herzegovina", 44.2, 17.8, "EU", _UM, 6916, 30.0, 110, 70),
    _c("MK", "North Macedonia", 41.6, 21.7, "EU", _UM, 6721, 40.0, 60, 55),
    _c("AL", "Albania", 41.1, 20.1, "EU", _UM, 6494, 35.0, 45, 60),
    _c("ME", "Montenegro", 42.8, 19.2, "EU", _UM, 9466, 42.0, 25, 30),
    _c("XK", "Kosovo", 42.6, 20.9, "EU", _UM, 4987, 38.0, 25, 35),
    _c("EE", "Estonia", 58.7, 25.5, "EU", _H, 27944, 80.0, 180, 55),
    _c("LV", "Latvia", 56.9, 24.9, "EU", _H, 21148, 110.0, 230, 60),
    _c("LT", "Lithuania", 55.3, 23.9, "EU", _H, 23433, 120.0, 190, 65),
    _c("BY", "Belarus", 53.5, 28.0, "EU", _UM, 7302, 55.0, 120, 90),
    _c("UA", "Ukraine", 49.0, 31.4, "EU", _LM, 4836, 60.0, 1800, 220),
    _c("MD", "Moldova", 47.2, 28.5, "EU", _UM, 5315, 85.0, 90, 60),
    _c("RU", "Russia", 61.5, 99.0, "EU", _UM, 12173, 75.0, 5100, 282),
    _c("MT", "Malta", 35.9, 14.4, "EU", _H, 33257, 90.0, 30, 22),
    _c("CY", "Cyprus", 35.0, 33.2, "EU", _H, 30799, 45.0, 70, 40),
    _c("AD", "Andorra", 42.5, 1.6, "EU", _H, 42066, 150.0, 5, 10),
    _c("MC", "Monaco", 43.7, 7.4, "EU", _H, 173688, 180.0, 4, 8),
    _c("LI", "Liechtenstein", 47.2, 9.5, "EU", _H, 169049, 160.0, 4, 7),
    _c("SM", "San Marino", 43.9, 12.5, "EU", _H, 49765, 90.0, 3, 7),
    _c("GI", "Gibraltar", 36.1, -5.4, "EU", _H, 61700, 70.0, 4, 8),
    _c("JE", "Jersey", 49.2, -2.1, "EU", _H, 55820, 140.0, 4, 9),
    _c("IM", "Isle of Man", 54.2, -4.5, "EU", _H, 84600, 80.0, 4, 8),
    _c("FO", "Faroe Islands", 62.0, -6.9, "EU", _H, 69010, 110.0, 3, 7),
    _c("GL", "Greenland", 71.7, -42.2, "EU", _H, 54571, 45.0, 2, 6),
    # --- Middle East ----------------------------------------------------
    _c("TR", "Turkey", 39.0, 35.4, "ME", _UM, 9587, 32.0, 700, 230),
    _c("IL", "Israel", 31.4, 35.0, "ME", _H, 51430, 120.0, 280, 110),
    _c("SA", "Saudi Arabia", 24.0, 45.1, "ME", _H, 23186, 85.0, 80, 9, True),
    _c("AE", "United Arab Emirates", 23.9, 54.3, "ME", _H, 44315, 120.0, 110, 90),
    _c("QA", "Qatar", 25.3, 51.2, "ME", _H, 66838, 95.0, 20, 30),
    _c("KW", "Kuwait", 29.3, 47.6, "ME", _H, 32373, 80.0, 35, 45),
    _c("BH", "Bahrain", 26.0, 50.5, "ME", _H, 26563, 55.0, 25, 30),
    _c("OM", "Oman", 20.6, 56.1, "ME", _H, 19302, 60.0, 30, 8, True),
    _c("YE", "Yemen", 15.9, 47.6, "ME", _L, 691, 6.0, 10, 40),
    _c("JO", "Jordan", 31.3, 36.8, "ME", _UM, 4406, 65.0, 50, 80),
    _c("LB", "Lebanon", 33.9, 35.9, "ME", _UM, 4891, 15.0, 90, 75),
    _c("SY", "Syria", 35.0, 38.5, "ME", _L, 1190, 8.0, 10, 9, True),
    _c("IQ", "Iraq", 33.1, 43.8, "ME", _UM, 5048, 20.0, 90, 110),
    _c("IR", "Iran", 32.6, 54.3, "ME", _LM, 2757, 12.0, 550, 180),
    # --- Central Asia / Caucasus ----------------------------------------
    _c("KZ", "Kazakhstan", 48.2, 67.3, "AS", _UM, 10041, 50.0, 280, 120),
    _c("UZ", "Uzbekistan", 41.8, 63.1, "AS", _LM, 1983, 30.0, 110, 90),
    _c("KG", "Kyrgyzstan", 41.5, 74.6, "AS", _LM, 1276, 35.0, 60, 55),
    _c("TJ", "Tajikistan", 38.5, 71.0, "AS", _LM, 897, 12.0, 25, 35),
    _c("TM", "Turkmenistan", 39.1, 59.4, "AS", _UM, 7612, 4.0, 5, 7, True),
    _c("AF", "Afghanistan", 33.8, 66.0, "AS", _L, 509, 5.0, 30, 45),
    _c("GE", "Georgia", 42.2, 43.5, "AS", _UM, 5015, 40.0, 120, 80),
    _c("AM", "Armenia", 40.3, 44.9, "AS", _UM, 4622, 45.0, 85, 60),
    _c("AZ", "Azerbaijan", 40.3, 47.8, "AS", _UM, 5384, 30.0, 60, 75),
    # --- South / East / Southeast Asia -----------------------------------
    _c("IN", "India", 22.9, 79.6, "AS", _LM, 2277, 55.0, 2800, 282),
    _c("PK", "Pakistan", 29.9, 69.4, "AS", _LM, 1505, 12.0, 180, 180),
    _c("BD", "Bangladesh", 23.8, 90.3, "AS", _LM, 2458, 32.0, 300, 160),
    _c("LK", "Sri Lanka", 7.6, 80.7, "AS", _LM, 3815, 25.0, 45, 85),
    _c("NP", "Nepal", 28.2, 83.9, "AS", _LM, 1208, 28.0, 60, 70),
    _c("BT", "Bhutan", 27.4, 90.4, "AS", _LM, 3266, 20.0, 5, 10),
    _c("MV", "Maldives", 3.7, 73.2, "AS", _UM, 10366, 35.0, 8, 14),
    _c("MM", "Myanmar", 21.2, 96.5, "AS", _LM, 1187, 20.0, 60, 70),
    _c("TH", "Thailand", 15.1, 101.0, "AS", _UM, 7233, 200.0, 450, 220),
    _c("VN", "Vietnam", 16.6, 106.3, "AS", _LM, 3694, 70.0, 350, 230),
    _c("KH", "Cambodia", 12.7, 104.9, "AS", _LM, 1591, 22.0, 70, 65),
    _c("LA", "Laos", 18.5, 103.8, "AS", _LM, 2630, 18.0, 25, 35),
    _c("MY", "Malaysia", 3.8, 109.7, "AS", _UM, 11371, 100.0, 280, 190),
    _c("SG", "Singapore", 1.35, 103.8, "AS", _H, 72794, 245.0, 550, 110),
    _c("ID", "Indonesia", -2.2, 117.4, "AS", _LM, 4291, 23.0, 1400, 282),
    _c("PH", "Philippines", 12.9, 121.8, "AS", _LM, 3549, 50.0, 350, 230),
    _c("BN", "Brunei", 4.5, 114.7, "AS", _H, 31087, 40.0, 10, 12),
    _c("TL", "Timor-Leste", -8.8, 125.9, "AS", _LM, 1381, 8.0, 5, 9),
    _c("CN", "China", 36.6, 103.8, "AS", _UM, 12556, 160.0, 3400, 150, True),
    _c("HK", "Hong Kong", 22.35, 114.15, "AS", _H, 49800, 230.0, 450, 120),
    _c("MO", "Macao", 22.2, 113.55, "AS", _H, 43873, 140.0, 10, 14),
    _c("TW", "Taiwan", 23.8, 121.0, "AS", _H, 33059, 150.0, 280, 140),
    _c("JP", "Japan", 36.6, 138.0, "AS", _H, 39313, 170.0, 1100, 240),
    _c("KR", "South Korea", 36.4, 128.0, "AS", _H, 34758, 220.0, 1100, 180),
    _c("KP", "North Korea", 40.1, 127.2, "AS", _L, 640, 2.0, 1, 4, True),
    _c("MN", "Mongolia", 46.8, 103.1, "AS", _LM, 4566, 45.0, 35, 40),
    # --- Oceania ----------------------------------------------------------
    _c("AU", "Australia", -25.7, 134.5, "OC", _H, 60443, 55.0, 1400, 220),
    _c("NZ", "New Zealand", -41.8, 172.8, "OC", _H, 48781, 130.0, 370, 110),
    _c("FJ", "Fiji", -17.8, 178.0, "OC", _UM, 5086, 22.0, 10, 16),
    _c("PG", "Papua New Guinea", -6.5, 145.2, "OC", _LM, 2673, 8.0, 15, 18),
    _c("NC", "New Caledonia", -21.3, 165.7, "OC", _H, 37159, 50.0, 5, 10),
    _c("PF", "French Polynesia", -17.7, -149.4, "OC", _H, 21567, 35.0, 5, 10),
    _c("SB", "Solomon Islands", -9.6, 160.1, "OC", _LM, 2337, 5.0, 4, 7),
    _c("VU", "Vanuatu", -16.6, 168.2, "OC", _LM, 3073, 6.0, 4, 7),
    _c("WS", "Samoa", -13.7, -172.4, "OC", _LM, 4068, 10.0, 3, 7),
    _c("TO", "Tonga", -21.2, -175.2, "OC", _UM, 4903, 12.0, 3, 6),
    _c("GU", "Guam", 13.4, 144.8, "OC", _H, 35905, 60.0, 6, 10),
    _c("KI", "Kiribati", 1.9, -157.4, "OC", _LM, 1636, 3.0, 2, 5),
    _c("FM", "Micronesia", 6.9, 158.2, "OC", _LM, 3640, 5.0, 2, 5),
    _c("MH", "Marshall Islands", 7.1, 171.1, "OC", _UM, 4337, 5.0, 2, 5),
    _c("PW", "Palau", 7.5, 134.6, "OC", _H, 14243, 12.0, 2, 5),
    # --- North Africa -----------------------------------------------------
    _c("EG", "Egypt", 26.6, 29.8, "AF", _LM, 3876, 40.0, 90, 200),
    _c("LY", "Libya", 27.0, 17.2, "AF", _UM, 6018, 8.0, 20, 45),
    _c("TN", "Tunisia", 34.1, 9.6, "AF", _LM, 3807, 10.0, 40, 90),
    _c("DZ", "Algeria", 28.2, 2.6, "AF", _LM, 3765, 10.0, 30, 130),
    _c("MA", "Morocco", 31.9, -6.9, "AF", _LM, 3795, 25.0, 55, 150),
    _c("SD", "Sudan", 15.6, 30.2, "AF", _L, 764, 4.0, 15, 55),
    _c("SS", "South Sudan", 7.3, 30.2, "AF", _L, 1120, 3.0, 5, 10),
    _c("MR", "Mauritania", 20.3, -10.4, "AF", _LM, 2166, 5.0, 8, 16),
    # --- Sub-Saharan Africa ------------------------------------------------
    _c("NG", "Nigeria", 9.6, 8.1, "AF", _LM, 2085, 15.0, 220, 210),
    _c("GH", "Ghana", 7.9, -1.2, "AF", _LM, 2445, 25.0, 60, 110),
    _c("CI", "Ivory Coast", 7.6, -5.6, "AF", _LM, 2579, 28.0, 30, 80),
    _c("SN", "Senegal", 14.4, -14.5, "AF", _LM, 1606, 22.0, 20, 60),
    _c("ML", "Mali", 17.4, -4.0, "AF", _L, 918, 6.0, 10, 30),
    _c("BF", "Burkina Faso", 12.3, -1.8, "AF", _L, 918, 8.0, 12, 28),
    _c("NE", "Niger", 17.4, 9.4, "AF", _L, 595, 4.0, 8, 18),
    _c("TD", "Chad", 15.4, 18.7, "AF", _L, 686, 2.5, 5, 14),
    _c("CM", "Cameroon", 5.7, 12.7, "AF", _LM, 1662, 8.0, 25, 60),
    _c("CF", "Central African Republic", 6.6, 20.5, "AF", _L, 512, 2.0, 3, 8),
    _c("GN", "Guinea", 10.4, -10.3, "AF", _L, 1189, 6.0, 10, 22),
    _c("GW", "Guinea-Bissau", 12.0, -14.9, "AF", _L, 795, 4.0, 3, 7),
    _c("SL", "Sierra Leone", 8.6, -11.8, "AF", _L, 516, 5.0, 6, 14),
    _c("LR", "Liberia", 6.4, -9.3, "AF", _L, 673, 4.0, 6, 12),
    _c("TG", "Togo", 8.5, 0.9, "AF", _L, 992, 10.0, 8, 18),
    _c("BJ", "Benin", 9.6, 2.3, "AF", _LM, 1319, 9.0, 10, 22),
    _c("GM", "Gambia", 13.4, -15.4, "AF", _L, 772, 8.0, 5, 11),
    _c("CV", "Cape Verde", 15.1, -23.6, "AF", _LM, 3293, 15.0, 4, 10),
    _c("ST", "Sao Tome and Principe", 0.3, 6.6, "AF", _LM, 2279, 8.0, 2, 6),
    _c("GQ", "Equatorial Guinea", 1.6, 10.4, "AF", _UM, 8462, 5.0, 4, 8),
    _c("GA", "Gabon", -0.6, 11.7, "AF", _UM, 8017, 18.0, 10, 18),
    _c("CG", "Congo", -0.8, 15.2, "AF", _LM, 2290, 6.0, 8, 14),
    _c("CD", "DR Congo", -2.9, 23.7, "AF", _L, 584, 6.0, 25, 50),
    _c("AO", "Angola", -12.3, 17.5, "AF", _LM, 1954, 12.0, 30, 55),
    _c("ET", "Ethiopia", 8.6, 39.6, "AF", _L, 925, 8.0, 5, 45),
    _c("ER", "Eritrea", 15.2, 39.1, "AF", _L, 643, 2.0, 2, 6),
    _c("DJ", "Djibouti", 11.7, 42.6, "AF", _LM, 3364, 10.0, 4, 9),
    _c("SO", "Somalia", 5.2, 46.2, "AF", _L, 447, 8.0, 15, 20),
    _c("KE", "Kenya", 0.5, 37.9, "AF", _LM, 2007, 25.0, 110, 130),
    _c("UG", "Uganda", 1.3, 32.4, "AF", _L, 884, 12.0, 45, 60),
    _c("TZ", "Tanzania", -6.4, 34.8, "AF", _LM, 1136, 12.0, 50, 65),
    _c("RW", "Rwanda", -2.0, 29.9, "AF", _L, 822, 15.0, 20, 30),
    _c("BI", "Burundi", -3.4, 29.9, "AF", _L, 237, 4.0, 6, 10),
    _c("MZ", "Mozambique", -17.3, 35.5, "AF", _L, 500, 10.0, 25, 35),
    _c("MW", "Malawi", -13.2, 34.3, "AF", _L, 635, 8.0, 12, 20),
    _c("ZM", "Zambia", -13.5, 27.8, "AF", _LM, 1137, 12.0, 25, 40),
    _c("ZW", "Zimbabwe", -19.0, 29.9, "AF", _LM, 1774, 10.0, 25, 45),
    _c("BW", "Botswana", -22.2, 23.8, "AF", _UM, 6805, 15.0, 15, 25),
    _c("NA", "Namibia", -22.1, 17.2, "AF", _UM, 4729, 18.0, 15, 25),
    _c("ZA", "South Africa", -29.0, 25.1, "AF", _UM, 7055, 45.0, 600, 200),
    _c("LS", "Lesotho", -29.6, 28.2, "AF", _LM, 1118, 8.0, 5, 10),
    _c("SZ", "Eswatini", -26.6, 31.5, "AF", _LM, 3978, 10.0, 5, 10),
    _c("MG", "Madagascar", -19.4, 46.7, "AF", _L, 515, 18.0, 15, 25),
    _c("MU", "Mauritius", -20.3, 57.6, "AF", _UM, 8812, 35.0, 15, 25),
    _c("SC", "Seychelles", -4.7, 55.5, "AF", _H, 13307, 28.0, 5, 10),
    _c("KM", "Comoros", -11.9, 43.9, "AF", _LM, 1485, 5.0, 2, 6),
    _c("RE", "Reunion", -21.1, 55.5, "AF", _H, 23000, 90.0, 5, 12),
    # --- additional territories (mostly excluded: too few clients) ---------
    _c("VG", "British Virgin Islands", 18.4, -64.6, "NA", _H, 34200, 40.0, 3, 6),
    _c("VI", "US Virgin Islands", 17.7, -64.8, "NA", _H, 39552, 55.0, 3, 7),
    _c("TC", "Turks and Caicos", 21.8, -71.8, "NA", _H, 23880, 38.0, 2, 6),
    _c("AI", "Anguilla", 18.2, -63.1, "NA", _H, 19891, 32.0, 2, 5),
    _c("MS", "Montserrat", 16.7, -62.2, "NA", _H, 12384, 25.0, 1, 4),
    _c("SX", "Sint Maarten", 18.0, -63.1, "NA", _H, 29160, 42.0, 2, 6),
    _c("MF", "Saint Martin", 18.1, -63.1, "NA", _H, 21921, 40.0, 1, 4),
    _c("FK", "Falkland Islands", -51.8, -59.5, "SA", _H, 70800, 10.0, 1, 4),
    _c("CK", "Cook Islands", -21.2, -159.8, "OC", _H, 21603, 15.0, 1, 4),
    _c("NR", "Nauru", -0.5, 166.9, "OC", _H, 10125, 6.0, 1, 4),
    _c("TV", "Tuvalu", -7.1, 177.6, "OC", _UM, 4143, 4.0, 1, 3),
    _c("AS", "American Samoa", -14.3, -170.7, "OC", _UM, 11535, 20.0, 2, 5),
    _c("MP", "Northern Mariana Islands", 15.2, 145.75, "OC", _H, 16550, 25.0, 1, 4),
    _c("EH", "Western Sahara", 24.2, -12.9, "AF", _LM, 2500, 4.0, 1, 4),
    _c("YT", "Mayotte", -12.8, 45.1, "AF", _H, 11000, 40.0, 1, 5),
    _c("SH", "Saint Helena", -15.97, -5.7, "AF", _H, 7800, 3.0, 1, 3),
    _c("WF", "Wallis and Futuna", -13.3, -176.2, "OC", _H, 12600, 8.0, 1, 3),
    _c("NU", "Niue", -19.05, -169.9, "OC", _H, 15586, 8.0, 1, 3),
    _c("BQ", "Caribbean Netherlands", 12.2, -68.3, "NA", _H, 25500, 40.0, 1, 4),
    _c("GG", "Guernsey", 49.45, -2.58, "EU", _H, 52800, 110.0, 2, 5),
    _c("AX", "Aland Islands", 60.2, 20.0, "EU", _H, 55000, 90.0, 1, 4),
    _c("PM", "Saint Pierre and Miquelon", 46.9, -56.3, "NA", _H, 26000, 25.0, 1, 3),
)

#: All country profiles keyed by ISO-3166 alpha-2 code.
COUNTRIES: Dict[str, Country] = {entry.code: entry for entry in _RAW}

if len(COUNTRIES) != len(_RAW):  # pragma: no cover - data sanity
    raise RuntimeError("duplicate country codes in profile table")


def country(code: str) -> Country:
    """Look up a country profile by ISO alpha-2 *code*.

    Raises :class:`KeyError` with a helpful message for unknown codes.
    """
    try:
        return COUNTRIES[code.upper()]
    except KeyError:
        raise KeyError("unknown country code: {!r}".format(code)) from None
