"""City table tests."""

from repro.geo.cities import CITIES, cities_in_country
from repro.geo.countries import COUNTRIES


class TestTable:
    def test_enough_cities_for_largest_footprint(self):
        # Cloudflare needs 146 distinct sites; Quad9 152.
        assert len(CITIES) >= 152

    def test_every_city_in_known_country(self):
        for entry in CITIES.values():
            assert entry.country_code in COUNTRIES, entry.key

    def test_keys_are_slugs(self):
        for key in CITIES:
            assert key == key.lower()
            assert " " not in key

    def test_city_location_near_country_centroid(self):
        # Sanity: every city lies within 4000 km of its country centroid
        # (catches lat/lon typos; Russia/USA are large).
        from repro.geo.coords import geodesic_km

        for entry in CITIES.values():
            centroid = COUNTRIES[entry.country_code].location
            assert geodesic_km(entry.location, centroid) < 4500.0, entry.key


class TestAccessors:
    def test_lookup(self):
        assert CITIES["london"].country_code == "GB"

    def test_cities_in_country(self):
        usa = cities_in_country("US")
        assert len(usa) >= 15
        assert all(c.country_code == "US" for c in usa)

    def test_cities_in_country_case_insensitive(self):
        assert cities_in_country("us") == cities_in_country("US")

    def test_cities_in_country_unknown_empty(self):
        assert cities_in_country("ZZ") == []
