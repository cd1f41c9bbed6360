"""Country profile table sanity and accessor tests."""

import pytest

from repro.geo.countries import (
    COUNTRIES,
    IncomeGroup,
    SUPER_PROXY_COUNTRIES,
    _RAW,
    country,
)


class TestTableIntegrity:
    def test_enough_countries(self):
        # The paper's dataset spans 224 countries and territories.
        assert len(COUNTRIES) >= 224

    def test_codes_are_two_letter_upper(self):
        for code in COUNTRIES:
            assert len(code) == 2 and code.isupper()

    def test_income_groups_valid(self):
        for profile in COUNTRIES.values():
            assert profile.income_group in IncomeGroup.ORDER

    def test_positive_economics(self):
        for profile in COUNTRIES.values():
            assert profile.gdp_per_capita > 0
            assert profile.bandwidth_mbps > 0
            assert profile.num_ases >= 1
            assert profile.target_clients >= 1

    def test_regions_known(self):
        regions = {c.region for c in COUNTRIES.values()}
        assert regions <= {"AF", "AS", "EU", "NA", "SA", "OC", "ME"}

    def test_super_proxy_list_matches_paper(self):
        # The paper names these 11 countries explicitly (§3.5).
        assert set(SUPER_PROXY_COUNTRIES) == {
            "US", "CA", "GB", "IN", "JP", "KR", "SG", "DE", "NL", "FR", "AU",
        }
        for code in SUPER_PROXY_COUNTRIES:
            assert code in COUNTRIES

    def test_censored_countries_include_papers_examples(self):
        censored = {c for c, p in COUNTRIES.items() if p.censored}
        # §5.1: China, North Korea, Saudi Arabia and Oman were excluded.
        assert {"CN", "KP", "SA", "OM"} <= censored

    def test_income_correlates_with_bandwidth(self):
        # Not a strict rule per country, but group medians must order.
        import statistics

        medians = {}
        for group in IncomeGroup.ORDER:
            values = [
                c.bandwidth_mbps
                for c in COUNTRIES.values()
                if c.income_group == group
            ]
            medians[group] = statistics.median(values)
        assert (
            medians[IncomeGroup.HIGH]
            > medians[IncomeGroup.UPPER_MIDDLE]
            > medians[IncomeGroup.LOWER_MIDDLE]
            > medians[IncomeGroup.LOW]
        )


class TestAccessors:
    def test_lookup_case_insensitive(self):
        assert country("us") is country("US")

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError, match="ZZ"):
            country("ZZ")

    def test_country_codes_sorted_unique(self):
        # No code appears twice in the table (COUNTRIES would keep one).
        codes = [entry.code for entry in _RAW]
        assert sorted(codes) == sorted(set(codes)) == sorted(COUNTRIES)

    def test_super_proxy_accessor(self):
        # Each of the 11 countries once: the set comparison in
        # test_super_proxy_list_matches_paper would hide a repeat.
        assert len(SUPER_PROXY_COUNTRIES) == len(set(SUPER_PROXY_COUNTRIES))
        assert len(SUPER_PROXY_COUNTRIES) == 11

    def test_fast_internet_threshold(self):
        # FCC definition: > 25 Mbps (§6.2.1).
        assert country("SG").fast_internet
        assert not country("TD").fast_internet
