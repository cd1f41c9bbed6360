"""Do53 extraction and validity-rule tests (§3.3, §3.5)."""

from repro.core.do53_timing import do53_valid
from repro.core.timeline import Do53Raw
from repro.dataset.builder import DatasetBuilder
from repro.geo.geolocate import GeolocationService
from repro.proxy.headers import TimelineHeaders


def raw(country="BR", resolved_at="exit", success=True, dns_ms=123.0):
    return Do53Raw(
        node_id="n",
        exit_ip="20.0.0.1",
        claimed_country=country,
        qname="u1.a.com",
        dns_ms=dns_ms,
        headers=TimelineHeaders(tun={"dns": dns_ms}, box={}),
        resolved_at=resolved_at,
        success=success,
    )


class TestValidity:
    def test_normal_sample_valid(self):
        assert do53_valid(raw())

    def test_super_proxy_countries_invalid(self):
        # §3.5 lists exactly these 11 countries.
        for country in ("US", "CA", "GB", "IN", "JP", "KR", "SG", "DE",
                        "NL", "FR", "AU"):
            assert not do53_valid(raw(country=country))

    def test_central_resolution_invalid_anywhere(self):
        assert not do53_valid(raw(resolved_at="superproxy"))

    def test_failure_invalid(self):
        assert not do53_valid(raw(success=False))


class TestExtraction:
    def test_time_of_valid_sample(self):
        builder = DatasetBuilder(GeolocationService())
        builder.add_do53(raw(dns_ms=88.5))
        (sample,) = builder.dataset.do53
        assert sample.time_ms == 88.5 and sample.valid
