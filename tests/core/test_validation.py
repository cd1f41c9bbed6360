"""Maxmind mismatch-filter tests (§3.5)."""

from dataclasses import dataclass

from repro.core.campaign import CampaignResult
from repro.core.validation import filter_mismatched
from repro.dataset.store import Dataset
from repro.geo.coords import LatLon
from repro.geo.geolocate import GeolocationService


@dataclass
class FakeRecord:
    exit_ip: str
    claimed_country: str


def service_with(*entries):
    service = GeolocationService()
    for address, country, lat, lon in entries:
        service.register(address, country, LatLon(lat, lon))
    return service


class TestFilter:
    def test_matching_records_kept(self):
        service = service_with(("20.0.0.1", "DE", 52.5, 13.4))
        kept, dropped = filter_mismatched(
            [FakeRecord("20.0.0.1", "DE")], service
        )
        assert len(kept) == 1 and not dropped

    def test_mismatching_records_dropped(self):
        service = service_with(("20.0.0.1", "DE", 52.5, 13.4))
        kept, dropped = filter_mismatched(
            [FakeRecord("20.0.0.1", "FR")], service
        )
        assert not kept and len(dropped) == 1

    def test_unknown_prefix_kept(self):
        service = service_with()
        kept, dropped = filter_mismatched(
            [FakeRecord("9.9.9.9", "FR")], service
        )
        assert len(kept) == 1 and not dropped

    def test_empty_address_kept(self):
        service = service_with()
        kept, dropped = filter_mismatched(
            [FakeRecord("", "FR")], service
        )
        assert len(kept) == 1

    def test_mixed_batch(self):
        service = service_with(
            ("20.0.0.1", "DE", 52.5, 13.4),
            ("20.0.1.1", "FR", 46.6, 2.5),
        )
        records = [
            FakeRecord("20.0.0.1", "DE"),
            FakeRecord("20.0.1.1", "DE"),  # wrong
            FakeRecord("20.0.1.1", "FR"),
        ]
        kept, dropped = filter_mismatched(records, service)
        assert len(kept) == 2 and len(dropped) == 1
        assert dropped[0].exit_ip == "20.0.1.1"


class TestRate:
    """The discard rate a campaign reports (paper: 0.88%)."""

    def test_rate(self):
        result = CampaignResult(dataset=Dataset(), raw_doh=[None] * 3,
                                discarded_doh=1)
        assert result.discard_rate == 0.25

    def test_rate_empty(self):
        assert CampaignResult(dataset=Dataset()).discard_rate == 0.0
