"""Dataset record and container tests."""

import pytest

from repro.dataset.records import ClientRecord, Do53Sample, DohSample
from repro.dataset.store import Dataset


def doh(node="n1", country="DE", provider="cloudflare", t_doh=400.0,
        t_dohr=250.0, success=True):
    return DohSample(
        node_id=node, country=country, provider=provider, run_index=0,
        t_doh_ms=t_doh, t_dohr_ms=t_dohr, rtt_estimate_ms=80.0,
        success=success,
    )


def do53(node="n1", country="DE", time_ms=200.0, source="brightdata",
         valid=True, success=True):
    return Do53Sample(
        node_id=node, country=country, run_index=0, time_ms=time_ms,
        source=source, valid=valid, success=success,
    )


def client(node="n1", country="DE"):
    return ClientRecord.from_parts(node, "20.0.0.7", country, 52.5123, 13.4)


class TestRecords:
    def test_client_record_truncates_to_slash24(self):
        record = client()
        assert record.ip_prefix == "20.0.0.0/24"
        assert record.lat == pytest.approx(52.512)

    def test_json_roundtrips(self):
        for record in (client(), doh(), do53()):
            rebuilt = type(record).from_json(record.to_json())
            assert rebuilt == record


class TestDatasetQueries:
    @pytest.fixture()
    def ds(self):
        return Dataset(
            clients=[client("n1", "DE"), client2()],
            doh=[
                doh("n1", "DE", "cloudflare"),
                doh("n1", "DE", "google"),
                doh("n2", "FR", "cloudflare", success=False),
                doh("n2", "FR", "google"),
            ],
            do53=[
                do53("n1", "DE"),
                do53("n2", "FR", valid=False),
                do53("p1", "US", source="ripeatlas"),
            ],
            min_clients_per_country=1,
        )

    def test_successful_doh_filter(self, ds):
        assert len(ds.successful_doh()) == 3
        assert len(ds.successful_doh("cloudflare")) == 1

    def test_valid_do53_filter(self, ds):
        assert len(ds.valid_do53()) == 2
        assert len(ds.valid_do53(source="ripeatlas")) == 1

    def test_unique_counts(self, ds):
        assert ds.unique_clients() == 2
        assert ds.unique_clients("cloudflare") == 1
        assert ds.unique_countries("google") == 2

    def test_countries_and_providers(self, ds):
        assert ds.countries() == ["DE", "FR"]
        assert ds.providers() == ["cloudflare", "google"]

    def test_clients_per_country(self, ds):
        assert ds.clients_per_country() == {"DE": 1, "FR": 1}

    def test_analyzed_countries_requires_all_providers(self, ds):
        # FR has no successful cloudflare sample -> excluded.
        assert ds.analyzed_countries() == ["DE"]



def client2():
    return ClientRecord.from_parts("n2", "20.0.1.9", "FR", 46.6, 2.5)
