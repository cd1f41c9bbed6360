"""Zone lookup semantics: answers, wildcards, delegations, negatives."""

import pytest

from repro.dns.name import DomainName
from repro.dns.records import (
    ARecord,
    NSRecord,
    RRType,
    TXTRecord,
)
from repro.dns.zone import Zone, ZoneError


@pytest.fixture()
def zone():
    z = Zone(DomainName("a.com"), default_ttl=300)
    z.add_record("a.com", RRType.NS, NSRecord(DomainName("ns1.a.com")))
    z.add_record("ns1.a.com", RRType.A, ARecord("10.0.0.1"))
    z.add_record("www.a.com", RRType.A, ARecord("10.0.0.2"))
    z.add_record("*.a.com", RRType.A, ARecord("10.0.0.9"))
    return z


class TestExactMatch:
    def test_existing_record(self, zone):
        result = zone.lookup(DomainName("www.a.com"), RRType.A)
        assert result.is_answer
        assert result.answers[0].rdata.address == "10.0.0.2"

    def test_nodata_for_wrong_type(self, zone):
        result = zone.lookup(DomainName("www.a.com"), RRType.TXT)
        assert not result.is_answer and not result.nxdomain
        assert result.soa is not None

    def test_apex_ns(self, zone):
        result = zone.lookup(DomainName("a.com"), RRType.NS)
        assert result.is_answer

    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup(DomainName("b.com"), RRType.A)


class TestWildcard:
    def test_wildcard_synthesises_owner(self, zone):
        result = zone.lookup(DomainName("uuid-42.a.com"), RRType.A)
        assert result.is_answer
        record = result.answers[0]
        assert record.name == DomainName("uuid-42.a.com")
        assert record.rdata.address == "10.0.0.9"

    def test_wildcard_not_used_for_existing_names(self, zone):
        result = zone.lookup(DomainName("www.a.com"), RRType.A)
        assert result.answers[0].rdata.address == "10.0.0.2"

    def test_wildcard_nodata_for_other_types(self, zone):
        result = zone.lookup(DomainName("uuid-42.a.com"), RRType.TXT)
        assert not result.is_answer and not result.nxdomain

    def test_wildcard_applies_at_deeper_levels(self, zone):
        # *.a.com covers deep.uuid.a.com via the closest encloser rule.
        result = zone.lookup(DomainName("deep.uuid.a.com"), RRType.A)
        assert result.is_answer

    def test_unique_names_always_fresh(self, zone):
        for index in range(50):
            name = DomainName("u{:04d}.a.com".format(index))
            result = zone.lookup(name, RRType.A)
            assert result.is_answer
            assert result.answers[0].name == name


class TestDelegation:
    def test_delegation_returns_referral(self):
        zone = Zone(DomainName("com"), default_ttl=300)
        zone.delegate("a.com", "ns1.a.com", "10.0.0.1")
        result = zone.lookup(DomainName("x.a.com"), RRType.A)
        assert result.is_delegation
        assert result.delegation[0].rtype == RRType.NS
        assert result.glue[0].rdata.address == "10.0.0.1"

    def test_delegation_covers_deep_names(self):
        zone = Zone(DomainName("com"), default_ttl=300)
        zone.delegate("a.com", "ns1.a.com", "10.0.0.1")
        result = zone.lookup(DomainName("deep.sub.a.com"), RRType.A)
        assert result.is_delegation

    def test_cannot_delegate_apex(self):
        zone = Zone(DomainName("com"))
        with pytest.raises(ZoneError):
            zone.delegate("com", "ns.com", "10.0.0.1")

    def test_ns_query_at_delegation_point_answers(self):
        zone = Zone(DomainName("com"), default_ttl=300)
        zone.delegate("a.com", "ns1.a.com", "10.0.0.1")
        result = zone.lookup(DomainName("a.com"), RRType.NS)
        assert result.is_answer


class TestNegative:
    def test_nxdomain_without_wildcard(self):
        zone = Zone(DomainName("a.com"))
        zone.add_record("www.a.com", RRType.A, ARecord("10.0.0.2"))
        result = zone.lookup(DomainName("missing.a.com"), RRType.A)
        assert result.nxdomain
        assert result.soa is not None

    def test_empty_non_terminal_is_nodata(self):
        zone = Zone(DomainName("a.com"))
        zone.add_record("x.y.a.com", RRType.A, ARecord("10.0.0.3"))
        result = zone.lookup(DomainName("y.a.com"), RRType.A)
        assert not result.nxdomain and not result.is_answer


class TestMisc:
    def test_add_out_of_zone_record_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_record("other.org", RRType.A, ARecord("1.1.1.1"))

    def test_cname_answers_any_type(self):
        from repro.dns.records import CNAMERecord

        zone = Zone(DomainName("a.com"))
        zone.add_record("alias.a.com", RRType.CNAME,
                        CNAMERecord(DomainName("www.a.com")))
        result = zone.lookup(DomainName("alias.a.com"), RRType.A)
        assert result.is_answer
        assert result.answers[0].rtype == RRType.CNAME
