"""Integration tests: authoritative server, recursion, stub resolution."""

import random

import pytest

from repro.dns.authoritative import AuthoritativeServer
from repro.dns.message import Message, Rcode
from repro.dns.name import DomainName
from repro.dns.records import ARecord, NSRecord, RRType
from repro.dns.recursive import RecursiveResolver
from repro.dns.stub import StubError, StubResolver
from repro.dns.zone import Zone
from tests.conftest import datacenter_site, residential_site


@pytest.fixture()
def dns_world(sim, network):
    """Root -> com -> a.com chain plus resolver and client."""
    root_h = network.add_host("root", "20.0.0.1", datacenter_site())
    tld_h = network.add_host("tld", "20.0.0.2", datacenter_site())
    auth_h = network.add_host("auth", "20.0.0.3", datacenter_site())
    resolver_h = network.add_host(
        "res", "20.1.0.1", datacenter_site(50.1, 8.7, "DE")
    )
    client_h = network.add_host(
        "cli", "20.1.0.2", residential_site(52.5, 13.4, "DE")
    )

    root_zone = Zone(DomainName("."))
    root_zone.delegate("com", "ns.tld", "20.0.0.2")
    tld_zone = Zone(DomainName("com"))
    tld_zone.delegate("a.com", "ns1.a.com", "20.0.0.3")
    auth_zone = Zone(DomainName("a.com"), default_ttl=3600)
    auth_zone.add_record("a.com", RRType.NS, NSRecord(DomainName("ns1.a.com")))
    auth_zone.add_record("ns1.a.com", RRType.A, ARecord("20.0.0.3"))
    auth_zone.add_record("www.a.com", RRType.A, ARecord("20.0.0.4"))
    auth_zone.add_record("*.a.com", RRType.A, ARecord("20.0.0.5"), ttl=60)

    AuthoritativeServer(root_h, [root_zone], keep_query_log=False).start()
    AuthoritativeServer(tld_h, [tld_zone], keep_query_log=False).start()
    auth_server = AuthoritativeServer(auth_h, [auth_zone])
    auth_server.start()

    resolver = RecursiveResolver(
        resolver_h, ["20.0.0.1"], random.Random(1), processing_ms=1.0
    )
    resolver.start()
    stub = StubResolver(client_h, "20.1.0.1", random.Random(2))
    return {
        "auth": auth_server,
        "resolver": resolver,
        "stub": stub,
        "client": client_h,
    }


class TestEndToEnd:
    def test_full_recursion_resolves_wildcard(self, sim, dns_world):
        stub = dns_world["stub"]

        def run():
            answer = yield from stub.query("uuid-xyz.a.com")
            return answer

        answer = sim.run_process(run())
        assert answer.addresses == ("20.0.0.5",)
        assert answer.rcode == Rcode.NOERROR
        assert answer.elapsed_ms > 0

    def test_second_query_faster_through_cache(self, sim, dns_world):
        stub = dns_world["stub"]

        def run():
            first = yield from stub.query("u1.a.com")
            second = yield from stub.query("u2.a.com")
            return first.elapsed_ms, second.elapsed_ms

        cold, warm = sim.run_process(run())
        assert warm < cold

    def test_existing_record_resolves(self, sim, dns_world):
        stub = dns_world["stub"]

        def run():
            answer = yield from stub.query("www.a.com")
            return answer.addresses

        assert sim.run_process(run()) == ("20.0.0.4",)

    def test_auth_query_log_records_resolver(self, sim, dns_world):
        stub = dns_world["stub"]

        def run():
            yield from stub.query("logme.a.com")

        sim.run_process(run())
        auth = dns_world["auth"]
        assert {entry.src_ip for entry in auth.query_log} == {"20.1.0.1"}
        assert any(
            str(entry.qname) == "logme.a.com" for entry in auth.query_log
        )

    def test_resolver_cache_statistics(self, sim, dns_world):
        stub = dns_world["stub"]
        resolver = dns_world["resolver"]

        def run():
            yield from stub.query("s1.a.com")
            yield from stub.query("s2.a.com")

        sim.run_process(run())
        # The com delegation and a.com NS were learned once, then reused.
        assert resolver.cache.hits > 0

    def test_repeated_name_served_from_cache(self, sim, dns_world):
        stub = dns_world["stub"]
        auth = dns_world["auth"]

        def run():
            yield from stub.query("cached.a.com")
            before = auth.queries_served
            yield from stub.query("cached.a.com")
            return before, auth.queries_served

        before, after = sim.run_process(run())
        assert after == before  # answered from the resolver cache


class TestAuthoritativeBehaviour:
    def test_refused_outside_zones(self, dns_world):
        auth = dns_world["auth"]
        query = Message.query(1, DomainName("other.org"), RRType.A)
        assert auth.answer(query).rcode == Rcode.REFUSED

    def test_nxdomain_has_soa(self, dns_world):
        auth = dns_world["auth"]
        query = Message.query(1, DomainName("nope.sub.ns1.a.com"), RRType.NS)
        response = auth.answer(query)
        # ns1.a.com exists (glue), below it with no wildcard match at
        # that branch -> covered by *.a.com wildcard actually; query NS
        # type gives NODATA with SOA.
        assert response.authority
        assert response.authority[0].rtype == RRType.SOA


class TestStubRobustness:
    def test_unreachable_resolver_times_out(self, sim, network):
        client = network.add_host("c2", "20.2.0.1", residential_site())
        stub = StubResolver(
            client, "20.9.9.9", random.Random(3),
            timeout_ms=200.0, max_retries=1,
        )
        # 20.9.9.9 is not attached; sends are dropped silently.
        network.add_host("sink", "20.9.9.9", datacenter_site())

        def run():
            with pytest.raises(StubError):
                yield from stub.query("x.a.com")

        sim.run_process(run())
        assert sim.now >= 200.0  # waited through the timeouts
