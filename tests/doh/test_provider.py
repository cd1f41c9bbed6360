"""DoH provider deployment tests against the small world."""

import pytest

from repro.dns.records import RRType
from repro.doh.client import resolve_direct
from repro.doh.provider import PROVIDER_CONFIGS
from repro.dns.stub import StubResolver


class TestDeployment:
    def test_all_providers_deployed(self, small_world):
        assert set(small_world.providers) == {
            "cloudflare", "google", "nextdns", "quad9",
        }

    def test_pop_counts_match_config(self, small_world):
        for name, provider in small_world.providers.items():
            assert len(provider.pops) == len(
                PROVIDER_CONFIGS[name].pop_city_keys
            )

    def test_vip_registered_as_anycast(self, small_world):
        client = small_world.client_host
        for name, provider in small_world.providers.items():
            concrete = small_world.network.resolve_destination(
                client, provider.config.vip
            )
            assert concrete in {pop.host.ip for pop in provider.pops}

    def test_pop_hosts_are_datacenters(self, small_world):
        provider = small_world.provider("cloudflare")
        for pop in provider.pops[:10]:
            assert pop.host.site.datacenter


class TestRouting:
    def test_assignment_stable_per_client(self, small_world):
        provider = small_world.provider("cloudflare")
        client = small_world.client_host
        first = provider.assignment_for(client)
        second = provider.assignment_for(client)
        assert first is second

    def test_route_returns_pop_ip(self, small_world):
        provider = small_world.provider("google")
        client = small_world.client_host
        concrete = small_world.network.resolve_destination(
            client, provider.config.vip
        )
        assert concrete in {pop.host.ip for pop in provider.pops}

    def test_pop_for_matches_assignment(self, small_world):
        provider = small_world.provider("quad9")
        client = small_world.client_host
        assignment = provider.assignment_for(client)
        concrete = small_world.network.resolve_destination(
            client, provider.config.vip
        )
        assert concrete == provider.pops[assignment.pop_index].host.ip


class TestResolutionService:
    def _gt_node(self, small_world):
        # Reuse a ground-truth style client: any exit node will do.
        return small_world.nodes()[0]

    def test_direct_doh_resolution(self, small_world):
        node = self._gt_node(small_world)
        config = PROVIDER_CONFIGS["cloudflare"]

        def run():
            timing, answer, session = yield from resolve_direct(
                node.host,
                node.stub,
                config.domain,
                "provider-test-1.a.com",
                service_ip=config.vip,
            )
            session.close()
            return timing, answer

        timing, answer = small_world.run(run())
        assert answer.rcode == 0
        addresses = [
            record.rdata.address for record in answer.answers
            if record.rtype == RRType.A
        ]
        assert addresses == [small_world.web_ip]
        assert timing.dns_ms == 0.0  # service_ip short-circuit
        assert timing.tcp_ms > 0 and timing.tls_ms > 0 and timing.query_ms > 0

    def test_session_reuse_faster_than_first(self, small_world):
        node = self._gt_node(small_world)
        config = PROVIDER_CONFIGS["cloudflare"]

        def run():
            timing, _answer, session = yield from resolve_direct(
                node.host, node.stub, config.domain,
                "provider-test-2.a.com", service_ip=config.vip,
            )
            _m, reuse_ms = yield from session.query("provider-test-3.a.com")
            session.close()
            return timing.total_ms, reuse_ms

        total, reuse = small_world.run(run())
        assert reuse < total

    def test_queries_counted(self, small_world):
        provider = small_world.provider("cloudflare")
        assert provider.total_queries() >= 0  # accessor works

    def test_nxdomain_for_foreign_name(self, small_world):
        node = self._gt_node(small_world)
        config = PROVIDER_CONFIGS["google"]

        def run():
            _t, answer, session = yield from resolve_direct(
                node.host, node.stub, config.domain,
                "no-such-name.invalid-zone-xyz.com",
                service_ip=config.vip,
            )
            session.close()
            return answer

        answer = small_world.run(run())
        assert answer.rcode == 3  # NXDOMAIN from the com TLD
