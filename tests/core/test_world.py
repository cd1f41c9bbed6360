"""World-builder tests: every subsystem stands up and interconnects."""

import pytest

from repro.core.world import ROOT_VIP, TLD_VIP
from repro.geo.countries import SUPER_PROXY_COUNTRIES


class TestTopology:
    def test_root_and_tld_anycast_registered(self, small_world):
        client = small_world.client_host
        roots = {server.host.ip for server in small_world.root_servers}
        tlds = {server.host.ip for server in small_world.tld_servers}
        network = small_world.network
        assert network.resolve_destination(client, ROOT_VIP) in roots
        assert network.resolve_destination(client, TLD_VIP) in tlds

    def test_six_root_instances(self, small_world):
        assert len(small_world.root_servers) == 6
        assert len(small_world.tld_servers) == 6

    def test_eleven_super_proxies(self, small_world):
        assert len(small_world.super_proxies) == 11
        countries = {sp.country_code for sp in small_world.super_proxies}
        assert countries == set(SUPER_PROXY_COUNTRIES)

    def test_auth_and_web_in_usa(self, small_world):
        auth_host = small_world.network.host(small_world.auth_ip)
        web_host = small_world.network.host(small_world.web_ip)
        assert auth_host.country_code == "US"
        assert web_host.country_code == "US"

    def test_client_host_in_usa(self, small_world):
        assert small_world.client_host.country_code == "US"

    def test_population_nonempty(self, small_world):
        assert len(small_world.nodes()) > 300

    def test_pop_ips_geolocatable(self, small_world):
        # The paper discovers PoPs by geolocating resolver source IPs.
        provider = small_world.provider("cloudflare")
        for pop in provider.pops[:20]:
            located = small_world.geolocation.lookup(pop.host.ip)
            assert located is not None
            assert located.country_code == pop.city.country_code


class TestNameResolutionChain:
    def test_wildcard_resolves_to_web_server(self, small_world):
        node = small_world.nodes()[0]

        def run():
            answer = yield from node.stub.query("chain-test-1.a.com")
            return answer.addresses

        assert small_world.run(run()) == (small_world.web_ip,)

    def test_provider_domains_resolve_to_vips(self, small_world):
        node = small_world.nodes()[0]

        def run():
            results = {}
            for name, provider in sorted(small_world.providers.items()):
                answer = yield from node.stub.query(provider.config.domain)
                results[name] = answer.addresses
            return results

        results = small_world.run(run())
        for name, provider in small_world.providers.items():
            assert results[name] == (provider.config.vip,)

    def test_web_server_serves_http(self, small_world):
        from repro.http.client import HttpClient

        node = small_world.nodes()[0]

        def run():
            conn = yield from node.host.open_tcp(small_world.web_ip, 80)
            client = HttpClient(conn)
            response = yield from client.get("/", host="x.a.com")
            client.close()
            return response

        response = small_world.run(run())
        assert response.ok
        assert b"measurement" in response.body


class TestDeterminism:
    def test_same_seed_same_population(self):
        from repro.core.config import ReproConfig
        from repro.core.world import build_world
        from repro.proxy.population import PopulationConfig

        config_a = ReproConfig(
            seed=42, population=PopulationConfig(scale=0.005)
        )
        config_b = ReproConfig(
            seed=42, population=PopulationConfig(scale=0.005)
        )
        world_a = build_world(config_a)
        world_b = build_world(config_b)
        ips_a = [node.ip for node in world_a.nodes()]
        ips_b = [node.ip for node in world_b.nodes()]
        assert ips_a == ips_b
        labels_a = [node.claimed_country for node in world_a.nodes()]
        labels_b = [node.claimed_country for node in world_b.nodes()]
        assert labels_a == labels_b
