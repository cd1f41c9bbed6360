"""Network-fabric tests: host registry, FIFO guard, anycast."""

import pytest

from repro.netsim.network import NetworkError, UnknownHostError
from tests.conftest import datacenter_site, residential_site


class TestRegistry:
    def test_add_and_lookup(self, network):
        host = network.add_host("a", "20.0.0.1", residential_site())
        assert network.host("20.0.0.1") is host
        assert network.has_host("20.0.0.1")
        assert len(network) == 1

    def test_duplicate_ip_rejected(self, network):
        network.add_host("a", "20.0.0.1", residential_site())
        with pytest.raises(NetworkError):
            network.add_host("b", "20.0.0.1", residential_site())

    def test_unknown_host_lookup_fails(self, network):
        with pytest.raises(UnknownHostError):
            network.host("1.2.3.4")


class TestTransmit:
    def test_fifo_per_channel(self, sim, network):
        a = network.add_host("a", "20.0.0.1", residential_site())
        network.add_host("b", "20.0.1.1", datacenter_site())
        arrivals = []
        for index in range(30):
            network.transmit(
                a, "20.0.1.1", 4000,
                lambda index=index: arrivals.append((sim.now, index)),
                channel=7,
            )
        sim.run()
        assert [i for _, i in arrivals] == list(range(30))
        times = [t for t, _ in arrivals]
        assert times == sorted(times)

    def test_unreliable_may_drop(self, sim, network):
        lossy = residential_site()
        lossy = type(lossy)(
            location=lossy.location, country_code="US",
            last_mile_ms=5.0, bandwidth_mbps=100.0, path_stretch=1.3,
            loss_rate=0.3,
        )
        a = network.add_host("a", "20.0.0.1", lossy)
        network.add_host("b", "20.0.1.1", datacenter_site())
        outcomes = [
            network.transmit(a, "20.0.1.1", 100, lambda: None,
                             reliable=False)
            for _ in range(500)
        ]
        drops = sum(1 for arrival in outcomes if arrival is None)
        assert 80 <= drops <= 250  # ~30% of 500

    def test_reliable_never_drops_but_pays_rto(self, sim, network):
        lossy = type(residential_site())(
            location=residential_site().location, country_code="US",
            last_mile_ms=5.0, bandwidth_mbps=100.0, path_stretch=1.3,
            loss_rate=0.2,
        )
        a = network.add_host("a", "20.0.0.1", lossy)
        network.add_host("b", "20.0.1.1", datacenter_site())
        arrivals = [
            network.transmit(a, "20.0.1.1", 100, lambda: None,
                             channel=i, reliable=True)
            for i in range(300)
        ]
        assert all(arrival is not None for arrival in arrivals)
        # Some transmissions were retransmitted: their arrival includes
        # a >=200ms RTO penalty.
        assert any(arrival > 200.0 for arrival in arrivals)


class TestAnycast:
    def test_selector_routes_to_concrete_host(self, sim, network):
        client = network.add_host("c", "20.0.0.1", residential_site())
        near = network.add_host("near", "20.0.1.1", datacenter_site())
        network.add_host("far", "20.0.2.1",
                         datacenter_site(-33.9, 151.2, "AU"))
        network.register_anycast("10.53.9.9", lambda src: "20.0.1.1")
        assert network.resolve_destination(client, "10.53.9.9") == near.ip

    def test_unicast_passthrough(self, network):
        client = network.add_host("c", "20.0.0.1", residential_site())
        assert network.resolve_destination(client, "8.8.8.8") == "8.8.8.8"

    def test_vip_cannot_shadow_host(self, network):
        network.add_host("a", "20.0.0.1", residential_site())
        with pytest.raises(NetworkError):
            network.register_anycast("20.0.0.1", lambda src: "20.0.0.1")

    def test_selector_returning_vip_rejected(self, network):
        client = network.add_host("c", "20.0.0.1", residential_site())
        network.register_anycast("10.53.9.1", lambda src: "10.53.9.2")
        network.register_anycast("10.53.9.2", lambda src: "20.0.0.1")
        with pytest.raises(NetworkError):
            network.resolve_destination(client, "10.53.9.1")

    def test_is_anycast(self, network):
        # A query to a registered VIP goes to the instance the selector
        # picks; any other address is delivered as addressed.
        client = network.add_host("c", "20.0.0.2", residential_site())
        network.register_anycast("10.53.9.9", lambda src: "20.0.0.1")
        assert network.resolve_destination(client, "10.53.9.9") == "20.0.0.1"
        assert network.resolve_destination(client, "20.0.0.1") == "20.0.0.1"
