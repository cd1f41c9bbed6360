"""Latency-model tests: decomposition, monotonicity, determinism.

Sampled delays are measured where every campaign draws them, in
:meth:`Network.transmit`: a message's arrival time minus ``sim.now``.
"""

import random

import pytest

from repro.geo.coords import LatLon
from repro.netsim.engine import Simulator
from repro.netsim.host import SiteProfile
from repro.netsim.latency import LatencyModel, LatencyParams
from repro.netsim.network import Network

NY = LatLon(40.7, -74.0)
PARIS = LatLon(48.9, 2.4)
SYDNEY = LatLon(-33.9, 151.2)


def site(location=NY, country="US", last_mile=8.0, bandwidth=100.0,
         stretch=1.4, intl=0.0, datacenter=False, loss=0.0):
    return SiteProfile(
        location=location,
        country_code=country,
        last_mile_ms=last_mile,
        bandwidth_mbps=bandwidth,
        path_stretch=stretch,
        intl_extra_ms=intl,
        datacenter=datacenter,
        loss_rate=loss,
    )


@pytest.fixture()
def model():
    return LatencyModel(LatencyParams())


def one_way(model, src, dst, nbytes, rng):
    """One delay sampled by ``Network.transmit`` from *src* to *dst*."""
    network = Network(Simulator(), rng, model)
    sender = network.add_host("src", "10.0.0.1", src)
    network.add_host("dst", "10.0.0.2", dst)
    arrival = network.transmit(sender, "10.0.0.2", nbytes, lambda: None)
    return arrival - network.sim.now


class TestPropagation:
    def test_zero_distance_zero_propagation(self, model):
        a = site()
        assert model.propagation_ms(a, a) == 0.0

    def test_transatlantic_propagation_plausible(self, model):
        delay = model.propagation_ms(site(NY), site(PARIS, country="FR"))
        # ~5850 km at 200 km/ms with 1.4 stretch => ~41 ms one way.
        assert 30.0 <= delay <= 55.0

    def test_propagation_scales_with_stretch(self, model):
        low = model.propagation_ms(
            site(NY, stretch=1.0), site(PARIS, country="FR", stretch=1.0)
        )
        high = model.propagation_ms(
            site(NY, stretch=2.0), site(PARIS, country="FR", stretch=2.0)
        )
        assert high == pytest.approx(2.0 * low)

    def test_propagation_symmetric(self, model):
        a, b = site(NY), site(SYDNEY, country="AU")
        assert model.propagation_ms(a, b) == pytest.approx(
            model.propagation_ms(b, a)
        )


class TestSerialization:
    def test_serialization_scales_inverse_bandwidth(self, model):
        fast = model.serialization_ms(site(bandwidth=100.0), 10000)
        slow = model.serialization_ms(site(bandwidth=10.0), 10000)
        assert slow == pytest.approx(10.0 * fast)

    def test_serialization_linear_in_size(self, model):
        small = model.serialization_ms(site(), 500)
        large = model.serialization_ms(site(), 5000)
        assert large == pytest.approx(10.0 * small)

    def test_zero_bandwidth_rejected(self, model):
        with pytest.raises(ValueError):
            SiteProfile(
                location=NY, country_code="US", last_mile_ms=1.0,
                bandwidth_mbps=0.0, path_stretch=1.2,
            )


class TestOneWaySampling:
    def test_delay_positive(self, model):
        rng = random.Random(1)
        for _ in range(200):
            delay = one_way(model, site(), site(PARIS, country="FR"),
                            200, rng)
            assert delay > 0.0

    def test_delay_exceeds_deterministic_floor(self, model):
        rng = random.Random(2)
        a, b = site(), site(PARIS, country="FR")
        floor = model.propagation_ms(a, b)
        for _ in range(100):
            assert one_way(model, a, b, 100, rng) >= floor

    def test_deterministic_given_seed(self, model):
        a, b = site(), site(PARIS, country="FR")
        first = [one_way(model, a, b, 100, random.Random(7))
                 for _ in range(1)]
        second = [one_way(model, a, b, 100, random.Random(7))
                  for _ in range(1)]
        assert first == second

    def test_farther_is_slower_in_median(self, model):
        rng = random.Random(3)
        near = sorted(
            one_way(model, site(), site(PARIS, country="FR"), 100, rng)
            for _ in range(101)
        )[50]
        rng = random.Random(3)
        far = sorted(
            one_way(model, site(), site(SYDNEY, country="AU"), 100, rng)
            for _ in range(101)
        )[50]
        assert far > near

    def test_international_surcharge_applies_across_borders(self, model):
        rng = random.Random(4)
        domestic_site = site(intl=50.0)
        foreign = site(PARIS, country="FR")
        same_country = site(PARIS, country="US")  # same code, no surcharge
        with_surcharge = sorted(
            one_way(model, domestic_site, foreign, 100, rng)
            for _ in range(101)
        )[50]
        rng = random.Random(4)
        without = sorted(
            one_way(model, domestic_site, same_country, 100, rng)
            for _ in range(101)
        )[50]
        assert with_surcharge - without == pytest.approx(50.0, abs=15.0)

    def test_datacenter_endpoints_faster_than_residential(self, model):
        rng = random.Random(5)
        residential = sorted(
            one_way(model, site(last_mile=20.0),
                    site(PARIS, country="FR", last_mile=20.0),
                    100, rng)
            for _ in range(101)
        )[50]
        rng = random.Random(5)
        dc = sorted(
            one_way(model, site(datacenter=True, last_mile=0.2),
                    site(PARIS, country="FR", datacenter=True,
                         last_mile=0.2),
                    100, rng)
            for _ in range(101)
        )[50]
        assert dc < residential


class TestLoss:
    def test_loss_rate_respected(self, model):
        rng = random.Random(6)
        lossy = site(loss=0.2)
        clean = site(PARIS, country="FR", loss=0.0)
        losses = sum(model.loss(lossy, clean, rng) for _ in range(5000))
        assert 0.15 <= losses / 5000 <= 0.25

    def test_zero_loss_never_drops(self, model):
        rng = random.Random(7)
        a, b = site(), site(PARIS, country="FR")
        assert not any(model.loss(a, b, rng) for _ in range(2000))


class TestExpectedRtt:
    def test_expected_rtt_close_to_sampled_median(self, model):
        a, b = site(), site(PARIS, country="FR")
        expected = model.expected_rtt_ms(a, b)
        rng = random.Random(8)
        sampled = sorted(
            one_way(model, a, b, 100, rng)
            + one_way(model, b, a, 100, rng)
            for _ in range(301)
        )[150]
        assert expected == pytest.approx(sampled, rel=0.5)
