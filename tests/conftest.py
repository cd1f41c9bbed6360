"""Shared fixtures.

Expensive artifacts (a built world, a finished campaign) are
session-scoped: the simulation is deterministic, so every test sees the
same data.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import random

import pytest

from repro.core.campaign import Campaign
from repro.core.config import ReproConfig
from repro.core.groundtruth import GroundTruthHarness
from repro.core.world import build_world
from repro.geo.coords import LatLon
from repro.netsim.engine import Simulator
from repro.netsim.host import SiteProfile
from repro.netsim.network import Network
from repro.proxy.population import PopulationConfig

TEST_SEED = 987


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic collector for the block.

    Yields a :class:`collections.Counter` that, after the block, counts
    by type name every object the block left in a reference cycle: what
    a collection under ``gc.DEBUG_SAVEALL`` finds, where reference
    counting freed the rest.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    found = collections.Counter()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.update(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def rng():
    return random.Random(TEST_SEED)


@pytest.fixture()
def network(sim, rng):
    return Network(sim, rng)


def residential_site(
    lat: float = 40.0,
    lon: float = -74.0,
    country: str = "US",
    last_mile_ms: float = 8.0,
    bandwidth_mbps: float = 100.0,
) -> SiteProfile:
    """A typical residential attachment for ad-hoc hosts in tests."""
    return SiteProfile(
        location=LatLon(lat, lon),
        country_code=country,
        last_mile_ms=last_mile_ms,
        bandwidth_mbps=bandwidth_mbps,
        path_stretch=1.4,
    )


def datacenter_site(
    lat: float = 39.0, lon: float = -77.5, country: str = "US"
) -> SiteProfile:
    return SiteProfile.datacenter_site(LatLon(lat, lon), country)


@pytest.fixture(scope="session")
def small_world():
    """A small but complete world (providers, proxies, fleet)."""
    config = ReproConfig(
        seed=TEST_SEED, population=PopulationConfig(scale=0.02)
    )
    return build_world(config)


@pytest.fixture(scope="session")
def campaign_result(small_world):
    """A finished campaign over the small world."""
    campaign = Campaign(
        small_world, atlas_probes_per_country=4, atlas_repetitions=1
    )
    return campaign.run()


@pytest.fixture(scope="session")
def dataset(campaign_result):
    return campaign_result.dataset


@pytest.fixture(scope="session")
def gt_world():
    """A separate world reserved for ground-truth experiments."""
    config = ReproConfig(
        seed=TEST_SEED + 1, population=PopulationConfig(scale=0.01)
    )
    return build_world(config)


@pytest.fixture(scope="session")
def gt_harness(gt_world):
    return GroundTruthHarness(gt_world, repetitions=5)
