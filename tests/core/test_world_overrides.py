"""World-builder override hooks and configuration plumbing."""

import dataclasses

import pytest

from repro.core.config import ReproConfig
from repro.core.world import build_world
from repro.doh.provider import PROVIDER_CONFIGS
from repro.proxy.population import PopulationConfig


def _config(scale=0.004, seed=55, **kwargs):
    return ReproConfig(
        seed=seed, population=PopulationConfig(scale=scale), **kwargs
    )


class TestProviderOverrides:
    def test_override_applies(self):
        overrides = {
            "cloudflare": dataclasses.replace(
                PROVIDER_CONFIGS["cloudflare"], backend_ms=999.0
            )
        }
        world = build_world(_config(), provider_configs=overrides)
        assert world.provider("cloudflare").config.backend_ms == 999.0
        # Untouched providers keep their table definition.
        assert (
            world.provider("google").config.backend_ms
            == PROVIDER_CONFIGS["google"].backend_ms
        )

    def test_ideal_routing_always_nearest(self):
        overrides = {
            name: dataclasses.replace(cfg, ideal_routing=True)
            for name, cfg in PROVIDER_CONFIGS.items()
        }
        world = build_world(_config(seed=56), provider_configs=overrides)
        provider = world.provider("quad9")
        for node in world.nodes()[:40]:
            assignment = provider.assignment_for(node.host)
            assert assignment.pop_index == assignment.nearest_index

    def test_default_routing_not_always_nearest(self):
        world = build_world(_config(seed=57))
        provider = world.provider("quad9")
        nearest = [
            assignment.pop_index == assignment.nearest_index
            for assignment in (provider.assignment_for(node.host)
                               for node in world.nodes()[:60])
        ]
        assert not all(nearest)


class TestConfigPlumbing:
    def test_provider_subset(self):
        config = _config(seed=58)
        config = dataclasses.replace(
            config, providers=("cloudflare", "google")
        )
        world = build_world(config)
        assert set(world.providers) == {"cloudflare", "google"}

    def test_geolocation_error_rate_plumbed(self):
        config = _config(seed=59, geolocation_error_rate=0.3)
        world = build_world(config)
        assert world.geolocation.error_rate == 0.3
        # With a high error rate some lookups now disagree with truth.
        wrong = sum(
            1 for node in world.nodes()
            if world.geolocation.lookup_country(node.ip)
            != node.true_country
        )
        assert wrong > 0

    def test_campaign_discards_more_with_geo_errors(self):
        from repro.core.campaign import Campaign

        noisy = build_world(_config(seed=60, geolocation_error_rate=0.2))
        result = Campaign(noisy, atlas_probes_per_country=0).run()
        # Geolocation errors masquerade as label mismatches: the §3.5
        # filter discards far more than the 0.88% label noise alone.
        assert result.discard_rate > 0.05
