"""Anycast PoP-assignment model tests."""

import pytest

from repro.doh.anycast import AnycastPolicy, PopAssignment
from repro.geo.coords import LatLon

BERLIN = LatLon(52.5, 13.4)
POPS = [
    LatLon(52.5, 13.4),    # Berlin (nearest)
    LatLon(50.1, 8.7),     # Frankfurt
    LatLon(48.9, 2.4),     # Paris
    LatLon(40.7, -74.0),   # New York
    LatLon(35.7, 139.7),   # Tokyo
    LatLon(-33.9, 151.2),  # Sydney
]


class TestPolicyValidation:
    def test_probabilities_must_be_valid(self):
        with pytest.raises(ValueError):
            AnycastPolicy(nearest_prob=1.2, far_prob=0.0)
        with pytest.raises(ValueError):
            AnycastPolicy(nearest_prob=0.8, far_prob=0.3)
        with pytest.raises(ValueError):
            AnycastPolicy(nearest_prob=0.5, far_prob=0.1,
                          neighborhood_size=0)

    def test_no_pops_rejected(self):
        policy = AnycastPolicy(nearest_prob=1.0, far_prob=0.0)
        with pytest.raises(ValueError):
            policy.assign(BERLIN, [], "x:1.2.3.4")


class TestAssignment:
    def test_always_nearest_policy(self):
        policy = AnycastPolicy(nearest_prob=1.0, far_prob=0.0)
        for index in range(50):
            assignment = policy.assign(BERLIN, POPS,
                                       "p:{}".format(index))
            assert assignment.pop_index == assignment.nearest_index
            assert assignment.potential_improvement_km == 0.0

    def test_deterministic_per_identity(self):
        policy = AnycastPolicy(nearest_prob=0.3, far_prob=0.3)
        first = policy.assign(BERLIN, POPS, "p:20.0.0.1")
        second = policy.assign(BERLIN, POPS, "p:20.0.0.1")
        assert first == second

    def test_different_identities_vary(self):
        policy = AnycastPolicy(nearest_prob=0.3, far_prob=0.3)
        picks = {
            policy.assign(BERLIN, POPS, "p:{}".format(i)).pop_index
            for i in range(100)
        }
        assert len(picks) > 1

    def test_nearest_rate_matches_probability(self):
        policy = AnycastPolicy(nearest_prob=0.2, far_prob=0.2,
                               neighborhood_size=4)
        assignments = [policy.assign(BERLIN, POPS, "p:{}".format(i))
                       for i in range(2000)]
        hits = sum(a.pop_index == a.nearest_index for a in assignments)
        # Far picks occasionally land on the nearest (1/6 of the time).
        assert 0.15 <= hits / 2000 <= 0.35

    def test_neighborhood_prefers_close_pops(self):
        policy = AnycastPolicy(nearest_prob=0.0, far_prob=0.0,
                               neighborhood_size=2)
        for index in range(100):
            assignment = policy.assign(BERLIN, POPS, "p:{}".format(index))
            # Only Frankfurt or Paris (2nd/3rd nearest).
            assert assignment.pop_index in (1, 2)
            assert assignment.nearest_index == 0

    def test_improvement_metric(self):
        policy = AnycastPolicy(nearest_prob=0.0, far_prob=0.0,
                               neighborhood_size=1)
        assignment = policy.assign(BERLIN, POPS, "p:x")
        assert assignment.pop_index == 1  # Frankfurt
        assert assignment.potential_improvement_km == pytest.approx(
            assignment.distance_km - assignment.nearest_distance_km
        )

    def test_single_pop_always_assigned(self):
        policy = AnycastPolicy(nearest_prob=0.0, far_prob=0.0)
        assignment = policy.assign(BERLIN, [LatLon(0.0, 0.0)], "p:x")
        assert assignment.pop_index == assignment.nearest_index == 0

    def test_far_picks_reach_remote_pops(self):
        policy = AnycastPolicy(nearest_prob=0.0, far_prob=1.0)
        picks = {
            policy.assign(BERLIN, POPS, "p:{}".format(i)).pop_index
            for i in range(300)
        }
        assert {3, 4, 5} & picks  # NY/Tokyo/Sydney get hit

    def test_distance_miles_property(self):
        policy = AnycastPolicy(nearest_prob=1.0, far_prob=0.0)
        assignment = policy.assign(LatLon(48.9, 2.4), POPS, "p:x")
        assert assignment.distance_miles == pytest.approx(
            assignment.distance_km / 1.609344
        )
