"""Anycast PoP-assignment model.

Public DoH services advertise one address worldwide and let BGP route
each client to a PoP.  Routing does *not* reliably pick the
geographically nearest site — the paper measures this directly
(Figure 6): Quad9 lands only 21% of clients on their closest PoP with a
median "potential improvement" of 769 miles, while NextDNS (unicast
DNS-steered) is near-optimal at 6 miles.

The model: for each (client, provider) pair, with probability
``nearest_prob`` the client is routed to the nearest PoP; with
probability ``far_prob`` to an effectively arbitrary PoP (pathological
BGP paths, remote transit); otherwise to one of the
``neighborhood_size`` nearest PoPs with geometrically decaying weights.
Assignments are deterministic per (provider, client address), because
BGP paths are stable on measurement timescales.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.geo.coords import LatLon, geodesic_km

__all__ = ["AnycastPolicy", "PopAssignment"]


@dataclass(frozen=True)
class PopAssignment:
    """Outcome of routing one client to a provider PoP."""

    pop_index: int
    distance_km: float
    nearest_index: int
    nearest_distance_km: float

    @property
    def potential_improvement_km(self) -> float:
        """Paper's Figure-6 metric: used distance minus nearest distance."""
        return max(0.0, self.distance_km - self.nearest_distance_km)


@dataclass(frozen=True)
class AnycastPolicy:
    """Routing-quality knobs for one provider."""

    nearest_prob: float
    far_prob: float
    neighborhood_size: int = 6
    neighborhood_decay: float = 0.55

    def __post_init__(self) -> None:
        if not 0.0 <= self.nearest_prob <= 1.0:
            raise ValueError("nearest_prob must be a probability")
        if not 0.0 <= self.far_prob <= 1.0 - self.nearest_prob:
            raise ValueError("nearest_prob + far_prob must not exceed 1")
        if self.neighborhood_size < 1:
            raise ValueError("neighborhood_size must be >= 1")

    def degraded(self, strength: float = 1.0) -> "AnycastPolicy":
        """Routing quality as seen from poorly-connected networks.

        Clients in countries with little Internet infrastructure
        investment (few ASes, low bandwidth, low income) reach anycast
        services over few, often circuitous transit paths, so BGP lands
        them on distant PoPs far more often (the paper's Figure 9 shows
        exactly this for African and South-American clients).

        *strength* interpolates between this policy (0) and the fully
        degraded one (1).
        """
        strength = max(0.0, min(1.0, strength))
        if strength == 0.0:
            return self
        nearest = self.nearest_prob * (1.0 - 0.55 * strength)
        far = min(1.0 - nearest, self.far_prob + 0.28 * strength)
        return AnycastPolicy(
            nearest_prob=nearest,
            far_prob=far,
            neighborhood_size=self.neighborhood_size
            + int(round(4 * strength)),
            neighborhood_decay=min(
                0.9, self.neighborhood_decay + 0.12 * strength
            ),
        )

    # -- deterministic randomness ------------------------------------------

    @staticmethod
    def _hash01(salt: str, material: str) -> float:
        digest = hashlib.sha256(
            "{}:{}".format(salt, material).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # -- assignment ------------------------------------------------------

    def assign(
        self,
        client_location: LatLon,
        pop_locations: Sequence[LatLon],
        identity: str,
    ) -> PopAssignment:
        """Route a client to a PoP.

        *identity* should be stable per (provider, client) — e.g.
        ``"quad9:20.3.7.11"`` — so repeated queries land on the same
        PoP, as real anycast does.
        """
        if not pop_locations:
            raise ValueError("provider has no PoPs")
        ranked = self.rank_by_distance(client_location, pop_locations)
        nearest_index, nearest_distance = ranked[0]

        roll = self._hash01("route", identity)
        if roll < self.nearest_prob:
            chosen = 0
        elif roll < self.nearest_prob + self.far_prob:
            pick = self._hash01("far", identity)
            chosen = int(pick * len(ranked))
            chosen = min(chosen, len(ranked) - 1)
        else:
            chosen = self._neighborhood_pick(identity, len(ranked))

        pop_index, distance = ranked[chosen]
        return PopAssignment(
            pop_index=pop_index,
            distance_km=distance,
            nearest_index=nearest_index,
            nearest_distance_km=nearest_distance,
        )

    def _neighborhood_pick(self, identity: str, n_pops: int) -> int:
        """Pick among the 2nd..k-th nearest PoPs (nearest is excluded —
        the ``nearest_prob`` branch already covers it)."""
        size = min(self.neighborhood_size, n_pops - 1)
        if size < 1:
            return 0
        weights = [self.neighborhood_decay ** rank for rank in range(size)]
        total = sum(weights)
        pick = self._hash01("near", identity) * total
        cumulative = 0.0
        for rank, weight in enumerate(weights):
            cumulative += weight
            if pick <= cumulative:
                return rank + 1
        return size

    @staticmethod
    def rank_by_distance(
        client: LatLon, pops: Sequence[LatLon]
    ) -> List[Tuple[int, float]]:
        # Sorting (distance, index) pairs natively avoids a key-lambda
        # call per element; ties break on index exactly as before.
        # Ranking goes through the memoized geodesic_km deliberately:
        # it seeds the cache with every (client, pop) pair, which the
        # latency model's propagation lookups then hit for the pop the
        # client was actually routed to.
        distances = [
            (geodesic_km(client, location), index)
            for index, location in enumerate(pops)
        ]
        distances.sort()
        return [(index, distance) for distance, index in distances]
