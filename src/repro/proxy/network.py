"""Proxy-network registry: nodes, sessions, censorship.

The :class:`ProxyNetwork` is the bookkeeping half of BrightData: it
knows every enrolled exit node, hands the Super Proxy a node for a
requested country (honouring session pinning, which is how the paper
measured DoH *and* Do53 from the same client), and encodes the
censorship reality the paper ran into (99% of DoH queries from China
were dropped in 2021).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, TYPE_CHECKING

from repro.geo.coords import LatLon, geodesic_km
from repro.geo.countries import COUNTRIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.proxy.exitnode import ExitNode
    from repro.proxy.superproxy import SuperProxy

__all__ = ["CensorshipPolicy", "NoPeerAvailable", "ProxyNetwork"]


class NoPeerAvailable(Exception):
    """No exit node available in the requested country."""


@dataclass(frozen=True)
class CensorshipPolicy:
    """Which DoH endpoints are unreachable from which countries.

    ``blocked_domains`` applies to countries whose profile is marked
    ``censored``; their national firewalls drop connections to public
    DoH front ends while ordinary web traffic (our Do53 measurement
    fetch) passes.
    """

    blocked_domains: FrozenSet[str] = frozenset()

    def blocked_hosts_for(self, country_code: str) -> FrozenSet[str]:
        """DoH hostnames unreachable from *country_code*."""
        profile = COUNTRIES.get(country_code.upper())
        if profile is not None and profile.censored:
            return self.blocked_domains
        return frozenset()


class ProxyNetwork:
    """Registry of exit nodes and super proxies, with session pinning."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nodes: Dict[str, "ExitNode"] = {}
        self.super_proxies: List["SuperProxy"] = []
        self._by_country: Dict[str, List[str]] = {}
        self._sessions: Dict[str, str] = {}

    # -- enrollment ---------------------------------------------------------

    def enroll(self, node: "ExitNode") -> None:
        """Add an exit node to the fleet (indexed by *claimed* country)."""
        if node.node_id in self.nodes:
            raise ValueError("duplicate node id {!r}".format(node.node_id))
        self.nodes[node.node_id] = node
        self._by_country.setdefault(node.claimed_country, []).append(
            node.node_id
        )

    def add_super_proxy(self, super_proxy: "SuperProxy") -> None:
        """Register a deployed super proxy."""
        self.super_proxies.append(super_proxy)

    # -- selection ----------------------------------------------------------

    def countries(self) -> List[str]:
        """Countries with at least one (claimed) node, sorted."""
        return sorted(self._by_country)

    def select(
        self,
        country_code: str,
        session_id: Optional[str] = None,
        node_id: Optional[str] = None,
    ) -> "ExitNode":
        """Pick an exit node for a request.

        Explicit *node_id* pins a specific machine (the paper's
        ground-truth trick of repeatedly querying until their own EC2
        node is selected is collapsed into direct pinning).  A
        *session_id* sticks to whatever node the session used before —
        BrightData's mechanism for measuring DoH and Do53 from one
        client.
        """
        if node_id is not None:
            try:
                return self.nodes[node_id]
            except KeyError:
                raise NoPeerAvailable(
                    "pinned node {!r} not enrolled".format(node_id)
                ) from None
        if session_id is not None and session_id in self._sessions:
            return self.nodes[self._sessions[session_id]]
        pool = self._by_country.get(country_code.upper())
        if not pool:
            raise NoPeerAvailable(
                "no exit nodes in {!r}".format(country_code)
            )
        chosen = pool[self.rng.randrange(len(pool))]
        if session_id is not None:
            self._sessions[session_id] = chosen
        return self.nodes[chosen]

    # -- super proxy routing ---------------------------------------------

    def nearest_super_proxy(self, location: LatLon) -> "SuperProxy":
        """The super proxy geographically closest to *location*.

        BrightData routes customers to a nearby super proxy; the same
        logic sends an exit node's traffic through the super proxy
        country that matters for the 11-country Do53 limitation.
        """
        if not self.super_proxies:
            raise NoPeerAvailable("no super proxies deployed")
        return min(
            self.super_proxies,
            key=lambda sp: geodesic_km(sp.host.location, location),
        )
