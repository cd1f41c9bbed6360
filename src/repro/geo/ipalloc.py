"""Deterministic per-country IP address allocation.

Every simulated host needs an IPv4 address, and the paper's methodology
geolocates clients by the /24 prefix of the address it observes.  This
allocator hands each country a private, non-overlapping slice of the
IPv4 space and vends addresses from per-country /24 subnets, so that
prefix-based geolocation is meaningful in the simulation.

The space is synthetic (we start at 20.0.0.0 and allocate one /10 per
country) — nothing in the reproduction depends on the addresses being
globally routable, only on /24 → country being well defined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["IpAllocator", "prefix_of", "parse_ipv4", "format_ipv4"]

_BASE = 20 << 24  # 20.0.0.0
_COUNTRY_BITS = 22  # one /10 per country -> 4M addresses, 16384 /24s


def parse_ipv4(address: str) -> int:
    """Parse dotted-quad *address* into a 32-bit integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError("malformed IPv4 address: {!r}".format(address))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("malformed IPv4 address: {!r}".format(address))
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format 32-bit integer *value* as a dotted quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 integer out of range: {!r}".format(value))
    return "{}.{}.{}.{}".format(
        (value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF
    )


def prefix_of(address: str) -> str:
    """The /24 prefix of *address*, rendered ``a.b.c.0/24``."""
    value = parse_ipv4(address) & 0xFFFFFF00
    return format_ipv4(value) + "/24"


class IpAllocator:
    """Vends IPv4 addresses grouped into per-country /24 subnets.

    Countries are registered lazily in first-use order, which is
    deterministic for a deterministic caller.  Within a country,
    addresses are handed out one /24 at a time; a fresh /24 can be
    requested explicitly (used to give distinct exit nodes distinct
    /24s, mirroring distinct residential subscribers).
    """

    def __init__(self) -> None:
        self._country_index: Dict[str, int] = {}
        self._next_subnet: Dict[str, int] = {}
        self._next_host: Dict[Tuple[str, int], int] = {}
        self._owner_by_subnet: Dict[int, str] = {}

    def _country_base(self, country_code: str) -> int:
        code = country_code.upper()
        if code not in self._country_index:
            self._country_index[code] = len(self._country_index)
        index = self._country_index[code]
        base = _BASE + (index << _COUNTRY_BITS)
        if base >= (1 << 32):  # pragma: no cover - 4000+ countries needed
            raise RuntimeError("IPv4 allocation space exhausted")
        return base

    def new_subnet(self, country_code: str) -> int:
        """Reserve a fresh /24 in *country_code*; returns the subnet id."""
        code = country_code.upper()
        base = self._country_base(code)
        subnet = self._next_subnet.get(code, 0)
        max_subnets = 1 << (_COUNTRY_BITS - 8)
        if subnet >= max_subnets:
            raise RuntimeError(
                "country {} exhausted its {} /24 subnets".format(code, max_subnets)
            )
        self._next_subnet[code] = subnet + 1
        network = base + (subnet << 8)
        self._owner_by_subnet[network] = code
        return network

    def allocate(self, country_code: str, new_subnet: bool = False) -> str:
        """Allocate the next address in *country_code*.

        With ``new_subnet=True`` the address comes from a freshly
        reserved /24 (distinct residential subscriber); otherwise it
        continues filling the country's most recent /24.
        """
        code = country_code.upper()
        if new_subnet or code not in self._next_subnet:
            network = self.new_subnet(code)
        else:
            network = (
                self._country_base(code) + ((self._next_subnet[code] - 1) << 8)
            )
        key = (code, network)
        host = self._next_host.get(key, 1)
        if host >= 255:
            network = self.new_subnet(code)
            key = (code, network)
            host = 1
        self._next_host[key] = host + 1
        return format_ipv4(network + host)

    def owner_of(self, address: str) -> Optional[str]:
        """The country that owns *address*'s /24, or None if unknown."""
        network = parse_ipv4(address) & 0xFFFFFF00
        return self._owner_by_subnet.get(network)

    def known_subnets(self) -> List[Tuple[str, str]]:
        """All reserved subnets as ``(prefix, country_code)`` pairs."""
        return [
            (format_ipv4(network) + "/24", code)
            for network, code in sorted(self._owner_by_subnet.items())
        ]
