"""A TTL-honouring DNS cache keyed on (name, type).

Both the recursive resolvers and the DoH provider backends use this
cache.  The paper's methodology defeats it on purpose with unique
UUID subdomains, but the *infrastructure* records (root hints, TLD
delegations, the ``a.com`` NS set, the DoH provider's own A record) are
cached exactly as real resolvers cache them — which is why only the
final authoritative round trip shows up in steady-state timings.

The clock is injected (simulated milliseconds), so entries age with
simulation time, not wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.dns.name import DomainName
from repro.dns.records import ResourceRecord

__all__ = ["CacheEntry", "DnsCache"]


@dataclass
class CacheEntry:
    """Records plus their absolute expiry (simulated ms)."""

    records: Tuple[ResourceRecord, ...]
    expires_at_ms: float
    negative: bool = False  # cached NXDOMAIN / NODATA


class DnsCache:
    """TTL cache with injected clock and simple statistics."""

    def __init__(self, now_ms: Callable[[], float],
                 max_entries: int = 100000) -> None:
        self._now_ms = now_ms
        self._max_entries = max_entries
        self._entries: Dict[Tuple[DomainName, int], CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, name: DomainName, rtype: int,
            records: Tuple[ResourceRecord, ...],
            negative: bool = False,
            negative_ttl: int = 60) -> None:
        """Cache *records* under (name, rtype) until their TTL expires."""
        if records:
            ttl = min(record.ttl for record in records)
        else:
            ttl = negative_ttl
        if ttl <= 0:
            return
        if len(self._entries) >= self._max_entries:
            self._evict_expired()
            if len(self._entries) >= self._max_entries:
                # Drop the soonest-expiring entry.
                victim = min(
                    self._entries, key=lambda k: self._entries[k].expires_at_ms
                )
                del self._entries[victim]
        self._entries[(name, rtype)] = CacheEntry(
            records=tuple(records),
            expires_at_ms=self._now_ms() + ttl * 1000.0,
            negative=negative,
        )

    def get(self, name: DomainName, rtype: int) -> Optional[CacheEntry]:
        """Fetch a live entry, aging record TTLs; None on miss/expiry."""
        key = (name, rtype)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        now = self._now_ms()
        if now >= entry.expires_at_ms:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        remaining_s = int((entry.expires_at_ms - now) / 1000.0)
        aged = tuple(
            record.with_ttl(min(record.ttl, max(remaining_s, 1)))
            for record in entry.records
        )
        return CacheEntry(aged, entry.expires_at_ms, entry.negative)

    def flush(self) -> None:
        """Drop all entries (keeps statistics)."""
        self._entries.clear()

    def _evict_expired(self) -> None:
        now = self._now_ms()
        stale = [key for key, entry in self._entries.items()
                 if now >= entry.expires_at_ms]
        for key in stale:
            del self._entries[key]
