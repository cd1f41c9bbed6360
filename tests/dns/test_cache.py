"""TTL-cache tests with an injected clock."""

import pytest

from repro.dns.cache import DnsCache
from repro.dns.name import DomainName
from repro.dns.records import ARecord, RRClass, RRType, ResourceRecord


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def record(name="x.a.com", ttl=60, address="1.2.3.4"):
    return ResourceRecord(
        DomainName(name), RRType.A, RRClass.IN, ttl, ARecord(address)
    )


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def cache(clock):
    return DnsCache(clock)


class TestBasics:
    def test_miss_then_hit(self, cache):
        name = DomainName("x.a.com")
        assert cache.get(name, RRType.A) is None
        cache.put(name, RRType.A, (record(),))
        entry = cache.get(name, RRType.A)
        assert entry is not None
        assert entry.records[0].rdata.address == "1.2.3.4"

    def test_expiry_follows_ttl(self, cache, clock):
        name = DomainName("x.a.com")
        cache.put(name, RRType.A, (record(ttl=60),))
        clock.now = 59_999.0
        assert cache.get(name, RRType.A) is not None
        clock.now = 60_001.0
        assert cache.get(name, RRType.A) is None

    def test_ttl_ages_with_clock(self, cache, clock):
        name = DomainName("x.a.com")
        cache.put(name, RRType.A, (record(ttl=100),))
        clock.now = 40_000.0
        entry = cache.get(name, RRType.A)
        assert entry.records[0].ttl == pytest.approx(60, abs=1)

    def test_zero_ttl_not_cached(self, cache):
        name = DomainName("x.a.com")
        cache.put(name, RRType.A, (record(ttl=0),))
        assert cache.get(name, RRType.A) is None

    def test_min_ttl_governs_entry(self, cache, clock):
        name = DomainName("x.a.com")
        cache.put(name, RRType.A, (record(ttl=10), record(ttl=1000)))
        clock.now = 11_000.0
        assert cache.get(name, RRType.A) is None

    def test_negative_entry(self, cache):
        name = DomainName("gone.a.com")
        cache.put(name, RRType.A, (), negative=True, negative_ttl=30)
        entry = cache.get(name, RRType.A)
        assert entry is not None and entry.negative
        assert entry.records == ()

    def test_types_are_independent(self, cache):
        name = DomainName("x.a.com")
        cache.put(name, RRType.A, (record(),))
        assert cache.get(name, RRType.NS) is None

    def test_flush(self, cache):
        cache.put(DomainName("x.a.com"), RRType.A, (record(),))
        cache.flush()
        assert len(cache) == 0


class TestStats:
    def test_hit_rate_tracked(self, cache):
        name = DomainName("x.a.com")
        cache.get(name, RRType.A)  # miss
        cache.put(name, RRType.A, (record(),))
        cache.get(name, RRType.A)  # hit
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_rate_empty(self, cache):
        assert cache.hits == 0 and cache.misses == 0


class TestEviction:
    def test_capacity_enforced(self, clock):
        cache = DnsCache(clock, max_entries=10)
        for index in range(25):
            cache.put(
                DomainName("h{}.a.com".format(index)),
                RRType.A,
                (record("h{}.a.com".format(index)),),
            )
        assert len(cache) <= 10

    def test_expired_evicted_before_live(self, clock):
        cache = DnsCache(clock, max_entries=5)
        cache.put(DomainName("old.a.com"), RRType.A, (record("old.a.com", ttl=1),))
        clock.now = 2_000.0
        for index in range(5):
            cache.put(
                DomainName("new{}.a.com".format(index)),
                RRType.A,
                (record("new{}.a.com".format(index), ttl=600),),
            )
        assert cache.get(DomainName("new4.a.com"), RRType.A) is not None
