"""IP allocator tests, with hypothesis round-trips for the codec."""

import pytest
from hypothesis import given, strategies as st

from repro.geo.ipalloc import (
    IpAllocator,
    format_ipv4,
    parse_ipv4,
    prefix_of,
)


class TestCodec:
    def test_parse_known(self):
        assert parse_ipv4("1.2.3.4") == 0x01020304

    def test_format_known(self):
        assert format_ipv4(0x01020304) == "1.2.3.4"

    def test_parse_rejects_bad_shapes(self):
        for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", ""):
            with pytest.raises(ValueError):
                parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(1 << 32)
        with pytest.raises(ValueError):
            format_ipv4(-1)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value

    def test_prefix_of(self):
        assert prefix_of("10.20.30.40") == "10.20.30.0/24"


class TestAllocator:
    def test_addresses_unique(self):
        allocator = IpAllocator()
        seen = set()
        for _ in range(600):
            address = allocator.allocate("US")
            assert address not in seen
            seen.add(address)

    def test_new_subnet_changes_prefix(self):
        allocator = IpAllocator()
        a = allocator.allocate("US", new_subnet=True)
        b = allocator.allocate("US", new_subnet=True)
        assert prefix_of(a) != prefix_of(b)

    def test_same_subnet_shares_prefix(self):
        allocator = IpAllocator()
        a = allocator.allocate("US")
        b = allocator.allocate("US")
        assert prefix_of(a) == prefix_of(b)

    def test_countries_do_not_overlap(self):
        allocator = IpAllocator()
        us = {allocator.allocate("US", new_subnet=True) for _ in range(50)}
        de = {allocator.allocate("DE", new_subnet=True) for _ in range(50)}
        assert not ({prefix_of(a) for a in us}
                    & {prefix_of(a) for a in de})

    def test_subnet_rollover_after_254_hosts(self):
        allocator = IpAllocator()
        first = allocator.allocate("JP", new_subnet=True)
        addresses = [allocator.allocate("JP") for _ in range(300)]
        prefixes = {prefix_of(a) for a in [first] + addresses}
        assert len(prefixes) == 2  # rolled into a second /24

    def test_case_insensitive_country(self):
        # "us" and "US" draw from the same country's address block.
        allocator = IpAllocator()
        a = allocator.allocate("us", new_subnet=True)
        b = allocator.allocate("US", new_subnet=True)
        assert parse_ipv4(a) >> 22 == parse_ipv4(b) >> 22
        assert prefix_of(a) != prefix_of(b)
