"""Domain-name tests, with hypothesis invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import DomainName, NameError_

label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
    min_size=1,
    max_size=20,
)
names = st.lists(label, min_size=0, max_size=6).map(DomainName)


class TestParsing:
    def test_case_normalised(self):
        assert DomainName("WWW.Example.COM") == DomainName("www.example.com")

    def test_trailing_dot_ignored(self):
        assert DomainName("a.com.") == DomainName("a.com")

    def test_root_forms(self):
        assert DomainName(".").is_root
        assert DomainName("").is_root
        assert str(DomainName(".")) == "."

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            DomainName("a..com")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            DomainName("x" * 64 + ".com")

    def test_name_too_long_rejected(self):
        with pytest.raises(NameError_):
            DomainName(".".join(["abcdefgh"] * 32))

    def test_from_labels_iterable(self):
        assert DomainName(("A", "Com")) == DomainName("a.com")

    def test_copy_constructor(self):
        original = DomainName("a.b.c")
        assert DomainName(original) == original


class TestStructure:
    def test_parent(self):
        assert DomainName("a.b.c").parent() == DomainName("b.c")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            DomainName(".").parent()

    def test_child(self):
        assert DomainName("a.com").child("WWW") == DomainName("www.a.com")

    def test_subdomain_relationships(self):
        child = DomainName("x.a.com")
        parent = DomainName("a.com")
        assert child.is_subdomain_of(parent)
        assert parent.is_subdomain_of(parent)
        assert not parent.is_subdomain_of(child)
        assert child.is_subdomain_of(DomainName("."))

    def test_sibling_not_subdomain(self):
        assert not DomainName("b.com").is_subdomain_of(DomainName("a.com"))

    def test_wildcard(self):
        # How Zone.lookup names the wildcard at the closest encloser.
        assert DomainName("a.com").child("*") == DomainName("*.a.com")
        assert DomainName("*.a.com").labels[0] == "*"

    def test_immutability(self):
        name = DomainName("a.com")
        with pytest.raises(AttributeError):
            name.labels = ()  # type: ignore[misc]


class TestDunder:
    def test_equality_with_string(self):
        assert DomainName("a.com") == "A.COM."

    def test_hash_consistent_with_equality(self):
        assert hash(DomainName("A.com")) == hash(DomainName("a.COM"))

    def test_len_counts_labels(self):
        assert len(DomainName("a.b.c")) == 3
        assert len(DomainName(".")) == 0


class TestProperties:
    @given(names)
    def test_roundtrip_via_text(self, name):
        assert DomainName(str(name)) == name

    @given(names, label)
    def test_child_then_parent_identity(self, name, extra):
        try:
            child = name.child(extra)
        except NameError_:
            return  # grew past the 255-octet limit
        assert child.parent() == name
        assert child.is_subdomain_of(name)
