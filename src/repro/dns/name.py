"""Domain-name handling per RFC 1035 §2.3.

Names are stored as tuples of lowercase label strings (the DNS is
case-insensitive for matching).  The empty tuple is the root.  Length
limits — 63 octets per label, 255 octets total including length bytes —
are enforced at construction.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

__all__ = ["DomainName", "NameError_"]

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Malformed domain name (suffix avoids shadowing builtins)."""


NameLike = Union[str, "DomainName", Iterable[str]]


class DomainName:
    """An absolute domain name.

    >>> DomainName("WWW.Example.COM") == DomainName("www.example.com.")
    True
    >>> DomainName("a.b.c").parent()
    DomainName('b.c')
    """

    __slots__ = ("labels",)

    def __init__(self, name: NameLike) -> None:
        if isinstance(name, DomainName):
            labels: Tuple[str, ...] = name.labels
        elif isinstance(name, str):
            labels = self._parse(name)
        else:
            labels = tuple(str(label).lower() for label in name)
        self._validate(labels)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *args: object) -> None:  # immutable
        raise AttributeError("DomainName is immutable")

    def __reduce__(self):
        # Default pickling restores state through __setattr__, which
        # the immutability guard rejects; rebuild via the constructor
        # instead (checkpoint state blobs pickle resolver caches).
        return (DomainName, (self.labels,))

    @staticmethod
    def _parse(text: str) -> Tuple[str, ...]:
        text = text.strip()
        if text in ("", "."):
            return ()
        if text.endswith("."):
            text = text[:-1]
        labels = tuple(label.lower() for label in text.split("."))
        if any(label == "" for label in labels):
            raise NameError_("empty label in {!r}".format(text))
        return labels

    @staticmethod
    def _validate(labels: Tuple[str, ...]) -> None:
        total = 1  # trailing root length byte
        for label in labels:
            if label.isascii():
                length = len(label)  # ASCII encodes one octet per char
            else:
                length = len(label.encode("idna"))
            if not length:
                raise NameError_("empty label")
            if length > MAX_LABEL_LENGTH:
                raise NameError_("label too long: {!r}".format(label))
            total += length + 1
        if total > MAX_NAME_LENGTH:
            raise NameError_("name too long ({} octets)".format(total))

    @classmethod
    def _from_label_list(cls, labels: Iterable[str]) -> "DomainName":
        """Fast constructor for the wire decoder (labels already str)."""
        lowered = tuple(map(str.lower, labels))
        cls._validate(lowered)
        self = object.__new__(cls)
        object.__setattr__(self, "labels", lowered)
        return self

    # -- structure ------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "DomainName":
        """The name with the leftmost label removed."""
        if self.is_root:
            raise NameError_("the root has no parent")
        return DomainName(self.labels[1:])

    def child(self, label: str) -> "DomainName":
        """Prepend *label*."""
        return DomainName((label.lower(),) + self.labels)

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True when *self* is *other* or lies beneath it."""
        if len(other.labels) > len(self.labels):
            return False
        if not other.labels:
            return True
        return self.labels[-len(other.labels):] == other.labels

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_root:
            return "."
        return ".".join(self.labels)

    def __repr__(self) -> str:
        return "DomainName({!r})".format(str(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = DomainName(other)
            except NameError_:
                return NotImplemented
        if isinstance(other, DomainName):
            return self.labels == other.labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.labels)

    def __len__(self) -> int:
        return len(self.labels)
