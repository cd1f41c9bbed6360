"""HTTP/1.1 message model with real serialisation and parsing.

Requests and responses round-trip through actual HTTP/1.1 bytes so the
simulated wire carries authentic sizes, and so header-dependent logic
(the BrightData ``X-luminati-*`` timing headers, DoH content types) is
exercised against a real parser rather than dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

__all__ = ["HeaderBag", "HttpError", "HttpRequest", "HttpResponse", "Status"]

_CRLF = "\r\n"


class HttpError(ValueError):
    """Malformed HTTP data."""


class Status:
    """Status codes the reproduction uses."""

    OK = 200
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    REQUEST_TIMEOUT = 408
    BAD_GATEWAY = 502
    GATEWAY_TIMEOUT = 504

    REASONS = {
        200: "OK",
        400: "Bad Request",
        403: "Forbidden",
        404: "Not Found",
        408: "Request Timeout",
        502: "Bad Gateway",
        504: "Gateway Timeout",
    }

    @classmethod
    def reason(cls, code: int) -> str:
        return cls.REASONS.get(code, "Unknown")


class HeaderBag:
    """Case-insensitive, order-preserving header collection.

    The bag carries a mutation counter (``_version``) so message-level
    wire caches can detect header changes without comparing contents.
    """

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        #: Lowercased names, parallel to ``_items`` — lookups scan this
        #: with C-level ``in``/``index`` instead of lowering every
        #: stored name per probe.
        self._lower: List[str] = []
        self._version = 0
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header (CRLF injection rejected)."""
        if "\r" in name or "\n" in name or "\r" in value or "\n" in value:
            raise HttpError("CRLF in header")
        self._items.append((name, str(value)))
        self._lower.append(name.lower())
        self._version += 1

    def set(self, name: str, value: str) -> None:
        """Replace all values of *name* with one."""
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of *name*, or *default*."""
        lowered = name.lower()
        lower = self._lower
        if lowered in lower:
            return self._items[lower.index(lowered)][1]
        return default

    def remove(self, name: str) -> None:
        """Drop all values of *name*.

        Removing an absent name leaves the bag's mutation counter
        untouched: the contents are unchanged, so wire caches keyed on
        the version stay valid.
        """
        lowered = name.lower()
        lower = self._lower
        if lowered not in lower:
            return
        items = self._items
        keep = [index for index, low in enumerate(lower) if low != lowered]
        self._items = [items[index] for index in keep]
        self._lower = [lower[index] for index in keep]
        self._version += 1

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._lower

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "HeaderBag":
        """An independent copy of the bag."""
        bag = HeaderBag()
        bag._items = list(self._items)
        bag._lower = list(self._lower)
        return bag

    def serialize(self) -> str:
        """The header block as CRLF-terminated lines."""
        return "".join(
            "{}: {}{}".format(name, value, _CRLF) for name, value in self._items
        )

    @classmethod
    def parse(cls, lines: List[str]) -> "HeaderBag":
        bag = cls()
        for line in lines:
            if ":" not in line:
                raise HttpError("malformed header line: {!r}".format(line))
            name, _, value = line.partition(":")
            bag.add(name.strip(), value.strip())
        return bag


@dataclass
class HttpRequest:
    """An HTTP/1.1 request."""

    method: str
    target: str
    headers: HeaderBag = field(default_factory=HeaderBag)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        if self.body and "content-length" not in self.headers:
            self.headers.set("Content-Length", str(len(self.body)))
        self._cache: Optional[tuple] = None

    @property
    def host(self) -> Optional[str]:
        return self.headers.get("Host")

    def to_bytes(self) -> bytes:
        """Serialise to HTTP/1.1 wire bytes.

        Serialisation is cached and reused until the message mutates:
        header edits bump the bag's version counter, and rebinding any
        field replaces the object identity the cache key pins.
        """
        cache = self._cache
        headers = self.headers
        if (
            cache is not None
            and cache[0] is headers
            and cache[1] == headers._version
            and cache[2] is self.body
            and cache[3] is self.method
            and cache[4] is self.target
            and cache[5] is self.version
        ):
            return cache[6]
        start = "{} {} {}{}".format(self.method, self.target, self.version, _CRLF)
        wire = (start + headers.serialize() + _CRLF).encode() + self.body
        self._cache = (
            headers, headers._version, self.body,
            self.method, self.target, self.version, wire,
        )
        return wire

    def wire_size(self) -> int:
        """Serialised size in bytes (what the fabric charges).

        Reuses the cached serialisation, so accounting a message's size
        and then transmitting it encodes the bytes only once.
        """
        return len(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HttpRequest":
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode(errors="replace").split(_CRLF)
        if not lines or not lines[0]:
            raise HttpError("empty request")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise HttpError("malformed request line: {!r}".format(lines[0]))
        method, target, version = parts
        headers = HeaderBag.parse([line for line in lines[1:] if line])
        return cls(
            method=method,
            target=target,
            headers=headers,
            body=body,
            version=version,
        )


@dataclass
class HttpResponse:
    """An HTTP/1.1 response."""

    status: int
    headers: HeaderBag = field(default_factory=HeaderBag)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        if self.body and "content-length" not in self.headers:
            self.headers.set("Content-Length", str(len(self.body)))
        self._cache: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def to_bytes(self) -> bytes:
        """Serialise to HTTP/1.1 wire bytes.

        Cached until the message mutates — see
        :meth:`HttpRequest.to_bytes` for the invalidation rules.
        """
        cache = self._cache
        headers = self.headers
        if (
            cache is not None
            and cache[0] is headers
            and cache[1] == headers._version
            and cache[2] is self.body
            and cache[3] == self.status
            and cache[4] is self.version
        ):
            return cache[5]
        start = "{} {} {}{}".format(
            self.version, self.status, Status.reason(self.status), _CRLF
        )
        wire = (start + headers.serialize() + _CRLF).encode() + self.body
        self._cache = (
            headers, headers._version, self.body, self.status, self.version, wire,
        )
        return wire

    def wire_size(self) -> int:
        """Serialised size in bytes (what the fabric charges).

        Reuses the cached serialisation, so accounting a message's size
        and then transmitting it encodes the bytes only once.
        """
        return len(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HttpResponse":
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode(errors="replace").split(_CRLF)
        if not lines or not lines[0]:
            raise HttpError("empty response")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2:
            raise HttpError("malformed status line: {!r}".format(lines[0]))
        version = parts[0]
        try:
            status = int(parts[1])
        except ValueError:
            raise HttpError("bad status code: {!r}".format(parts[1])) from None
        headers = HeaderBag.parse([line for line in lines[1:] if line])
        return cls(status=status, headers=headers, body=body, version=version)
