"""BrightData timing-header codec.

The Super Proxy annotates its responses with two headers the paper's
methodology consumes (§3.2):

* ``X-luminati-tun-timeline`` — timings measured **at the exit node**:
  the ``dns`` value is t3+t4 (the exit resolving the target name with
  its default configuration) and the ``connect`` value is t5+t6 (the
  exit's TCP handshake with the target).
* ``X-luminati-timeline`` — time spent **on BrightData boxes**: client
  authentication, Super Proxy initialisation, exit-node selection and
  initialisation, and target-domain validation.  Summing the values
  yields the paper's t_BrightData.

Values are encoded ``key:<float ms>`` joined by semicolons, e.g.
``dns:23.4;connect:41.0``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

__all__ = [
    "TIMELINE_HEADER",
    "TUN_TIMELINE_HEADER",
    "TimelineHeaders",
    "decode_timeline",
    "encode_timeline",
]

TUN_TIMELINE_HEADER = "X-luminati-tun-timeline"
TIMELINE_HEADER = "X-luminati-timeline"


def _validated_ms(key: str, value: float) -> float:
    """A timeline value must be a finite, non-negative duration.

    Equations 6–8 silently absorb whatever number appears here — a NaN
    would propagate into every derived t_DoH and poison aggregate
    statistics downstream, so both codec directions reject it at the
    boundary.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(
            "non-finite timeline value for {!r}: {!r}".format(key, value)
        )
    if value < 0.0:
        raise ValueError(
            "negative timeline value for {!r}: {!r}".format(key, value)
        )
    return value


def encode_timeline(values: Mapping[str, float]) -> str:
    """Encode ``{key: milliseconds}`` into the header wire format."""
    parts: List[str] = []
    for key, value in values.items():
        if ";" in key or ":" in key:
            raise ValueError("illegal character in timeline key {!r}".format(key))
        parts.append("{}:{:.2f}".format(key, _validated_ms(key, value)))
    return ";".join(parts)


def decode_timeline(text: str) -> Dict[str, float]:
    """Decode the header wire format back into ``{key: milliseconds}``."""
    values: Dict[str, float] = {}
    if not text:
        return values
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition(":")
        if not sep:
            raise ValueError("malformed timeline element {!r}".format(part))
        key = key.strip()
        values[key] = _validated_ms(key, float(raw))
    return values


class TimelineHeaders:
    """Typed view over the two BrightData timing headers."""

    __slots__ = ("tun", "box")

    def __init__(
        self,
        tun: Mapping[str, float],
        box: Mapping[str, float],
    ) -> None:
        self.tun = dict(tun)
        self.box = dict(box)

    # -- the quantities Equations 6-8 need ------------------------------

    @property
    def dns_ms(self) -> float:
        """t3+t4: target-name resolution at the exit node."""
        return self.tun.get("dns", 0.0)

    @property
    def connect_ms(self) -> float:
        """t5+t6: the exit node's TCP handshake with the target."""
        return self.tun.get("connect", 0.0)

    @property
    def brightdata_ms(self) -> float:
        """t_BrightData: total processing on BrightData boxes."""
        return sum(self.box.values())

    # -- HTTP mapping ---------------------------------------------------

    def apply(self, headers) -> None:
        """Write both headers onto a :class:`HeaderBag`."""
        headers.set(TUN_TIMELINE_HEADER, encode_timeline(self.tun))
        headers.set(TIMELINE_HEADER, encode_timeline(self.box))

    @classmethod
    def from_headers(cls, headers) -> "TimelineHeaders":
        """Parse both headers from a :class:`HeaderBag`."""
        return cls(
            tun=decode_timeline(headers.get(TUN_TIMELINE_HEADER, "") or ""),
            box=decode_timeline(headers.get(TIMELINE_HEADER, "") or ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "TimelineHeaders(tun={!r}, box={!r})".format(self.tun, self.box)

    def __eq__(self, other) -> bool:
        """Value equality, so raw records round-tripped through a
        checkpoint compare equal to the originals."""
        if not isinstance(other, TimelineHeaders):
            return NotImplemented
        return self.tun == other.tun and self.box == other.box

    def __hash__(self) -> int:
        return hash((
            tuple(sorted(self.tun.items())),
            tuple(sorted(self.box.items())),
        ))
