"""Maxmind mismatch filtering (§3.5).

BrightData's country labels are not always right.  The paper
geolocates each exit node's /24 with Maxmind and discards data points
whose Maxmind country disagrees with the BrightData label — 0.88% of
their collection.  The same filter lives here.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, TypeVar

from repro.geo.geolocate import GeolocationService

__all__ = ["filter_mismatched"]

T = TypeVar("T")


def filter_mismatched(
    records: Iterable[T],
    geolocation: GeolocationService,
) -> Tuple[List[T], List[T]]:
    """Split *records* into (kept, discarded) by country agreement.

    Records must expose ``exit_ip`` and ``claimed_country``.  Records
    with no usable address are kept (they are failures handled
    elsewhere).
    """
    kept: List[T] = []
    discarded: List[T] = []
    for record in records:
        address = getattr(record, "exit_ip", "")
        claimed = getattr(record, "claimed_country", "")
        if not address:
            kept.append(record)
            continue
        located = geolocation.lookup_country(address)
        if located is not None and located != claimed:
            discarded.append(record)
        else:
            kept.append(record)
    return kept, discarded

