"""Do53 timing extraction and validity (§3.3, §3.5).

The Do53 query time is simply the ``dns`` value of the Super Proxy's
``X-luminati-tun-timeline`` header for the fetch of
``http://<UUID>.a.com/`` — the exit node resolved the fresh name with
its default configuration, and the proxy reports how long that took.

The measurement is *invalid* when the exit node sits in one of the 11
countries hosting super-proxy servers: there BrightData resolves at
the super proxy regardless of configuration, so the header reflects
the wrong machine.  The paper fills those countries with RIPE Atlas
probes instead.
"""

from __future__ import annotations

from repro.core.timeline import Do53Raw
from repro.geo.countries import SUPER_PROXY_COUNTRIES

__all__ = ["do53_valid"]


def do53_valid(raw: Do53Raw) -> bool:
    """Whether this Do53 sample reflects the exit node's resolver."""
    if not raw.success:
        return False
    if raw.resolved_at != "exit":
        return False
    return raw.claimed_country not in SUPER_PROXY_COUNTRIES

