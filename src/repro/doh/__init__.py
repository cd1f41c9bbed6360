"""DNS-over-HTTPS substrate: wire format, client, providers.

* :mod:`repro.doh.wire` — RFC 8484 encoding (GET with base64url ``dns``
  parameter, POST with ``application/dns-message``),
* :mod:`repro.doh.client` — the client side (query over an established
  TLS stream, or a complete direct resolution with timing breakdown),
* :mod:`repro.doh.pops` — per-provider PoP city tables matching the
  footprints the paper observed (Cloudflare 146, Google 26, NextDNS
  107, Quad9 152),
* :mod:`repro.doh.anycast` — the PoP-assignment model (with per-provider
  routing inefficiency),
* :mod:`repro.doh.provider` — provider deployments: PoP hosts running
  HTTPS front ends and recursive resolution backends.
"""

from repro.doh.wire import (
    DohWireError,
    decode_query_from_request,
    encode_get_request,
    encode_post_request,
    encode_response,
    extract_message_from_response,
)
from repro.doh.pops import PROVIDER_POPS
from repro.doh.anycast import AnycastPolicy, PopAssignment
from repro.doh.provider import (
    DohPop,
    DohProvider,
    ProviderConfig,
    PROVIDER_CONFIGS,
    build_provider,
)
from repro.doh.client import DirectDohTiming, doh_query_on_stream, resolve_direct

__all__ = [
    "AnycastPolicy",
    "DirectDohTiming",
    "DohPop",
    "DohProvider",
    "DohWireError",
    "PROVIDER_CONFIGS",
    "PROVIDER_POPS",
    "PopAssignment",
    "ProviderConfig",
    "build_provider",
    "decode_query_from_request",
    "doh_query_on_stream",
    "encode_get_request",
    "encode_post_request",
    "encode_response",
    "extract_message_from_response",
    "resolve_direct",
]
