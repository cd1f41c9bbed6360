"""DoH client: query over a stream, or full direct resolution.

Two entry points:

* :func:`doh_query_on_stream` — one RFC 8484 GET over an
  already-established TLS stream.  The measurement client uses this
  through the BrightData tunnel.
* :func:`resolve_direct` — a complete DoH resolution performed *at* a
  host: resolve the provider's domain with the local stub, TCP
  handshake, TLS handshake, then the query.  This is what a real
  DoH-enabled client does, and it is the paper's ground truth (§4.1):
  the returned timing decomposes exactly into the terms of Equation 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dns.message import Message
from repro.dns.name import DomainName
from repro.dns.records import RRType
from repro.dns.stub import StubResolver
from repro.doh.wire import (
    encode_get_request,
    encode_post_request,
    extract_message_from_response,
)
from repro.http.client import request_over
from repro.netsim.host import Host
from repro.tls.handshake import TlsVersion, client_handshake
from repro.tls.session import TlsConnection

__all__ = [
    "DirectDohTiming",
    "DohSession",
    "doh_query_on_stream",
    "resolve_direct",
]

DOH_PORT = 443


def doh_query_on_stream(
    stream,
    domain: str,
    qname: str,
    qtype: int = RRType.A,
    timeout_ms: Optional[float] = None,
    method: str = "GET",
):
    """One DoH exchange on an established stream; generator → (Message, ms).

    The DNS message ID is 0 per RFC 8484 §4.1.  *method* selects the
    RFC 8484 GET (default, what the paper measures) or POST encoding.
    """
    sim = stream.host.network.sim
    query = Message.query(0, DomainName(qname), qtype, rd=True)
    if method == "GET":
        request = encode_get_request(query, host=domain)
    elif method == "POST":
        request = encode_post_request(query, host=domain)
    else:
        raise ValueError("DoH method must be GET or POST")
    started = sim.now
    response = yield from request_over(stream, request, timeout_ms=timeout_ms)
    answer = extract_message_from_response(response)
    return answer, sim.now - started


@dataclass
class DohSession:
    """An established DoH session available for connection reuse."""

    host: Host
    domain: str
    stream: TlsConnection

    def query(self, qname: str, qtype: int = RRType.A,
              timeout_ms: Optional[float] = None):
        """Reused-connection query; generator → (Message, elapsed_ms)."""
        result = yield from doh_query_on_stream(
            self.stream, self.domain, qname, qtype, timeout_ms=timeout_ms
        )
        return result

    @property
    def ticket(self):
        """The TLS session ticket for later resumption (may be None)."""
        return self.stream.ticket

    def close(self) -> None:
        """Tear down the TLS session and connection."""
        self.stream.close()


@dataclass(frozen=True)
class DirectDohTiming:
    """Ground-truth decomposition of one direct DoH resolution.

    Matches Equation 1 of the paper:
    ``total = dns + tcp + tls + query`` where

    * ``dns_ms``   = t3+t4  (resolving the DoH server's own name),
    * ``tcp_ms``   = t5+t6  (TCP handshake to the PoP),
    * ``tls_ms``   = t11+t12 (TLS 1.3 single round trip),
    * ``query_ms`` = t17+t18+t19+t20 (HTTP GET through to the answer).
    """

    dns_ms: float
    tcp_ms: float
    tls_ms: float
    query_ms: float

    @property
    def total_ms(self) -> float:
        """First-query DoH time (the paper's t_DoH)."""
        return self.dns_ms + self.tcp_ms + self.tls_ms + self.query_ms



def resolve_direct(
    host: Host,
    stub: StubResolver,
    domain: str,
    qname: str,
    qtype: int = RRType.A,
    tls_version: str = TlsVersion.TLS13,
    crypto_ms: float = 0.6,
    service_ip: Optional[str] = None,
    session_ticket=None,
):
    """Full DoH resolution at *host*; generator → (timing, answer, session).

    *service_ip* short-circuits the provider-domain lookup (used when
    the caller already knows the VIP); otherwise the host's *stub*
    resolver is asked, exactly as an OS would.

    *session_ticket* (from a previous session's :attr:`DohSession.ticket`)
    attempts TLS 1.3 PSK resumption — a fresh connection that skips the
    certificate exchange.  This is an extension beyond the paper, which
    only models full handshakes and same-connection reuse.

    The returned :class:`DohSession` can issue further queries on the
    same TLS connection, which is the ground-truth measurement for the
    paper's t_DoHR (§3.4/§4.1).
    """
    sim = host.network.sim

    # (t3+t4): resolve the DoH server's name with the local configuration.
    t0 = sim.now
    if service_ip is None:
        stub_answer = yield from stub.query(domain, RRType.A)
        addresses = stub_answer.addresses
        if not addresses:
            raise RuntimeError("no A records for {}".format(domain))
        service_ip = addresses[0]
    dns_ms = sim.now - t0

    # (t5+t6): TCP handshake with the (anycast-routed) DoH front end.
    t1 = sim.now
    conn = yield from host.open_tcp(service_ip, DOH_PORT)
    tcp_ms = sim.now - t1

    # (t11+t12): TLS handshake — one round trip under TLS 1.3.
    t2 = sim.now
    handshake = yield from client_handshake(
        conn, sni=domain, version=tls_version, crypto_ms=crypto_ms,
        ticket=session_ticket,
    )
    tls_ms = sim.now - t2
    stream = TlsConnection(conn, handshake, is_client=True)

    # (t17..t20): the query itself (client Finished rides the GET).
    t3 = sim.now
    answer, _elapsed = yield from doh_query_on_stream(
        stream, domain, qname, qtype
    )
    query_ms = sim.now - t3

    timing = DirectDohTiming(
        dns_ms=dns_ms, tcp_ms=tcp_ms, tls_ms=tls_ms, query_ms=query_ms
    )
    session = DohSession(host=host, domain=domain, stream=stream)
    return timing, answer, session
