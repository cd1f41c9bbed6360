"""TLS handshake state machines over simulated TCP.

Handshakes exchange typed flight messages with realistic wire sizes:

* TLS 1.3 (RFC 8446): ClientHello → (ServerHello..Finished) → client
  Finished.  The client's Finished may ride with the first application
  record, so the handshake costs exactly **one** round trip before data
  flows — the property Equation 1 of the paper depends on.
* TLS 1.2 (RFC 5246): two full round trips before application data.
* Session-ticket resumption (TLS 1.3 PSK): the server flight shrinks
  (no certificate chain) and the client may attach 0-RTT early data.

Cryptographic computation is modelled as configurable processing time;
no actual cryptography is performed (the measurements are about
timing, not confidentiality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.netsim.sockets import TcpConnection

__all__ = [
    "TlsError",
    "TlsVersion",
    "HandshakeResult",
    "client_handshake",
    "server_handshake",
    "CLIENT_HELLO_BYTES",
    "SERVER_FLIGHT_BYTES",
    "SERVER_FLIGHT_RESUMED_BYTES",
    "CLIENT_FINISHED_BYTES",
]


class TlsError(Exception):
    """Handshake failure (version mismatch, unexpected message...)."""


class TlsVersion:
    """Supported protocol versions."""

    TLS12 = "TLSv1.2"
    TLS13 = "TLSv1.3"

    ALL = (TLS12, TLS13)


# Realistic flight sizes (bytes on the wire, certificate chain included).
CLIENT_HELLO_BYTES = 330
SERVER_FLIGHT_BYTES = 2950  # ServerHello + cert chain + Finished
SERVER_FLIGHT_RESUMED_BYTES = 280  # PSK: no certificate chain
CLIENT_FINISHED_BYTES = 80
CLIENT_KEX_BYTES = 180  # TLS 1.2 ClientKeyExchange+CCS+Finished
SERVER_FINISHED_BYTES = 75  # TLS 1.2 CCS+Finished
TICKET_BYTES = 220

#: Server first-flight sizes, precomputed once per ``(version, resumed,
#: ticket issued)`` instead of being re-derived inside every simulated
#: handshake — a campaign performs one full handshake per (node,
#: provider, run) session.
_SERVER_FLIGHT_TABLE = {
    (version, resumed, with_ticket): (
        (SERVER_FLIGHT_RESUMED_BYTES if resumed else SERVER_FLIGHT_BYTES)
        + (TICKET_BYTES if with_ticket else 0)
    )
    for version in TlsVersion.ALL
    for resumed in (False, True)
    for with_ticket in (False, True)
}


@dataclass(frozen=True)
class _Flight:
    """One handshake flight on the wire."""

    kind: str
    version: str
    sni: str = ""
    ticket: Optional["object"] = None
    early_data: Any = None
    early_data_bytes: int = 0


@dataclass(frozen=True)
class HandshakeResult:
    """What a completed handshake established."""

    version: str
    resumed: bool
    handshake_ms: float
    #: Ticket issued by the server for later resumption (client side).
    ticket: Optional["object"] = None
    #: Early data carried by a resumed client (server side).
    early_data: Any = None


def client_handshake(
    conn: TcpConnection,
    sni: str,
    version: str = TlsVersion.TLS13,
    crypto_ms: float = 0.8,
    ticket: Optional["object"] = None,
    early_data: Any = None,
    early_data_bytes: int = 0,
):
    """Run the client side of a handshake; generator → HandshakeResult.

    With a *ticket*, attempts TLS 1.3 PSK resumption; *early_data* (if
    provided) rides the ClientHello as 0-RTT data.
    """
    if version not in TlsVersion.ALL:
        raise TlsError("unsupported version {!r}".format(version))
    if ticket is not None and version != TlsVersion.TLS13:
        raise TlsError("session tickets require TLS 1.3")
    sim = conn.host.network.sim
    started = sim.now

    hello = _Flight(
        kind="client_hello",
        version=version,
        sni=sni,
        ticket=ticket,
        early_data=early_data,
        early_data_bytes=early_data_bytes,
    )
    conn.send(hello, CLIENT_HELLO_BYTES + early_data_bytes)

    flight = yield conn.recv()
    if not isinstance(flight, _Flight) or flight.kind != "server_flight":
        raise TlsError("expected server flight, got {!r}".format(flight))
    if flight.version != version:
        raise TlsError(
            "version mismatch: offered {}, server chose {}".format(
                version, flight.version
            )
        )
    if crypto_ms > 0:
        yield conn.host.busy(crypto_ms)

    if version == TlsVersion.TLS12:
        # Second round trip: ClientKeyExchange/Finished → server Finished.
        conn.send(_Flight(kind="client_kex", version=version), CLIENT_KEX_BYTES)
        finished = yield conn.recv()
        if not isinstance(finished, _Flight) or finished.kind != "server_finished":
            raise TlsError("expected server Finished")
        return HandshakeResult(
            version=version,
            resumed=False,
            handshake_ms=sim.now - started,
            ticket=flight.ticket,
        )

    # TLS 1.3: handshake complete; client Finished rides the next
    # application record (the session layer accounts its bytes there).
    return HandshakeResult(
        version=version,
        resumed=ticket is not None,
        handshake_ms=sim.now - started,
        ticket=flight.ticket,
    )


def server_handshake(
    conn: TcpConnection,
    crypto_ms: float = 1.2,
    issue_ticket: bool = True,
    supported_versions: Tuple[str, ...] = TlsVersion.ALL,
):
    """Run the server side of a handshake; generator → HandshakeResult."""
    sim = conn.host.network.sim
    started = sim.now
    hello = yield conn.recv()
    if not isinstance(hello, _Flight) or hello.kind != "client_hello":
        raise TlsError("expected ClientHello, got {!r}".format(hello))
    if hello.version not in supported_versions:
        raise TlsError("client offered unsupported {}".format(hello.version))
    if crypto_ms > 0:
        yield conn.host.busy(crypto_ms)

    resumed = hello.ticket is not None and hello.version == TlsVersion.TLS13
    ticket = _SessionTicketToken(sni=hello.sni) if issue_ticket else None
    flight_bytes = _SERVER_FLIGHT_TABLE[hello.version, resumed, ticket is not None]
    conn.send(
        _Flight(kind="server_flight", version=hello.version, ticket=ticket),
        flight_bytes,
    )

    if hello.version == TlsVersion.TLS12:
        kex = yield conn.recv()
        if not isinstance(kex, _Flight) or kex.kind != "client_kex":
            raise TlsError("expected ClientKeyExchange")
        conn.send(
            _Flight(kind="server_finished", version=hello.version),
            SERVER_FINISHED_BYTES,
        )

    return HandshakeResult(
        version=hello.version,
        resumed=resumed,
        handshake_ms=sim.now - started,
        ticket=ticket,
        early_data=hello.early_data if resumed else None,
    )


@dataclass(frozen=True)
class _SessionTicketToken:
    """Opaque resumption token issued by a server."""

    sni: str
