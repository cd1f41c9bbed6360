"""A BIND-like authoritative name server.

Serves one or more zones over UDP and TCP port 53 on a simulated host.
The paper's setup (Figure 1) runs BIND9 for ``a.com`` with a wildcard;
the same class also powers the simulated root and ``com`` TLD servers
the recursive resolvers iterate through.

Protocol behaviour covered:

* EDNS(0): the requestor's advertised UDP payload size governs
  truncation; responses echo an OPT record;
* TC-bit truncation and the TCP fallback (RFC 1035 §4.2.2 framing);
* a query log (timestamp, source, qname, and — per the paper's ethics
  appendix — the *presence* of an EDNS Client-Subnet option, recorded
  as an opaque prefix and never inspected by the analysis code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.dns.edns import DEFAULT_UDP_PAYLOAD, attach_edns, parse_edns
from repro.dns.message import Message, Rcode
from repro.dns.name import DomainName
from repro.dns.tcp import (
    TcpFramingError,
    frame_tcp_message,
    unframe_tcp_message,
)
from repro.dns.zone import Zone
from repro.netsim.host import Host
from repro.netsim.sockets import ConnectionClosed, Datagram, TcpConnection

__all__ = ["AuthoritativeServer", "QueryLogEntry"]

DNS_PORT = 53
_MIN_UDP_PAYLOAD = 512


@dataclass(frozen=True)
class QueryLogEntry:
    """One query as observed by the authoritative server."""

    time_ms: float
    src_ip: str
    qname: DomainName
    qtype: int
    transport: str = "udp"
    #: Opaque ECS prefix if the query carried one (never analysed —
    #: the paper's ethics appendix explicitly avoids inspecting it).
    ecs_prefix: Optional[str] = None


class AuthoritativeServer:
    """Authoritative-only DNS server for a set of zones."""

    def __init__(
        self,
        host: Host,
        zones: Iterable[Zone],
        processing_ms: float = 1.0,
        port: int = DNS_PORT,
        keep_query_log: bool = True,
    ) -> None:
        self.host = host
        self.zones: List[Zone] = list(zones)
        self.processing_ms = processing_ms
        self.port = port
        self.keep_query_log = keep_query_log
        self.query_log: List[QueryLogEntry] = []
        self.queries_served = 0
        self.truncated_responses = 0
        self._socket = None
        self._listener = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind UDP and TCP sockets and start the service loops."""
        if self._socket is not None:
            raise RuntimeError("server already started")
        self._socket = self.host.udp_socket(self.port)
        self._listener = self.host.listen_tcp(self.port, self._serve_tcp)
        self.host.network.sim.spawn(
            self._serve_udp(), name="auth-dns-{}".format(self.host.ip)
        )

    def stop(self) -> None:
        """Close the sockets and stop serving."""
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- bookkeeping --------------------------------------------------------

    def _log(self, query: Message, src_ip: str, transport: str) -> None:
        self.queries_served += 1
        if not self.keep_query_log:
            return
        edns = parse_edns(query)
        ecs_prefix = None
        if edns is not None and edns.client_subnet is not None:
            ecs_prefix = edns.client_subnet.prefix_text
        self.query_log.append(
            QueryLogEntry(
                time_ms=self.host.network.sim.now,
                src_ip=src_ip,
                qname=query.question.name,
                qtype=query.question.qtype,
                transport=transport,
                ecs_prefix=ecs_prefix,
            )
        )

    # -- UDP service loop ----------------------------------------------------

    def _serve_udp(self):
        while self._socket is not None and not self._socket.closed:
            try:
                datagram: Datagram = yield self._socket.recv()
            except OSError:
                return
            self.host.network.sim.spawn(
                self._handle_udp(datagram),
                name="auth-dns-query-{}".format(self.host.ip),
            )

    def _handle_udp(self, datagram: Datagram):
        try:
            query = Message.from_wire(datagram.payload)
        except Exception:
            return  # drop garbage, as real servers do for unparsable input
        if query.header.flags.qr or not query.questions:
            return
        if self.processing_ms > 0:
            yield self.host.busy(self.processing_ms)
        self._log(query, datagram.src_ip, "udp")
        edns = parse_edns(query)
        limit = edns.udp_payload_size if edns else _MIN_UDP_PAYLOAD
        response = self.answer(query)
        if edns is not None:
            response = attach_edns(response, DEFAULT_UDP_PAYLOAD)
        wire = response.to_wire()
        if len(wire) > limit:
            response = self._truncate(query, edns is not None)
            wire = response.to_wire()
            self.truncated_responses += 1
        reply_socket = self._socket
        if reply_socket is None or reply_socket.closed:
            return
        reply_socket.sendto(wire, len(wire), datagram.src_ip, datagram.src_port)

    def _truncate(self, query: Message, echo_edns: bool) -> Message:
        """A TC=1 response telling the client to retry over TCP."""
        from dataclasses import replace

        response = query.respond(Rcode.NOERROR, aa=True)
        response = Message(
            header=replace(
                response.header,
                flags=replace(response.header.flags, tc=True),
            ),
            questions=response.questions,
        )
        if echo_edns:
            response = attach_edns(response, DEFAULT_UDP_PAYLOAD)
        return response

    # -- TCP service -------------------------------------------------------

    def _serve_tcp(self, conn: TcpConnection):
        while True:
            try:
                payload = yield conn.recv()
            except ConnectionClosed:
                return
            if not isinstance(payload, (bytes, bytearray)):
                conn.close()
                return
            try:
                query, _rest = unframe_tcp_message(bytes(payload))
            except TcpFramingError:
                conn.close()
                return
            if query.header.flags.qr or not query.questions:
                continue
            if self.processing_ms > 0:
                yield self.host.busy(self.processing_ms)
            self._log(query, conn.remote_ip, "tcp")
            response = self.answer(query)
            if parse_edns(query) is not None:
                response = attach_edns(response, DEFAULT_UDP_PAYLOAD)
            framed = frame_tcp_message(response)
            try:
                conn.send(framed, len(framed))
            except ConnectionClosed:
                return

    # -- resolution ------------------------------------------------------

    def _zone_for(self, name: DomainName) -> Optional[Zone]:
        best: Optional[Zone] = None
        for zone in self.zones:
            if name.is_subdomain_of(zone.origin):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    def answer(self, query: Message) -> Message:
        """Build the authoritative response for *query*."""
        question = query.question
        zone = self._zone_for(question.name)
        if zone is None:
            return query.respond(Rcode.REFUSED)
        result = zone.lookup(question.name, question.qtype)
        if result.is_answer:
            return query.respond(Rcode.NOERROR, answers=result.answers, aa=True)
        if result.is_delegation:
            return query.respond(
                Rcode.NOERROR,
                authority=result.delegation,
                additional=result.glue,
                aa=False,
            )
        rcode = Rcode.NXDOMAIN if result.nxdomain else Rcode.NOERROR
        authority = (result.soa,) if result.soa is not None else ()
        return query.respond(rcode, authority=authority, aa=True)
