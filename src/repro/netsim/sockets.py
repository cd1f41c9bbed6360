"""UDP and TCP socket primitives over the network fabric.

These are *message-granular* sockets: each :meth:`send` carries one
application message with an explicit wire size, and the fabric samples
a fresh one-way delay for it.  That granularity matches how the paper
reasons about its 22-step timeline (Figure 2): every arrow in that
figure is one message here.

TCP connections perform a real three-way handshake (SYN, SYN-ACK, then
data riding the ACK), record the handshake duration the way the
BrightData exit node reports it, and preserve in-order reliable
delivery with loss converted to retransmission delay.

A connection pair holds no reference cycle: each endpoint holds its
peer's mailbox, never the peer endpoint, so reference counting frees
the pair as soon as the processes using it finish.  A campaign opens
tens of thousands of connections per batch and measures with the
cyclic collector paused, so this bounds a batch's memory by its live
connections rather than by every connection it opened.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.netsim.engine import Event
from repro.netsim.host import Host

__all__ = [
    "ConnectionClosed",
    "ConnectionRefused",
    "Datagram",
    "ListenerClosed",
    "SocketTimeout",
    "TcpConnection",
    "TcpListener",
    "UdpSocket",
    "open_tcp",
]

_SYN_BYTES = 60
_ACK_BYTES = 52
_FIN_BYTES = 52

_channel_counter = itertools.count(1)


class SocketTimeout(Exception):
    """A blocking receive exceeded its deadline."""


class ConnectionRefused(Exception):
    """No listener at the destination port."""


class ConnectionClosed(Exception):
    """The peer closed the connection and the inbox is drained."""


class ListenerClosed(Exception):
    """The listener was closed."""


@dataclass(frozen=True, slots=True)
class Datagram:
    """One UDP datagram as seen by the receiver."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    payload: Any
    nbytes: int


def _socket_closed() -> Exception:
    return OSError("socket closed")


def _peer_closed() -> Exception:
    return ConnectionClosed("peer closed connection")


def _conn_closed() -> Exception:
    return ConnectionClosed("connection closed")


class _Mailbox:
    """FIFO inbox shared by UDP sockets and TCP connection endpoints.

    Receives are the per-message hot path, so the mailbox triggers
    waiter events directly (skipping the ``succeed`` wrapper) and
    supports unwrapping ``(payload, nbytes)`` items at delivery time —
    sparing :meth:`TcpConnection.recv` a relay event per message.

    ``closed`` means no more items will arrive (receives on an empty
    queue fail); ``owner_closed`` is the one record of whether the TCP
    endpoint owning the mailbox has closed, the only fact about an
    endpoint its peer reads.  Each FIFO holds a few items at most, so
    plain lists beat deques on memory.
    """

    __slots__ = ("_host", "_queue", "_waiters", "closed", "owner_closed")

    def __init__(self, host: Host) -> None:
        self._host = host
        self._queue: List[Any] = []
        #: Waiting ``(event, unwrap)`` pairs, FIFO.
        self._waiters: List[Tuple[Event, bool]] = []
        self.closed = False
        self.owner_closed = False

    def push(self, item: Any) -> None:
        waiters = self._waiters
        while waiters:
            waiter, unwrap = waiters.pop(0)
            if not waiter.triggered:
                waiter._trigger(True, item[0] if unwrap else item, None)
                return
        self._queue.append(item)

    def close(self, exc_factory: Callable[[], Exception]) -> None:
        self.closed = True
        while self._waiters:
            waiter, _unwrap = self._waiters.pop(0)
            if not waiter.triggered:
                waiter.fail(exc_factory())

    def pop(self, timeout_ms: Optional[float],
            exc_factory: Callable[[], Exception],
            unwrap: bool = False) -> Event:
        sim = self._host.network.sim
        event = Event(sim)
        if self._queue:
            item = self._queue.pop(0)
            # Inline an immediate success: the event is brand new, so
            # there are no callbacks to run and no double-trigger risk.
            event.triggered = True
            event.ok = True
            event.value = item[0] if unwrap else item
            return event
        if self.closed:
            event.fail(exc_factory())
            return event
        self._waiters.append((event, unwrap))
        if timeout_ms is not None:

            def expire() -> None:
                if not event.triggered:
                    event.fail(SocketTimeout(
                        "no data within {:.1f}ms".format(timeout_ms)))

            sim.schedule(timeout_ms, expire)
        return event


class UdpSocket:
    """An unreliable datagram socket bound to (host, port)."""

    __slots__ = ("host", "port", "_mailbox", "closed")

    def __init__(self, host: Host, port: int) -> None:
        key = (host.ip, port)
        table = host.network.udp_ports
        if key in table:
            raise OSError("UDP port {} already bound on {}".format(port, host.ip))
        table[key] = self
        self.host = host
        self.port = port
        self._mailbox = _Mailbox(host)
        self.closed = False

    def sendto(self, payload: Any, nbytes: int, dst_ip: str, dst_port: int) -> None:
        """Send one datagram; silently dropped on loss or closed port."""
        if self.closed:
            raise OSError("socket is closed")
        network = self.host.network
        dst_ip = network.resolve_destination(self.host, dst_ip)
        datagram = Datagram(
            src_ip=self.host.ip,
            src_port=self.port,
            dst_ip=dst_ip,
            dst_port=dst_port,
            payload=payload,
            nbytes=nbytes,
        )

        def deliver() -> None:
            sock = network.udp_ports.get((dst_ip, dst_port))
            if isinstance(sock, UdpSocket) and not sock.closed:
                sock._mailbox.push(datagram)

        network.transmit(
            self.host, dst_ip, nbytes, deliver, channel=0, reliable=False
        )

    def recv(self, timeout_ms: Optional[float] = None) -> Event:
        """Event yielding the next :class:`Datagram`.

        Fails with :class:`SocketTimeout` if *timeout_ms* elapses first.
        """
        return self._mailbox.pop(timeout_ms, _socket_closed)

    def close(self) -> None:
        """Close this endpoint (pending receives fail)."""
        if not self.closed:
            self.closed = True
            self.host.network.udp_ports.pop((self.host.ip, self.port), None)
            self._mailbox.close(_socket_closed)


class TcpConnection:
    """One endpoint of an established, reliable, in-order byte channel."""

    __slots__ = (
        "host", "local_port", "remote_ip", "remote_port", "channel",
        "handshake_ms", "bytes_sent", "_mailbox", "_peer_box", "_outbox",
    )

    def __init__(
        self,
        host: Host,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        channel: int,
    ) -> None:
        self.host = host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.channel = channel
        #: Client-side measured SYN→SYN-ACK duration, ms (None on server).
        self.handshake_ms: Optional[float] = None
        #: Total application bytes sent (accounting/tests).
        self.bytes_sent = 0
        self._mailbox = _Mailbox(host)
        #: The peer endpoint's mailbox, linked at the handshake: data
        #: and the FIN are delivered into it, and holding it rather than
        #: the peer keeps the pair free of reference cycles.
        self._peer_box: Optional[_Mailbox] = None
        #: In-flight ``(payload, nbytes)`` items, drained in FIFO order
        #: by :meth:`_deliver_next` (the fabric preserves per-channel
        #: ordering, so index bookkeeping is unnecessary).
        self._outbox: List[Tuple[Any, int]] = []

    @property
    def closed(self) -> bool:
        """True once this endpoint has closed."""
        return self._mailbox.owner_closed

    # -- data path ---------------------------------------------------------

    def send(self, payload: Any, nbytes: int) -> None:
        """Queue one application message for reliable in-order delivery."""
        if self._mailbox.owner_closed:
            raise ConnectionClosed("send on closed connection")
        if self._peer_box is None:
            raise ConnectionClosed("connection not established")
        self.bytes_sent += nbytes
        # The bound delivery method replaces a per-send closure; the
        # outbox supplies the message because per-channel FIFO delivery
        # means arrivals drain it in send order.
        self._outbox.append((payload, nbytes))
        self.host.network.transmit(
            self.host,
            self.remote_ip,
            nbytes + _ACK_BYTES,
            self._deliver_next,
            channel=self.channel,
            reliable=True,
        )

    def _deliver_next(self) -> None:
        item = self._outbox.pop(0)
        peer_box = self._peer_box
        if not peer_box.owner_closed:
            peer_box.push(item)

    def recv(self, timeout_ms: Optional[float] = None) -> Event:
        """Event yielding the next message payload.

        Fails with :class:`ConnectionClosed` once the peer has closed
        and all in-flight data has been drained, or with
        :class:`SocketTimeout` on deadline expiry.  The mailbox unwraps
        the ``(payload, nbytes)`` item at delivery time, so no relay
        event is allocated per message.
        """
        return self._mailbox.pop(timeout_ms, _peer_closed, unwrap=True)

    def recv_sized(self, timeout_ms: Optional[float] = None) -> Event:
        """Like :meth:`recv` but yields ``(payload, nbytes)``.

        Tunnel relays need the original wire size to recharge the next
        leg correctly.
        """
        return self._mailbox.pop(timeout_ms, _peer_closed)

    def close(self) -> None:
        """Close this endpoint and notify the peer (FIN)."""
        mailbox = self._mailbox
        if mailbox.owner_closed:
            return
        mailbox.owner_closed = True
        mailbox.close(_conn_closed)
        peer_box = self._peer_box
        if peer_box is None or peer_box.owner_closed:
            return

        def deliver_fin() -> None:
            if not peer_box.owner_closed:
                peer_box.close(_peer_closed)

        self.host.network.transmit(
            self.host,
            self.remote_ip,
            _FIN_BYTES,
            deliver_fin,
            channel=self.channel,
            reliable=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<TcpConnection {}:{} -> {}:{}>".format(
            self.host.ip, self.local_port, self.remote_ip, self.remote_port
        )


class TcpListener:
    """A passive TCP endpoint that spawns a handler per connection."""

    __slots__ = ("host", "port", "handler", "closed", "_handler_name")

    def __init__(self, host: Host, port: int, handler) -> None:
        key = (host.ip, port)
        table = host.network.tcp_ports
        if key in table:
            raise OSError("TCP port {} already bound on {}".format(port, host.ip))
        table[key] = self
        self.host = host
        self.port = port
        self.handler = handler
        self.closed = False
        # One spawn per accepted connection: format the diagnostic
        # process name once per listener, not once per connection.
        self._handler_name = "tcp-handler-{}:{}".format(host.ip, port)

    def _accept(self, client_conn_info: Tuple[str, int, int]) -> "TcpConnection":
        client_ip, client_port, channel = client_conn_info
        conn = TcpConnection(
            host=self.host,
            local_port=self.port,
            remote_ip=client_ip,
            remote_port=client_port,
            channel=channel,
        )
        self.host.network.sim.spawn(self.handler(conn), name=self._handler_name)
        return conn

    def close(self) -> None:
        """Close this endpoint (pending receives fail)."""
        if not self.closed:
            self.closed = True
            self.host.network.tcp_ports.pop((self.host.ip, self.port), None)


def open_tcp(host: Host, dst_ip: str, dst_port: int):
    """Connect to ``dst_ip:dst_port``; generator returning a connection.

    Implements the three-way handshake as actual fabric messages: the
    SYN travels to the listener (one sampled delay), the SYN-ACK comes
    back (another sampled delay), and the caller resumes having
    measured ``handshake_ms``.  The final ACK rides the first data
    segment, as TCP does, so it adds no latency.
    """
    network = host.network
    sim = network.sim
    dst_ip = network.resolve_destination(host, dst_ip)
    local_port = host.ephemeral_port()
    channel = next(_channel_counter)
    started = sim.now
    established = sim.event()

    client_conn = TcpConnection(
        host=host,
        local_port=local_port,
        remote_ip=dst_ip,
        remote_port=dst_port,
        channel=channel,
    )

    def on_syn() -> None:
        listener = network.tcp_ports.get((dst_ip, dst_port))
        if not isinstance(listener, TcpListener) or listener.closed:
            def refuse() -> None:
                if not established.triggered:
                    established.fail(ConnectionRefused(
                        "{}:{} refused connection".format(dst_ip, dst_port)))
            network.transmit(
                network.host(dst_ip) if network.has_host(dst_ip) else host,
                host.ip,
                _SYN_BYTES,
                refuse,
                channel=channel,
                reliable=True,
            )
            return
        server_conn = listener._accept((host.ip, local_port, channel))
        server_conn._peer_box = client_conn._mailbox
        client_conn._peer_box = server_conn._mailbox

        def on_syn_ack() -> None:
            if not established.triggered:
                client_conn.handshake_ms = sim.now - started
                established.succeed(client_conn)

        network.transmit(
            listener.host,
            host.ip,
            _SYN_BYTES,
            on_syn_ack,
            channel=channel,
            reliable=True,
        )

    if not network.has_host(dst_ip):
        raise ConnectionRefused("no route to {}".format(dst_ip))
    network.transmit(
        host, dst_ip, _SYN_BYTES, on_syn, channel=channel, reliable=True
    )
    conn = yield established
    return conn
