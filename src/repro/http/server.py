"""HTTP/HTTPS server on a simulated host.

The paper's web server (the "a.com" target that the exit nodes fetch
for Do53 measurements) and the DoH providers' HTTPS front ends are
instances of this class.  A handler is a function
``handler(request, conn_info)`` returning a generator that yields
simulation events and returns an :class:`HttpResponse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.http.message import HttpRequest, HttpResponse, Status
from repro.netsim.host import Host
from repro.netsim.sockets import ConnectionClosed, TcpConnection
from repro.tls.handshake import server_handshake
from repro.tls.session import TlsConnection

__all__ = ["ConnInfo", "HttpServer"]


@dataclass(frozen=True)
class ConnInfo:
    """Facts about the connection a request arrived on."""

    peer_ip: str
    tls_version: Optional[str]  # None for plain HTTP
    server_host: Host


class HttpServer:
    """Serves HTTP or HTTPS with persistent connections."""

    def __init__(
        self,
        host: Host,
        port: int,
        handler: Callable[[HttpRequest, ConnInfo], object],
        use_tls: bool = False,
        processing_ms: float = 0.8,
        tls_crypto_ms: float = 1.2,
        refuse: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.use_tls = use_tls
        self.processing_ms = processing_ms
        self.tls_crypto_ms = tls_crypto_ms
        #: Optional fault hook: when it returns True the server drops an
        #: incoming connection before the (TLS) handshake — what a dead
        #: or overloaded front end looks like from outside.
        self.refuse = refuse
        self._listener = None

    def start(self) -> None:
        """Bind the listener and begin accepting connections."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = self.host.listen_tcp(self.port, self._on_connection)

    def stop(self) -> None:
        """Close the listener."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- per-connection service -------------------------------------------

    def _on_connection(self, conn: TcpConnection):
        if self.refuse is not None and self.refuse():
            conn.close()
            return
        stream = conn
        tls_version: Optional[str] = None
        if self.use_tls:
            try:
                result = yield from server_handshake(
                    conn, crypto_ms=self.tls_crypto_ms
                )
            except Exception:
                conn.close()
                return
            stream = TlsConnection(conn, result, is_client=False)
            tls_version = result.version
        info = ConnInfo(
            peer_ip=conn.remote_ip,
            tls_version=tls_version,
            server_host=self.host,
        )
        while True:
            try:
                message = yield stream.recv()
            except ConnectionClosed:
                return
            if not isinstance(message, HttpRequest):
                response = HttpResponse(status=Status.BAD_REQUEST)
                stream.send(response, response.wire_size())
                continue
            if self.processing_ms > 0:
                yield self.host.busy(self.processing_ms)
            try:
                response = yield from self.handler(message, info)
            except Exception:
                response = HttpResponse(status=Status.BAD_GATEWAY)
            if not isinstance(response, HttpResponse):
                response = HttpResponse(status=Status.BAD_GATEWAY)
            try:
                stream.send(response, response.wire_size())
            except ConnectionClosed:
                return
