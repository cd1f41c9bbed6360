"""HTTP client/server integration over plain TCP and TLS."""

import pytest

from repro.http.client import HttpClient
from repro.http.message import HttpRequest, HttpResponse, Status
from repro.http.server import HttpServer
from tests.conftest import datacenter_site, residential_site


@pytest.fixture()
def hosts(network):
    client = network.add_host("client", "20.0.0.1", residential_site())
    server = network.add_host(
        "server", "20.0.1.1", datacenter_site(48.9, 2.4, "FR")
    )
    return client, server


def echo_handler(request, info):
    response = HttpResponse(
        status=Status.OK,
        body="{} {} from {}".format(
            request.method, request.target, info.peer_ip
        ).encode(),
    )
    return response
    yield  # pragma: no cover


class TestPlainHttp:
    def test_get_roundtrip(self, sim, network, hosts):
        client_host, server_host = hosts
        HttpServer(server_host, 80, echo_handler).start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 80)
            client = HttpClient(conn)
            response = yield from client.get("/hello", host="a.com")
            client.close()
            return response

        response = sim.run_process(run())
        assert response.ok
        assert response.body == b"GET /hello from 20.0.0.1"

    def test_persistent_connection_multiple_requests(self, sim, network,
                                                     hosts):
        client_host, server_host = hosts
        server = HttpServer(server_host, 80, echo_handler)
        server.start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 80)
            client = HttpClient(conn)
            bodies = []
            for index in range(3):
                response = yield from client.get("/r{}".format(index))
                bodies.append(response.body)
            client.close()
            return bodies

        bodies = sim.run_process(run())
        assert bodies == [
            "GET /r{} from 20.0.0.1".format(index).encode()
            for index in range(3)
        ]

    def test_handler_exception_becomes_502(self, sim, network, hosts):
        client_host, server_host = hosts

        def broken(request, info):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        HttpServer(server_host, 80, broken).start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 80)
            client = HttpClient(conn)
            response = yield from client.get("/x")
            client.close()
            return response

        assert sim.run_process(run()).status == Status.BAD_GATEWAY

    def test_non_request_payload_rejected(self, sim, network, hosts):
        client_host, server_host = hosts
        HttpServer(server_host, 80, echo_handler).start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 80)
            conn.send("junk", 40)
            response = yield conn.recv()
            conn.close()
            return response

        assert sim.run_process(run()).status == Status.BAD_REQUEST

    def test_stop_refuses_new_connections(self, sim, network, hosts):
        from repro.netsim.sockets import ConnectionRefused

        client_host, server_host = hosts
        server = HttpServer(server_host, 80, echo_handler)
        server.start()
        server.stop()

        def run():
            with pytest.raises(ConnectionRefused):
                yield from client_host.open_tcp("20.0.1.1", 80)

        sim.run_process(run())


class TestHttps:
    def test_get_over_tls(self, sim, network, hosts):
        from repro.tls.handshake import client_handshake
        from repro.tls.session import TlsConnection

        client_host, server_host = hosts
        HttpServer(server_host, 443, echo_handler, use_tls=True).start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 443)
            result = yield from client_handshake(conn, sni="a.com")
            stream = TlsConnection(conn, result, is_client=True)
            client = HttpClient(stream)
            response = yield from client.get("/secure")
            client.close()
            return response, result.version

        response, version = sim.run_process(run())
        assert response.ok
        assert version == "TLSv1.3"
        assert b"/secure" in response.body

    def test_tls_server_reports_version_to_handler(self, sim, network, hosts):
        from repro.tls.handshake import client_handshake
        from repro.tls.session import TlsConnection

        client_host, server_host = hosts
        seen = {}

        def handler(request, info):
            seen["tls"] = info.tls_version
            return HttpResponse(status=Status.OK)
            yield  # pragma: no cover

        HttpServer(server_host, 443, handler, use_tls=True).start()

        def run():
            conn = yield from client_host.open_tcp("20.0.1.1", 443)
            result = yield from client_handshake(conn, sni="a.com")
            stream = TlsConnection(conn, result, is_client=True)
            client = HttpClient(stream)
            yield from client.get("/")
            client.close()

        sim.run_process(run())
        assert seen["tls"] == "TLSv1.3"
