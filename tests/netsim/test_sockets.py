"""Socket-layer tests: UDP, TCP handshakes, ordering, close semantics,
and connection pairs that reference counting frees."""

import pytest

from repro.netsim.sockets import (
    ConnectionClosed,
    ConnectionRefused,
    SocketTimeout,
)
from tests.conftest import (
    collector_paused,
    datacenter_site,
    residential_site,
)


def _noop_handler(conn):
    """A handler that accepts the connection and does nothing."""
    return
    yield  # pragma: no cover


@pytest.fixture()
def pair(network):
    client = network.add_host("client", "20.0.0.1", residential_site())
    server = network.add_host(
        "server", "20.0.1.1", datacenter_site(48.9, 2.4, "FR")
    )
    return client, server


class TestUdp:
    def test_request_response(self, sim, network, pair):
        client, server = pair
        server_sock = server.udp_socket(53)

        def echo():
            datagram = yield server_sock.recv()
            out = server.udp_socket()
            out.sendto(datagram.payload * 2, 100, datagram.src_ip,
                       datagram.src_port)
            out.close()

        sim.spawn(echo())

        def query():
            sock = client.udp_socket()
            sock.sendto(b"ab", 60, "20.0.1.1", 53)
            datagram = yield sock.recv(timeout_ms=5000)
            return datagram.payload

        assert sim.run_process(query()) == b"abab"
        assert sim.now > 0.0

    def test_recv_timeout(self, sim, network, pair):
        client, _server = pair

        def wait():
            sock = client.udp_socket()
            with pytest.raises(SocketTimeout):
                yield sock.recv(timeout_ms=100.0)
            return sim.now

        assert sim.run_process(wait()) == pytest.approx(100.0)

    def test_datagram_to_unbound_port_dropped(self, sim, network, pair):
        client, _server = pair

        def send():
            sock = client.udp_socket()
            sock.sendto(b"x", 60, "20.0.1.1", 9999)
            with pytest.raises(SocketTimeout):
                yield sock.recv(timeout_ms=200.0)

        sim.run_process(send())

    def test_double_bind_rejected(self, network, pair):
        _client, server = pair
        server.udp_socket(53)
        with pytest.raises(OSError):
            server.udp_socket(53)

    def test_send_after_close_rejected(self, network, pair):
        client, _ = pair
        sock = client.udp_socket()
        sock.close()
        with pytest.raises(OSError):
            sock.sendto(b"x", 10, "20.0.1.1", 53)

    def test_datagram_carries_source_address(self, sim, network, pair):
        client, server = pair
        server_sock = server.udp_socket(53)

        def collect():
            datagram = yield server_sock.recv()
            return datagram

        def send():
            sock = client.udp_socket(5555)
            sock.sendto(b"q", 60, "20.0.1.1", 53)
            yield sim.timeout(1000.0)

        sim.spawn(send())
        datagram = sim.run_process(collect())
        assert datagram.src_ip == "20.0.0.1"
        assert datagram.src_port == 5555
        assert datagram.nbytes == 60


class TestTcp:
    def test_handshake_measures_round_trip(self, sim, network, pair):
        client, server = pair
        server.listen_tcp(80, _noop_handler)

        def connect():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            return conn.handshake_ms

        handshake = sim.run_process(connect())
        # NY <-> Paris: at least the two-way propagation (~58 ms).
        assert handshake > 50.0

    def test_connect_refused_when_no_listener(self, sim, network, pair):
        client, _server = pair

        def connect():
            with pytest.raises(ConnectionRefused):
                yield from client.open_tcp("20.0.1.1", 81)

        sim.run_process(connect())

    def test_connect_to_unknown_host_refused(self, sim, network, pair):
        client, _ = pair

        def connect():
            yield from client.open_tcp("99.99.99.99", 80)

        with pytest.raises(ConnectionRefused):
            sim.run_process(connect())

    def test_messages_arrive_in_order(self, sim, network, pair):
        client, server = pair
        received = []

        def handler(conn):
            while True:
                try:
                    payload = yield conn.recv()
                except ConnectionClosed:
                    return
                received.append(payload)

        server.listen_tcp(80, handler)

        def send_many():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            for index in range(20):
                conn.send(index, 5000)  # large: serialization jitter
            yield sim.timeout(60000.0)
            conn.close()

        sim.run_process(send_many())
        assert received == list(range(20))

    def test_close_wakes_blocked_reader(self, sim, network, pair):
        client, server = pair
        outcome = []

        def handler(conn):
            try:
                yield conn.recv()
            except ConnectionClosed:
                outcome.append("closed")

        server.listen_tcp(80, handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            conn.close()
            yield sim.timeout(5000.0)

        sim.run_process(run())
        assert outcome == ["closed"]

    def test_send_on_closed_connection_raises(self, sim, network, pair):
        client, server = pair
        server.listen_tcp(80, _noop_handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            conn.close()
            with pytest.raises(ConnectionClosed):
                conn.send("late", 10)

        sim.run_process(run())

    def test_recv_sized_reports_wire_size(self, sim, network, pair):
        client, server = pair
        sizes = []

        def handler(conn):
            payload, nbytes = yield conn.recv_sized()
            sizes.append((payload, nbytes))

        server.listen_tcp(80, handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            conn.send("data", 777)
            yield sim.timeout(5000.0)

        sim.run_process(run())
        # 777 app bytes plus the ACK overhead constant.
        assert sizes[0][0] == "data"
        assert sizes[0][1] >= 777

    def test_bidirectional_traffic(self, sim, network, pair):
        client, server = pair

        def handler(conn):
            while True:
                try:
                    payload = yield conn.recv()
                except ConnectionClosed:
                    return
                conn.send(("ack", payload), 60)

        server.listen_tcp(80, handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            acks = []
            for index in range(3):
                conn.send(index, 100)
                ack = yield conn.recv()
                acks.append(ack)
            conn.close()
            return acks

        assert sim.run_process(run()) == [("ack", 0), ("ack", 1), ("ack", 2)]

    def test_byte_counters(self, sim, network, pair):
        client, server = pair
        server.listen_tcp(80, _noop_handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            conn.send("x", 100)
            conn.send("y", 200)
            yield sim.timeout(5000.0)
            return conn.bytes_sent

        assert sim.run_process(run()) == 300

    def test_double_listen_rejected(self, network, pair):
        _client, server = pair
        server.listen_tcp(80, _noop_handler)
        with pytest.raises(OSError):
            server.listen_tcp(80, _noop_handler)

    def test_listener_close_refuses_new_connections(self, sim, network, pair):
        client, server = pair
        listener = server.listen_tcp(80, _noop_handler)
        listener.close()

        def connect():
            with pytest.raises(ConnectionRefused):
                yield from client.open_tcp("20.0.1.1", 80)

        sim.run_process(connect())


class TestNoCycles:
    """A finished connection pair is freed by reference counting: the
    campaign pauses the cyclic collector for each batch, so a pair left
    in a cycle would stay in memory until the batch ends."""

    @pytest.mark.parametrize("server_closes", [True, False])
    def test_finished_exchange_leaves_no_cycle(self, sim, network, pair,
                                               server_closes):
        client, server = pair

        def handler(conn):
            request = yield conn.recv()
            conn.send(("reply", request), 100)
            if server_closes:
                with pytest.raises(ConnectionClosed):
                    yield conn.recv()
                conn.close()
            # Otherwise the handler returns with its end still open.

        server.listen_tcp(80, handler)

        def run():
            conn = yield from client.open_tcp("20.0.1.1", 80)
            conn.send("ping", 100)
            reply = yield conn.recv()
            conn.close()
            return reply

        with collector_paused() as found:
            assert sim.run_process(run()) == ("reply", "ping")
        assert found == {}
