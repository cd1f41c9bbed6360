"""HTTP message model and parser tests."""

import pytest
from hypothesis import given, strategies as st

from repro.http.message import (
    HeaderBag,
    HttpError,
    HttpRequest,
    HttpResponse,
    Status,
)


class TestHeaderBag:
    def test_case_insensitive_get(self):
        bag = HeaderBag()
        bag.add("Content-Type", "text/html")
        assert bag.get("content-type") == "text/html"
        assert "CONTENT-TYPE" in bag

    def test_order_preserved(self):
        bag = HeaderBag([("A", "1"), ("B", "2"), ("C", "3")])
        assert [name for name, _ in bag] == ["A", "B", "C"]

    def test_set_replaces_all(self):
        bag = HeaderBag([("X", "1"), ("x", "2")])
        bag.set("X", "3")
        assert list(bag) == [("X", "3")]

    def test_remove(self):
        bag = HeaderBag([("X", "1")])
        bag.remove("x")
        assert "X" not in bag and len(bag) == 0

    def test_crlf_injection_rejected(self):
        bag = HeaderBag()
        with pytest.raises(HttpError):
            bag.add("X", "evil\r\nInjected: yes")
        with pytest.raises(HttpError):
            bag.add("Bad\nName", "v")

    def test_copy_is_independent(self):
        bag = HeaderBag([("X", "1")])
        other = bag.copy()
        other.set("X", "2")
        assert bag.get("X") == "1"

    def test_default_on_missing(self):
        assert HeaderBag().get("nope", "dflt") == "dflt"


class TestRequest:
    def test_serialise_shape(self):
        request = HttpRequest(method="GET", target="/x")
        request.headers.set("Host", "a.com")
        raw = request.to_bytes()
        assert raw.startswith(b"GET /x HTTP/1.1\r\n")
        assert b"Host: a.com\r\n" in raw
        assert raw.endswith(b"\r\n\r\n")

    def test_roundtrip(self):
        request = HttpRequest(
            method="POST", target="/dns-query", body=b"\x01\x02"
        )
        request.headers.set("Host", "dns.example")
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == "POST"
        assert parsed.target == "/dns-query"
        assert parsed.body == b"\x01\x02"
        assert parsed.headers.get("Content-Length") == "2"

    def test_content_length_auto(self):
        request = HttpRequest(method="POST", target="/", body=b"abc")
        assert request.headers.get("Content-Length") == "3"

    def test_host_property(self):
        request = HttpRequest(method="GET", target="/")
        assert request.host is None
        request.headers.set("Host", "h")
        assert request.host == "h"

    def test_connect_form(self):
        request = HttpRequest(method="CONNECT", target="example.com:443")
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == "CONNECT"
        assert parsed.target == "example.com:443"

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.from_bytes(b"GET /\r\n\r\n")
        with pytest.raises(HttpError):
            HttpRequest.from_bytes(b"\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(HttpError):
            HttpRequest.from_bytes(b"GET / HTTP/1.1\r\nbroken\r\n\r\n")

    def test_wire_size(self):
        request = HttpRequest(method="GET", target="/abc")
        assert request.wire_size() == len(request.to_bytes())


class TestResponse:
    def test_serialise_shape(self):
        response = HttpResponse(status=200, body=b"hi")
        raw = response.to_bytes()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert raw.endswith(b"hi")

    def test_roundtrip(self):
        response = HttpResponse(status=404, body=b"missing")
        response.headers.set("Server", "bind")
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.status == 404
        assert parsed.body == b"missing"
        assert parsed.headers.get("server") == "bind"

    def test_ok_property(self):
        assert HttpResponse(status=204).ok
        assert not HttpResponse(status=502).ok

    def test_reason_phrases(self):
        assert Status.reason(200) == "OK"
        assert Status.reason(502) == "Bad Gateway"
        assert Status.reason(599) == "Unknown"

    def test_bad_status_line(self):
        with pytest.raises(HttpError):
            HttpResponse.from_bytes(b"HTTP/1.1 abc\r\n\r\n")
        with pytest.raises(HttpError):
            HttpResponse.from_bytes(b"")


_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1, max_size=20,
)


class TestProperties:
    @given(
        st.sampled_from(["GET", "POST", "HEAD", "CONNECT"]),
        _token,
        st.lists(st.tuples(_token, _token), max_size=8),
        st.binary(max_size=200),
    )
    def test_request_roundtrip(self, method, target, headers, body):
        request = HttpRequest(
            method=method, target="/" + target,
            headers=HeaderBag(list(headers)), body=body,
        )
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == method
        assert parsed.target == "/" + target
        assert parsed.body == body

    @given(st.integers(min_value=100, max_value=599), st.binary(max_size=200))
    def test_response_roundtrip(self, status, body):
        response = HttpResponse(status=status, body=body)
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.status == status
        assert parsed.body == body
