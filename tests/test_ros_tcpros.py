"""Tests for TCPROS-style framing and handshakes."""

import socket
import threading

import pytest

from repro.ros.exceptions import ConnectionHandshakeError
from repro.ros.transport import tcpros


class TestHeaderCodec:
    def test_roundtrip(self):
        fields = {"callerid": "/node", "topic": "/t", "md5sum": "ab" * 16,
                  "type": "pkg/M", "format": "sfm"}
        assert tcpros.decode_header(tcpros.encode_header(fields)) == fields

    def test_value_may_contain_equals(self):
        fields = {"k": "a=b=c"}
        assert tcpros.decode_header(tcpros.encode_header(fields)) == fields

    def test_malformed_entry_rejected(self):
        import struct

        bad = struct.pack("<I", 3) + b"abc"  # no '='
        with pytest.raises(ConnectionHandshakeError):
            tcpros.decode_header(bad)

    def test_empty_header(self):
        assert tcpros.decode_header(b"") == {}


class TestFraming:
    @pytest.fixture
    def sock_pair(self):
        a, b = socket.socketpair()
        yield a, b
        a.close()
        b.close()

    def test_frame_roundtrip(self, sock_pair):
        a, b = sock_pair
        tcpros.write_frame(a, b"hello world")
        assert bytes(tcpros.read_frame(b)) == b"hello world"

    def test_memoryview_payload(self, sock_pair):
        a, b = sock_pair
        payload = memoryview(bytearray(b"0123456789"))[2:8]
        tcpros.write_frame(a, payload)
        assert bytes(tcpros.read_frame(b)) == b"234567"

    def test_multiple_frames_in_order(self, sock_pair):
        a, b = sock_pair
        for i in range(5):
            tcpros.write_frame(a, bytes([i]) * (i + 1))
        for i in range(5):
            assert bytes(tcpros.read_frame(b)) == bytes([i]) * (i + 1)

    def test_send_parts_takes_more_parts_than_one_sendmsg(self, sock_pair):
        # A bridge unit fragmented at a small max_frame is thousands of
        # parts; one sendmsg takes IOV_MAX (1024) at most.
        a, b = sock_pair
        parts = tcpros.frame_parts([bytes([i % 251]) * 3 for i in range(3000)])
        parts = [bytes(parts[0][i:i + 7]) for i in range(0, len(parts[0]), 7)]
        assert len(parts) == 3000
        tcpros.send_parts(a, parts)
        for i in range(3000):
            assert bytes(tcpros.read_frame(b)) == bytes([i % 251]) * 3

    def test_eof_raises_connection_error(self, sock_pair):
        a, b = sock_pair
        a.close()
        with pytest.raises(ConnectionError):
            tcpros.read_frame(b)

    def test_oversized_frame_rejected(self, sock_pair):
        import struct

        a, b = sock_pair
        a.sendall(struct.pack("<I", tcpros.MAX_FRAME + 1))
        with pytest.raises(ConnectionHandshakeError):
            tcpros.read_frame(b)

    def test_large_frame(self, sock_pair):
        a, b = sock_pair
        payload = bytes(range(256)) * 4096  # 1 MiB
        writer = threading.Thread(target=tcpros.write_frame, args=(a, payload))
        writer.start()
        received = tcpros.read_frame(b)
        writer.join()
        assert bytes(received) == payload

    def test_frames_around_coalescing_boundary(self, sock_pair):
        """Both write paths -- coalesced sendall at/below SMALL_FRAME,
        vectored sendmsg above it -- produce identical wire frames."""
        a, b = sock_pair
        for size in (tcpros.SMALL_FRAME - 1, tcpros.SMALL_FRAME,
                     tcpros.SMALL_FRAME + 1):
            payload = bytes([size % 251]) * size
            writer = threading.Thread(
                target=tcpros.write_frame, args=(a, payload)
            )
            writer.start()
            assert bytes(tcpros.read_frame(b)) == payload
            writer.join()

    def test_vectored_path_accepts_wide_itemsize_view(self, sock_pair):
        """A multi-byte-itemsize memoryview (e.g. over an int array) is
        cast to bytes before the vectored send."""
        import array

        a, b = sock_pair
        values = array.array("I", range(4096))  # 16 KiB > SMALL_FRAME
        view = memoryview(values)
        assert view.itemsize != 1
        writer = threading.Thread(target=tcpros.write_frame, args=(a, view))
        writer.start()
        assert bytes(tcpros.read_frame(b)) == values.tobytes()
        writer.join()

    def test_vectored_path_accepts_bytearray(self, sock_pair):
        a, b = sock_pair
        payload = bytearray(range(256)) * 64  # 16 KiB > SMALL_FRAME
        writer = threading.Thread(target=tcpros.write_frame, args=(a, payload))
        writer.start()
        assert bytes(tcpros.read_frame(b)) == bytes(payload)
        writer.join()


class TestServerHandshake:
    def test_accept_and_reply(self):
        accepted = {}
        ready = threading.Event()

        def dispatcher(sock, header):
            accepted.update(header)
            tcpros.write_frame(sock, tcpros.encode_header({"ok": "1"}))
            ready.set()

        server = tcpros.TcpRosServer(dispatcher)
        try:
            sock, reply = tcpros.connect_subscriber(
                server.host, server.port, {"topic": "/t", "callerid": "/c"}
            )
            assert ready.wait(5)
            assert accepted["topic"] == "/t"
            assert reply == {"ok": "1"}
            sock.close()
        finally:
            server.close()

    def test_rejection_surfaces_error(self):
        def dispatcher(sock, header):
            tcpros.reject_connection(sock, "nope")

        server = tcpros.TcpRosServer(dispatcher)
        try:
            with pytest.raises(ConnectionHandshakeError, match="nope"):
                tcpros.connect_subscriber(server.host, server.port, {"a": "b"})
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = tcpros.TcpRosServer(lambda sock, header: sock.close())
        server.close()
        server.close()
