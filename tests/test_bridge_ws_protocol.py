"""RFC 6455 plumbing in isolation: handshake math, frame codec,
HTTP parsing -- no bridge server involved."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.bridge import ws
from repro.bridge.protocol import TAG_JSON
from repro.bridge.ws import (
    CLOSE_NORMAL,
    CLOSE_PROTOCOL_ERROR,
    CLOSE_TOO_BIG,
    MAX_REQUEST_HEAD,
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    TokenBucket,
    WebSocket,
    WsClosed,
    WsDecoder,
    WsProtocolError,
    accept_key,
    encode_frame,
    mask_payload,
)


# ----------------------------------------------------------------------
# Handshake math
# ----------------------------------------------------------------------
def test_accept_key_rfc_example():
    # The worked example from RFC 6455 section 1.3.
    assert accept_key("dGhlIHNhbXBsZSBub25jZQ==") == \
        "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="


def test_mask_payload_is_involution():
    payload = bytes(range(256)) * 37 + b"tail"
    key = b"\x12\x34\x56\x78"
    masked = mask_payload(payload, key)
    assert masked != payload
    assert mask_payload(masked, key) == payload


def test_mask_payload_matches_bytewise_xor():
    payload = b"hello websocket frame"
    key = b"\xaa\x01\xff\x10"
    stream = (key * 6)[: len(payload)]
    assert mask_payload(payload, key) == \
        bytes(a ^ b for a, b in zip(payload, stream))


def test_mask_payload_empty():
    assert mask_payload(b"", b"abcd") == b""


# ----------------------------------------------------------------------
# Frame codec: the one RFC 6455 parser, WsDecoder, fed whole and one
# byte at a time -- the outcome must not depend on the split
# ----------------------------------------------------------------------
FEEDS = {
    "whole": lambda wire: [wire],
    "bytewise": lambda wire: [wire[i:i + 1] for i in range(len(wire))],
}


@pytest.fixture(params=sorted(FEEDS))
def decode(request):
    """``decode(wire, **decoder_kwargs) -> events`` through a fresh
    decoder, in the parametrized feed; a protocol error propagates."""
    def run(wire: bytes, **kwargs) -> list:
        decoder = WsDecoder(**kwargs)
        events: list = []
        for chunk in FEEDS[request.param](wire):
            events += decoder.feed(chunk)
        return events

    return run


def _message(opcode: int, payload: bytes, wire: int) -> tuple:
    return ("message", opcode, bytearray(payload), wire)


def test_decoder_masked_text(decode):
    frame = encode_frame(OP_TEXT, b'{"op":"x"}', mask=True)
    # wire is what the frame took on the wire: header + mask key + payload
    assert len(frame) == 2 + 4 + 10
    assert decode(frame) == [_message(OP_TEXT, b'{"op":"x"}', len(frame))]


@pytest.mark.parametrize("size", [0, 1, 125, 126, 127, 65535, 65536, 80000])
def test_decoder_length_encodings(decode, size):
    """7-bit, 16-bit and 64-bit payload length forms all round-trip."""
    payload = bytes(size % 251 for _ in range(size)) if size else b""
    frame = encode_frame(OP_BINARY, payload, mask=True)
    # The header length form must match the RFC thresholds.
    second = frame[1] & 0x7F
    if size < 126:
        assert second == size
    elif size < 1 << 16:
        assert second == 126
        assert struct.unpack(">H", frame[2:4])[0] == size
    else:
        assert second == 127
        assert struct.unpack(">Q", frame[2:10])[0] == size
    assert decode(frame) == [_message(OP_BINARY, payload, len(frame))]


def test_decoder_64bit_length_form_parses(decode):
    """A frame that *uses* the 64-bit form for a small payload still
    parses (encoders may not minimal-encode)."""
    payload = b"not actually huge"
    key = b"\x01\x02\x03\x04"
    frame = (
        bytes([0x80 | OP_BINARY, 0x80 | 127])
        + struct.pack(">Q", len(payload))
        + key
        + mask_payload(payload, key)
    )
    assert decode(frame) == [_message(OP_BINARY, payload, len(frame))]


def test_decoder_rejects_unmasked_client_frame(decode):
    with pytest.raises(WsProtocolError, match="masked") as info:
        decode(encode_frame(OP_TEXT, b"nope", mask=False), require_mask=True)
    assert info.value.code == CLOSE_PROTOCOL_ERROR
    # ...which is exactly what the client end reads
    frame = encode_frame(OP_TEXT, b"fine", mask=False)
    assert decode(frame, require_mask=False) == \
        [_message(OP_TEXT, b"fine", len(frame))]


def test_decoder_reassembles_fragmented_message(decode):
    wire = (
        encode_frame(OP_TEXT, b"one ", fin=False, mask=True)
        + encode_frame(OP_CONT, b"two ", fin=False, mask=True)
        + encode_frame(OP_CONT, b"three", fin=True, mask=True)
    )
    assert decode(wire) == [_message(OP_TEXT, b"one two three", len(wire))]


def test_decoder_control_frame_interleaves_with_fragments(decode):
    """PING arriving mid-fragmentation surfaces (to be answered) without
    disturbing the reassembly, and is not billed to the message."""
    ping = encode_frame(OP_PING, b"hb", mask=True)
    wire = (
        encode_frame(OP_TEXT, b"half", fin=False, mask=True)
        + ping
        + encode_frame(OP_CONT, b"+half", fin=True, mask=True)
    )
    events = decode(wire)
    assert events == [
        ("ping", b"hb"),
        _message(OP_TEXT, b"half+half", len(wire) - len(ping)),
    ]
    # The framing answers the PING with a PONG and yields the unit.
    replies: list = []
    units = list(WebSocket(mask=False).units(events, replies.append))
    assert units == [(TAG_JSON, bytearray(b"half+half"),
                      len(wire) - len(ping))]
    assert replies == [[encode_frame(ws.OP_PONG, b"hb")]]


def test_decoder_rejects_data_frame_inside_fragmented_message(decode):
    with pytest.raises(WsProtocolError, match="interleaved") as info:
        decode(
            encode_frame(OP_TEXT, b"start", fin=False, mask=True)
            + encode_frame(OP_BINARY, b"intruder", fin=True, mask=True)
        )
    assert info.value.code == CLOSE_PROTOCOL_ERROR


def test_decoder_rejects_oversized_frame_with_too_big(decode):
    with pytest.raises(WsProtocolError) as info:
        decode(encode_frame(OP_BINARY, b"x" * 65, mask=True), max_payload=64)
    assert info.value.code == CLOSE_TOO_BIG


def test_decoder_rejects_reserved_bits(decode):
    with pytest.raises(WsProtocolError, match="reserved") as info:
        decode(bytes([0x80 | 0x40 | OP_TEXT, 0x80]) + b"\0\0\0\0")
    assert info.value.code == CLOSE_PROTOCOL_ERROR


def test_decoder_close_ends_the_stream_and_is_echoed(decode):
    payload = struct.pack(">H", CLOSE_NORMAL) + b"bye"
    events = decode(
        encode_frame(OP_CLOSE, payload, mask=True)
        + encode_frame(OP_TEXT, b"after the close", mask=True)
    )
    assert events == [("close", CLOSE_NORMAL)]
    # The framing turns it into the error that ends the connection...
    framing = WebSocket(mask=False)
    with pytest.raises(WsClosed) as info:
        list(framing.units(events, lambda parts: None))
    assert isinstance(info.value, ConnectionError)
    assert info.value.code == CLOSE_NORMAL
    # ...whose goodbye echoes the code alone, as one well-formed CLOSE.
    echo = b"".join(framing.goodbye(info.value.code, info.value.reason))
    assert echo == encode_frame(OP_CLOSE, struct.pack(">H", CLOSE_NORMAL))
    assert WsDecoder(require_mask=False).feed(echo) == \
        [("close", CLOSE_NORMAL)]


# ----------------------------------------------------------------------
# HTTP request plumbing
# ----------------------------------------------------------------------
def test_parse_request_headers_lowercased():
    method, target, headers, leftover = ws._parse_request(
        b"GET /ws?token=t HTTP/1.1\r\n"
        b"Host: example\r\n"
        b"Sec-WebSocket-Key: abc\r\n"
        b"\r\nleftover-bytes"
    )
    assert (method, target) == ("GET", "/ws?token=t")
    assert headers["sec-websocket-key"] == "abc"
    assert leftover == b"leftover-bytes"


def test_parse_request_malformed():
    with pytest.raises(WsProtocolError):
        ws._parse_request(b"NOT-HTTP\r\n\r\n")


def test_request_head_cap():
    client_sock, server_sock = socket.socketpair()
    try:
        bomb = b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"a" * (
            MAX_REQUEST_HEAD + 1024
        )
        writer = threading.Thread(
            target=lambda: client_sock.sendall(bomb), daemon=True
        )
        writer.start()
        with pytest.raises(WsProtocolError) as info:
            ws._read_request_head(server_sock)
        assert info.value.code == CLOSE_TOO_BIG
        writer.join(timeout=2.0)
    finally:
        client_sock.close()
        server_sock.close()


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
def test_token_bucket_burst_then_refusal():
    bucket = TokenBucket(rate=0.0001, burst=3)
    assert [bucket.allow() for _ in range(4)] == [True, True, True, False]


def test_token_bucket_refills():
    bucket = TokenBucket(rate=1000.0, burst=1)
    assert bucket.allow()
    assert not bucket.allow()
    import time

    time.sleep(0.01)
    assert bucket.allow()
