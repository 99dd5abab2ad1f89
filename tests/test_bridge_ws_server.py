"""The WebSocket front door end to end: real sockets against a
BridgeServer with ``enable_ws()`` -- handshake, auth, rate limits,
backpressure eviction, SSE fallback, chaos severance, obs metrics."""

from __future__ import annotations

import base64
import json
import os
import re
import socket
import struct
import threading
import time

import pytest

from repro.bridge.protocol import MAX_FRAME, BridgeProtocolError
from repro.bridge.server import BridgeServer
from repro.bridge.ws import (
    CLOSE_PROTOCOL_ERROR,
    CLOSE_TOO_BIG,
    OP_BINARY,
    OP_CLOSE,
    OP_TEXT,
    WsBridgeClient,
    WsDecoder,
    accept_key,
    encode_frame,
    sse_url,
)
from repro.msg.registry import default_registry
from repro.ros.graph import RosGraph
from repro.sfm.generator import generate_sfm_class

Pose = generate_sfm_class("geometry_msgs/PoseStamped", default_registry)
POSE_TYPE = "geometry_msgs/PoseStamped@sfm"


@pytest.fixture(scope="module")
def graph():
    with RosGraph() as running:
        yield running


@pytest.fixture
def server(graph):
    with BridgeServer(graph.master_uri) as running:
        yield running


def _wait(predicate, timeout: float = 5.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _pose(x: float = 1.0) -> bytes:
    msg = Pose()
    msg.pose.position.x = x
    return bytes(msg.to_wire())


def _publish_until(client, topic, payload, received, count: int = 1,
                   timeout: float = 5.0) -> None:
    """Publish repeatedly until deliveries land (the internal graph tap
    connects asynchronously after the first subscribe)."""
    deadline = time.monotonic() + timeout
    while len(received) < count and time.monotonic() < deadline:
        client.publish_raw(topic, payload)
        time.sleep(0.05)
    assert len(received) >= count, f"no delivery on {topic}"


def _http_exchange(host: str, port: int, request: bytes,
                   timeout: float = 5.0) -> bytes:
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(request)
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
        return response
    finally:
        sock.close()


def _upgrade_request(host, port, key, extra: str = "") -> bytes:
    return (
        f"GET /ws HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        f"Sec-WebSocket-Version: 13\r\n{extra}\r\n"
    ).encode("latin-1")


def _upgraded_socket(server, frontend) -> socket.socket:
    """A raw client socket past the ws upgrade (for hand-made frames)."""
    sock = socket.create_connection((server.host, frontend.port),
                                    timeout=10.0)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    sock.sendall(_upgrade_request(server.host, frontend.port, key))
    response = b""
    while b"\r\n\r\n" not in response:
        response += sock.recv(4096)
    assert b" 101 " in response.partition(b"\r\n")[0]
    return sock


def _drain(sock) -> bytes:
    """Everything the server sent until it closed the connection."""
    data = b""
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except ConnectionError:
            return data
        if not chunk:
            return data
        data += chunk


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def test_handshake_accepts_valid_key(server):
    frontend = server.enable_ws()
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    response = _http_exchange(
        frontend.host, frontend.port,
        _upgrade_request(frontend.host, frontend.port, key),
    )
    status, _, rest = response.partition(b"\r\n")
    assert b" 101 " in status
    assert accept_key(key).encode("ascii") in rest
    assert _wait(lambda: frontend.stats()["handshakes"] == 1)


def test_handshake_rejects_bad_key(server):
    frontend = server.enable_ws()
    for bad in ("tooshort", "", "!!!!not-base64!!!!",
                base64.b64encode(b"seventeen bytes!!").decode("ascii")):
        response = _http_exchange(
            frontend.host, frontend.port,
            _upgrade_request(frontend.host, frontend.port, bad),
        )
        assert b" 400 " in response.partition(b"\r\n")[0], bad
    assert frontend.stats()["bad_requests"] == 4
    assert frontend.stats()["handshakes"] == 0


def test_handshake_rejects_oversized_headers(server):
    frontend = server.enable_ws()
    bomb = (
        b"GET /ws HTTP/1.1\r\n"
        + b"X-Padding: " + b"a" * (32 * 1024) + b"\r\n\r\n"
    )
    response = _http_exchange(frontend.host, frontend.port, bomb)
    assert b" 431 " in response.partition(b"\r\n")[0]
    assert frontend.stats()["bad_requests"] == 1


def test_unknown_path_is_404(server):
    frontend = server.enable_ws()
    response = _http_exchange(
        frontend.host, frontend.port,
        b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    assert b" 404 " in response.partition(b"\r\n")[0]


# ----------------------------------------------------------------------
# Pub/sub over ws
# ----------------------------------------------------------------------
def test_ws_roundtrip_json_and_cbin(server):
    frontend = server.enable_ws()
    pub = WsBridgeClient(server.host, frontend.port)
    sub = WsBridgeClient(server.host, frontend.port)
    try:
        pub.advertise("/ws/pose", POSE_TYPE)
        full: list = []
        fields: list = []
        sub.subscribe("/ws/pose", POSE_TYPE,
                      lambda msg, meta: full.append(msg), codec="json")
        sub.subscribe("/ws/pose", POSE_TYPE,
                      lambda msg, meta: fields.append(msg), codec="cbin",
                      fields=["pose.position.x"])
        _publish_until(pub, "/ws/pose", _pose(7.5), full)
        assert _wait(lambda: len(fields) >= 1)
        assert full[0]["pose"]["position"]["x"] == 7.5
        assert fields[0]["pose.position.x"] == 7.5
        snap = server.stats_snapshot()
        assert snap["clients_by_transport"].get("ws") == 2
    finally:
        pub.close()
        sub.close()


def test_ws_client_interops_with_tcp_client(server):
    """Transport transparency: a ws publisher feeds a plain TCP bridge
    subscriber and vice versa."""
    from repro.bridge.client import BridgeClient

    frontend = server.enable_ws()
    ws_client = WsBridgeClient(server.host, frontend.port)
    tcp_client = BridgeClient(server.host, server.port)
    try:
        ws_client.advertise("/ws/interop", POSE_TYPE)
        got: list = []
        tcp_client.subscribe("/ws/interop", POSE_TYPE,
                             lambda msg, meta: got.append(msg),
                             codec="json")
        _publish_until(ws_client, "/ws/interop", _pose(3.0), got)
        assert got[0]["pose"]["position"]["x"] == 3.0
    finally:
        ws_client.close()
        tcp_client.close()


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------
def test_auth_rejects_and_counts(server):
    frontend = server.enable_ws(auth_tokens=["sesame"])
    with pytest.raises(BridgeProtocolError, match="401"):
        WsBridgeClient(server.host, frontend.port)
    assert frontend.stats()["auth_failures"] == 1
    # The right token gets through (Bearer header path).
    client = WsBridgeClient(server.host, frontend.port, token="sesame")
    try:
        client.advertise("/ws/authed", POSE_TYPE)
    finally:
        client.close()
    assert frontend.stats()["auth_failures"] == 1
    assert frontend.stats()["handshakes"] == 1


def test_auth_token_via_query_parameter(server):
    frontend = server.enable_ws(auth_tokens=["sesame"])
    client = WsBridgeClient(server.host, frontend.port,
                            path="/ws?token=sesame")
    try:
        client.advertise("/ws/query_auth", POSE_TYPE)
    finally:
        client.close()
    assert frontend.stats()["auth_failures"] == 0


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------
def test_publish_rate_limit_sheds_and_counts(server):
    frontend = server.enable_ws(rate_limits={"publish": (1.0, 3)})
    client = WsBridgeClient(server.host, frontend.port)
    try:
        chan = client.advertise("/ws/limited", POSE_TYPE)
        assert chan is not None
        payload = _pose()
        for _ in range(10):
            client.publish_raw("/ws/limited", payload)
        assert _wait(
            lambda: frontend.stats()["rate_limited"]["publish"] >= 6
        )
        # The connection survived being limited.
        client.advertise("/ws/limited_2", POSE_TYPE)
    finally:
        client.close()


def test_subscribe_rate_limit_refuses_with_status(server):
    from repro.bridge.client import BridgeError

    frontend = server.enable_ws(rate_limits={"subscribe": (0.001, 1)})
    client = WsBridgeClient(server.host, frontend.port)
    try:
        client.advertise("/ws/sub_limit_0", POSE_TYPE)
        # The refusal status answers the pending request: fail fast,
        # not a client-side timeout.
        with pytest.raises(BridgeError, match="rate limited"):
            client.advertise("/ws/sub_limit_1", POSE_TYPE)
        assert frontend.stats()["rate_limited"]["subscribe"] == 1
    finally:
        client.close()


# ----------------------------------------------------------------------
# Backpressure + eviction
# ----------------------------------------------------------------------
def test_slow_client_is_evicted_healthy_client_keeps_flowing(server):
    frontend = server.enable_ws(queue_length=2, high_watermark=8,
                                evict_strikes=3)
    pub = WsBridgeClient(server.host, frontend.port)
    healthy = WsBridgeClient(server.host, frontend.port)
    slow = _upgraded_socket(server, frontend)
    try:
        pub.advertise("/ws/bulk", "sensor_msgs/Image@sfm")
        Image = generate_sfm_class("sensor_msgs/Image", default_registry)
        img = Image()
        img.height, img.width = 256, 256
        img.data = os.urandom(256 * 256 * 4)
        payload = bytes(img.to_wire())

        got: list = []
        healthy.subscribe("/ws/bulk", "sensor_msgs/Image@sfm",
                          lambda msg, meta: got.append(msg), codec="cbin",
                          fields=["height"])
        subscribe = json.dumps({
            "op": "subscribe", "topic": "/ws/bulk",
            "type": "sensor_msgs/Image@sfm", "codec": "raw",
        }).encode("utf-8")
        slow.sendall(encode_frame(OP_TEXT, subscribe, mask=True))
        # ... and the slow client never reads again.
        _publish_until(pub, "/ws/bulk", payload, got)

        for _ in range(400):
            pub.publish_raw("/ws/bulk", payload)
            if server.evictions:
                break
            time.sleep(0.01)
        assert _wait(lambda: server.evictions == 1, timeout=10.0), \
            "stalled subscriber was never evicted"
        # Counted once, in one place: every view reads the same tally.
        assert frontend.stats()["evictions"] == 1
        assert server.stats_snapshot()["evictions"] == 1
        assert server.tally("evicted", "ws") == 1
        # Its subscription is gone from the server...
        assert _wait(lambda: all(
            sess["transport"] != "ws" or not sess["evicted"]
            for sess in server.stats_snapshot()["sessions"]
        ))
        snap = server.stats_snapshot()
        assert all(sub["codec"] != "raw" for sub in snap["subscriptions"])
        # ...and the healthy subscriber still gets deliveries.
        mark = len(got)
        _publish_until(pub, "/ws/bulk", payload, got, count=mark + 1)
    finally:
        slow.close()
        pub.close()
        healthy.close()


# ----------------------------------------------------------------------
# The goodbye: one path, on a frame boundary or not at all
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad_frame, code, reason", [
    (encode_frame(OP_TEXT, b'{"op":"stats"}', mask=False),
     CLOSE_PROTOCOL_ERROR, b"masked"),
    (bytes([0x80 | OP_BINARY, 0x80 | 127])
     + struct.pack(">Q", MAX_FRAME + 1), CLOSE_TOO_BIG, b"exceeds"),
], ids=["unmasked-1002", "oversized-1009"])
def test_protocol_error_on_idle_session_is_answered_with_close(
    server, bad_frame, code, reason
):
    frontend = server.enable_ws()
    sock = _upgraded_socket(server, frontend)
    try:
        sock.sendall(bad_frame)
        goodbye = _drain(sock)
        # One whole, unmasked CLOSE frame and nothing else.
        assert goodbye[0] == 0x80 | OP_CLOSE
        assert len(goodbye) == 2 + goodbye[1]
        assert struct.unpack(">H", goodbye[2:4])[0] == code
        assert reason in goodbye[4:]
        assert WsDecoder(require_mask=False).feed(goodbye) == \
            [("close", code)]
        assert _wait(lambda: server.stats_snapshot()["clients"] == 0)
    finally:
        sock.close()


def test_goodbye_never_lands_inside_a_partially_flushed_frame(server):
    """A stalled reader leaves a half-written batch in the link; a
    protocol error then must not write its CLOSE into the middle of it:
    everything the client later drains is whole, intact frames."""
    frontend = server.enable_ws(evict_strikes=0)
    pub = WsBridgeClient(server.host, frontend.port)
    sock = _upgraded_socket(server, frontend)
    try:
        pub.advertise("/ws/torn", "sensor_msgs/Image@sfm")
        Image = generate_sfm_class("sensor_msgs/Image", default_registry)
        img = Image()
        img.height, img.width = 128, 128
        img.data = os.urandom(128 * 128 * 4)
        payload = bytes(img.to_wire())
        subscribe = json.dumps({
            "op": "subscribe", "id": "s", "topic": "/ws/torn",
            "type": "sensor_msgs/Image@sfm", "codec": "raw",
        }).encode("utf-8")
        sock.sendall(encode_frame(OP_TEXT, subscribe, mask=True))
        port = sock.getsockname()[1]
        assert _wait(lambda: any(
            sess.peer.endswith(f":{port}") and sess.subscriptions
            for sess in server._sessions
        ))
        session = next(sess for sess in server._sessions
                       if sess.peer.endswith(f":{port}"))

        # ... the client stops reading; publish until the link backs up.
        def backed_up() -> bool:
            pub.publish_raw("/ws/torn", payload)
            return session._rlink.write_backlog() > 0

        assert _wait(backed_up, timeout=10.0)
        sock.sendall(encode_frame(OP_TEXT, b"unmasked", mask=False))
        assert _wait(lambda: session.closed)

        decoder = WsDecoder(require_mask=False)
        events = decoder.feed(_drain(sock))  # raises on a torn header
        ack, *deliveries = events
        assert ack[1] == OP_TEXT and json.loads(ack[2])["id"] == "s"
        assert deliveries
        for _kind, opcode, unit, _wire in deliveries:
            # tag | sid | the published bytes, untouched
            assert opcode == OP_BINARY and bytes(unit[5:]) == payload
    finally:
        sock.close()
        pub.close()


# ----------------------------------------------------------------------
# SSE fallback
# ----------------------------------------------------------------------
def test_sse_fallback_streams_json_deliveries(server):
    frontend = server.enable_ws()
    pub = WsBridgeClient(server.host, frontend.port)
    url = sse_url(server.host, frontend.port, "/ws/sse_pose", POSE_TYPE,
                  fields=["pose.position.x"])
    path = url.split(f"{frontend.port}", 1)[1]
    sse = socket.create_connection((server.host, frontend.port),
                                   timeout=10.0)
    try:
        pub.advertise("/ws/sse_pose", POSE_TYPE)
        sse.sendall(
            f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1")
        )
        buffered = b""
        while b"\r\n\r\n" not in buffered:
            buffered += sse.recv(4096)
        head, _, buffered = buffered.partition(b"\r\n\r\n")
        assert b" 200 " in head.partition(b"\r\n")[0]
        assert b"text/event-stream" in head

        events: list = []
        done = threading.Event()

        def read_events() -> None:
            nonlocal buffered
            while not done.is_set():
                try:
                    chunk = sse.recv(4096)
                except OSError:
                    return
                if not chunk:
                    return
                buffered += chunk
                while b"\r\n\r\n" in buffered:
                    event, _, buffered = buffered.partition(b"\r\n\r\n")
                    if not event.startswith(b"data: "):
                        continue
                    doc = json.loads(event[6:])
                    # The stream opens with the subscribe_ok reply;
                    # the test wants the delivery that follows.
                    if doc.get("op") == "publish":
                        events.append(doc)
                        done.set()

        reader = threading.Thread(target=read_events, daemon=True)
        reader.start()
        deadline = time.monotonic() + 5.0
        while not events and time.monotonic() < deadline:
            pub.publish_raw("/ws/sse_pose", _pose(2.25))
            time.sleep(0.05)
        done.set()
        assert events, "no SSE event arrived"
        delivery = events[0]
        assert delivery["op"] == "publish"
        assert delivery["msg"]["pose"]["position"]["x"] == 2.25
        snap = server.stats_snapshot()
        assert snap["clients_by_transport"].get("sse") == 1
    finally:
        sse.close()
        pub.close()


def test_sse_requires_paired_topic_and_type(server):
    frontend = server.enable_ws()
    response = _http_exchange(
        frontend.host, frontend.port,
        b"GET /sse?topic=/only HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    assert b" 400 " in response.partition(b"\r\n")[0]


def test_sse_vanishing_client_tears_session_down(server):
    frontend = server.enable_ws()
    path = sse_url(server.host, frontend.port, "/ws/sse_gone",
                   POSE_TYPE).split(f"{frontend.port}", 1)[1]
    sse = socket.create_connection((server.host, frontend.port),
                                   timeout=10.0)
    sse.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1"))
    response = b""
    while b"\r\n\r\n" not in response:
        response += sse.recv(4096)
    assert _wait(
        lambda: server.stats_snapshot()["clients_by_transport"].get("sse")
        == 1
    )
    sse.close()
    assert _wait(lambda: server.stats_snapshot()["clients"] == 0)
    assert server.stats_snapshot()["subscriptions"] == []


# ----------------------------------------------------------------------
# Chaos: severed ws connection
# ----------------------------------------------------------------------
def test_severed_ws_connection_tears_down_cleanly(server):
    from repro.chaos import FaultPlan

    frontend = server.enable_ws()
    plan = FaultPlan(seed=7).install()
    client = WsBridgeClient(server.host, frontend.port)
    try:
        got: list = []
        client.subscribe("/ws/severed", POSE_TYPE,
                         lambda msg, meta: got.append(msg), codec="json")
        assert _wait(
            lambda: server.stats_snapshot()["clients_by_transport"]
            .get("ws") == 1
        )
        assert plan.sever(seam="bridge") >= 1
        # The reader thread hits the reset and the session is dropped:
        # no clients, no leaked subscriptions, nothing half-alive.
        assert _wait(lambda: server.stats_snapshot()["clients"] == 0)
        snap = server.stats_snapshot()
        assert snap["subscriptions"] == []
        assert snap["clients_by_transport"] == {}
    finally:
        plan.uninstall()
        client.close()


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_front_door_counters_reach_metrics_exposition(server):
    from repro.obs.metrics import global_registry

    frontend = server.enable_ws(auth_tokens=["sesame"],
                                rate_limits={"publish": (0.001, 1)})
    with pytest.raises(BridgeProtocolError):
        WsBridgeClient(server.host, frontend.port)  # auth failure
    client = WsBridgeClient(server.host, frontend.port, token="sesame")
    try:
        client.advertise("/ws/observed", POSE_TYPE)
        payload = _pose()
        client.publish_raw("/ws/observed", payload)
        client.publish_raw("/ws/observed", payload)
        assert _wait(
            lambda: frontend.stats()["rate_limited"]["publish"] >= 1
        )
        text = global_registry.render()

        def value_of(pattern: str) -> int:
            # The collector aggregates every tracked bridge, including
            # other tests' already-shut-down servers, so assert floors
            # rather than exact counts.
            match = re.search(pattern + r" (\d+)", text)
            assert match, f"{pattern} not in exposition"
            return int(match.group(1))

        assert value_of("miniros_bridge_ws_auth_failures_total") >= 1
        assert value_of(
            r'miniros_bridge_ws_rate_limited_total\{op_class="publish"\}'
        ) >= 1
        assert value_of("miniros_bridge_ws_handshakes_total") >= 1
        assert "miniros_bridge_evictions_total" in text
        assert value_of(
            r'miniros_bridge_transport_clients\{transport="ws"\}'
        ) >= 1
    finally:
        client.close()


def test_stats_snapshot_describes_ws_sessions(server):
    frontend = server.enable_ws()
    client = WsBridgeClient(server.host, frontend.port)
    try:
        client.advertise("/ws/described", POSE_TYPE)
        snap = server.stats_snapshot()
        ws_sessions = [sess for sess in snap["sessions"]
                       if sess["transport"] == "ws"]
        assert len(ws_sessions) == 1
        sess = ws_sessions[0]
        assert sess["peer"].startswith("ws:")
        assert sess["evicted"] is False
        assert snap["ws"]["policy"]["queue_length"] == 64
        # enable_ws is idempotent: same frontend, no second listener.
        assert server.enable_ws() is frontend
    finally:
        client.close()
