"""One session stack: the same op transcript over every framing, driven
through ``BridgeServer.accept_session`` (the seam every listener uses)
with a non-open :class:`Policy`, plus what a pending connection costs."""

from __future__ import annotations

import itertools
import socket
import threading

import pytest

from repro.bridge import protocol
from repro.bridge import server as server_mod
from repro.bridge.protocol import TAG_JSON, LengthPrefixed
from repro.bridge.server import BridgeServer, Policy
from repro.bridge.ws import ServerSentEvents, WebSocket, WsBridgeClient
from repro.msg import library as L
from repro.msg.registry import default_registry
from repro.ros import reactor as reactor_mod
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until
from repro.sfm.generator import generate_sfm_class

Image = generate_sfm_class("sensor_msgs/Image", default_registry)

IMAGE_TOPIC = "/session/image"
ECHO_TOPIC = "/session/echo"
BIG = "x" * 3000


@pytest.fixture(scope="module")
def graph():
    with RosGraph() as running:
        yield running


@pytest.fixture
def server(graph):
    # One server per row: sids and channels start at 1 in every row.
    with BridgeServer(graph.master_uri) as running:
        yield running


class _SseEvents:
    """The client end of the SSE wire (the server framing reads nothing,
    so there is no decoder to borrow): ``data:`` events -> JSON units."""

    def __init__(self) -> None:
        self._buffer = b""

    def decoder(self) -> "_SseEvents":
        return self

    def feed(self, data: bytes) -> list:
        *events, self._buffer = (self._buffer + data).split(b"\r\n\r\n")
        return events

    def units(self, events: list, reply):
        for event in events:
            assert event.startswith(b"data: ")
            yield TAG_JSON, event[6:], len(event) + 4


class Peer:
    """The client end of a socketpair, speaking ``framing`` by hand."""

    def __init__(self, sock: socket.socket, framing) -> None:
        self.sock = sock
        self.framing = framing
        self.decoder = framing.decoder()
        self.max_frame = protocol.MAX_FRAME
        self.ops: list[dict] = []
        self.fragments_in = 0
        self._reassembler = protocol.Reassembler()
        self._ids = itertools.count(1)
        sock.settimeout(10.0)

    def send(self, op: dict) -> int:
        """Send one op; returns how many units it took on the wire (a
        small unit is one part on either framing)."""
        parts, _wire = protocol.unit_parts(
            self.framing, TAG_JSON, protocol.encode_json_op(op),
            self.max_frame, lambda: f"p{next(self._ids)}",
        )
        self.sock.sendall(b"".join(bytes(part) for part in parts))
        return len(parts)

    def _unit(self, tag: int, body) -> None:
        assert tag == TAG_JSON
        op = protocol.decode_json_op(body)
        if op["op"] == "fragment":
            self.fragments_in += 1
            unit = self._reassembler.add(op)
            if unit is not None:
                self._unit(*unit)
        else:
            self.ops.append(op)

    def expect(self, **match) -> dict:
        """The first received op carrying every ``match`` item."""
        seen = 0
        while True:
            for op in self.ops[seen:]:
                if all(op.get(key) == value for key, value in match.items()):
                    return op
            seen = len(self.ops)
            data = self.sock.recv(65536)
            assert data, f"connection closed before {match}"
            events = self.decoder.feed(data)
            for tag, body, _wire in self.framing.units(
                events, lambda parts: None
            ):
                self._unit(tag, body)


def _accept(server, server_framing, client_framing, policy) -> tuple:
    ours, theirs = socket.socketpair()
    session = server.accept_session(
        theirs, f"{server_framing.name}:test", server_framing, policy
    )
    return Peer(ours, client_framing), session


def _image(height: int, width: int):
    msg = Image()
    msg.height, msg.width = height, width
    msg.encoding = "rgb8"
    msg.data.resize(64)
    return msg


def _stall_until_evicted(graph, server, name: str) -> None:
    """The peer has stopped reading: flood its echo subscription until
    the policy evicts it."""
    flood = graph.node(f"flood_{name}").advertise(ECHO_TOPIC, L.String)
    try:
        msg = L.String()
        msg.data = "y" * 100_000

        def evicted() -> bool:
            flood.publish(msg)
            return server.evictions == 1

        wait_until(evicted, timeout=20.0, desc="stalled peer evicted")
    finally:
        flood.unadvertise()
    assert server.tally("evicted", name) == 1
    assert server.stats_snapshot()["evictions"] == 1
    wait_until(lambda: server.stats_snapshot()["clients"] == 0,
               desc="evicted session gone")


#: Burst 3: subscribe, advertise, subscribe pass; the fourth is refused.
POLICY = Policy(rate_limits={"subscribe": (0.001, 3)}, queue_length=2,
                high_watermark=4, evict_strikes=3)

#: What every framing must say, op for op.
EXPECTED = [
    {"op": "hello_ok", "version": "2.0", "codec": "json",
     "max_frame": 1024, "id": "h"},
    {"op": "subscribe_ok", "id": "s1", "sid": 1, "topic": IMAGE_TOPIC,
     "codec": "json", "mode": "sfm-offset"},
    {"op": "publish", "sid": 1, "topic": IMAGE_TOPIC,
     "msg": {"height": 3, "width": 4}},
    {"op": "advertise_ok", "id": "a1", "topic": ECHO_TOPIC, "chan": 1},
    {"op": "subscribe_ok", "id": "s2", "sid": 2, "topic": ECHO_TOPIC,
     "codec": "json", "mode": "full"},
    {"op": "publish", "sid": 2, "topic": ECHO_TOPIC, "msg": {"data": BIG}},
    {"op": "status", "level": "warning", "id": "s3",
     "msg": "op 'subscribe' rate limited; retry later"},
]

SUBSCRIBE_IMAGE = {
    "op": "subscribe", "id": "s1", "topic": IMAGE_TOPIC,
    "type": "sensor_msgs/Image@sfm", "fields": ["height", "width"],
}
SUBSCRIBE_ECHO = {
    "op": "subscribe", "id": "s2", "topic": ECHO_TOPIC,
    "type": "std_msgs/String",
}


@pytest.mark.parametrize("row", ["tcp", "ws"])
def test_session_transcript_is_the_same_on_every_framing(graph, server, row):
    server_framing, client_framing = {
        "tcp": (LengthPrefixed(), LengthPrefixed()),
        "ws": (WebSocket(mask=False), WebSocket(mask=True)),
    }[row]
    peer, session = _accept(server, server_framing, client_framing, POLICY)
    pub = graph.node(f"session_pub_{row}").advertise(IMAGE_TOPIC, Image)
    try:
        script = []
        peer.send({"op": "hello", "id": "h", "max_frame": 1024})
        script.append(peer.expect(id="h"))
        peer.max_frame = 1024

        peer.send(SUBSCRIBE_IMAGE)
        script.append(peer.expect(id="s1"))
        assert pub.wait_for_subscribers(1)
        pub.publish(_image(3, 4))
        script.append(peer.expect(op="publish", sid=1))

        # An oversized unit is fragmented in both directions: up by the
        # peer's unit_parts, down by the session's.
        peer.send({"op": "advertise", "id": "a1", "topic": ECHO_TOPIC,
                   "type": "std_msgs/String"})
        script.append(peer.expect(id="a1"))
        peer.send(SUBSCRIBE_ECHO)
        script.append(peer.expect(id="s2"))
        echoed: list = []

        def echo_arrives() -> bool:
            # The bridge node's tap dials its own publisher: repeat
            # until that link is up.
            assert peer.send({"op": "publish", "topic": ECHO_TOPIC,
                              "msg": {"data": BIG}}) > 1
            peer.sock.settimeout(0.2)
            try:
                echoed.append(peer.expect(op="publish", sid=2))
            except socket.timeout:
                return False
            finally:
                peer.sock.settimeout(10.0)
            return True

        wait_until(echo_arrives, desc="fragmented echo")
        script.append(echoed[0])
        assert peer.fragments_in > 1

        peer.send(dict(SUBSCRIBE_ECHO, id="s3"))
        script.append(peer.expect(id="s3"))
        assert server.tally("subscribe", row) == 1
        assert session.describe()["transport"] == row

        assert script == EXPECTED
        _stall_until_evicted(graph, server, row)
        assert session.evicted
    finally:
        pub.unadvertise()
        peer.sock.close()


def test_session_transcript_deliver_only_steps_over_sse(graph, server):
    """SSE reads nothing: its subscriptions are made for it (as the front
    door does from the query string); what it delivers is the same."""
    peer, session = _accept(server, ServerSentEvents(), _SseEvents(), POLICY)
    pub = graph.node("session_pub_sse").advertise(IMAGE_TOPIC, Image)
    try:
        server.handle_op(session, SUBSCRIBE_IMAGE)
        assert peer.expect(id="s1") == EXPECTED[1]
        assert pub.wait_for_subscribers(1)
        pub.publish(_image(3, 4))
        assert peer.expect(op="publish", sid=1) == EXPECTED[2]
        server.handle_op(session, SUBSCRIBE_ECHO)
        assert peer.expect(id="s2") == EXPECTED[4]
        _stall_until_evicted(graph, server, "sse")
    finally:
        pub.unadvertise()
        peer.sock.close()


# ----------------------------------------------------------------------
# What a pending connection costs
# ----------------------------------------------------------------------
def test_silent_tcp_connections_cost_no_threads_and_are_dropped(
    graph, server, monkeypatch
):
    monkeypatch.setattr(server_mod, "HELLO_TIMEOUT", 1.0)
    accepted: list = []
    accept_session = server.accept_session
    monkeypatch.setattr(
        server, "accept_session",
        lambda *args: accepted.append(accept_session(*args)),
    )
    before = threading.active_count()
    socks = [socket.create_connection((server.host, server.port))
             for _ in range(200)]
    try:
        wait_until(lambda: len(accepted) == 200, desc="200 accepted")
        assert threading.active_count() - before <= 2
        # None of them ever says hello: the reactor timer drops them all.
        wait_until(lambda: server.stats_snapshot()["clients"] == 0,
                   desc="silent connections dropped")
        assert all(session.closed for session in accepted)
        for sock in socks:
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
    finally:
        for sock in socks:
            sock.close()


def test_ws_session_spawns_one_transient_thread(graph, server, monkeypatch):
    loop = reactor_mod.global_reactor()
    spawn_blocking = loop.spawn_blocking
    spawned: list = []

    def counting(fn, name: str) -> None:
        spawned.append(name)
        spawn_blocking(fn, name)

    monkeypatch.setattr(loop, "spawn_blocking", counting)
    frontend = server.enable_ws()
    with WsBridgeClient(server.host, frontend.port) as client:
        assert client.stats()["clients_by_transport"] == {"ws": 1}
    assert [name.partition(":")[0] for name in spawned
            if name.startswith("bridge")] == ["bridge-ws-hs"]
