"""Bridge gateway end-to-end: graph + server + clients over real sockets.

Includes the acceptance-criteria witness: a selective-field subscription
is served by the compiled SFM offset readers with **no full
deserialization** (the decode paths are poisoned and extraction still
works).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bridge.client import BridgeClient, BridgeError
from repro.bridge.server import BridgeServer
from repro.msg import library as L
from repro.msg.registry import default_registry
from repro.msg.srv import service_type
from repro.ros.graph import RosGraph
from repro.sfm.generator import generate_sfm_class

Image = generate_sfm_class("sensor_msgs/Image", default_registry)


@pytest.fixture(scope="module")
def graph():
    with RosGraph() as running:
        yield running


@pytest.fixture(scope="module")
def server(graph):
    with BridgeServer(graph.master_uri) as running:
        yield running


@pytest.fixture
def client(server):
    with BridgeClient(server.host, server.port) as connected:
        yield connected


def _collect(count: int):
    """A callback + waiter pair for bridge deliveries."""
    received: list = []
    done = threading.Event()

    def on_message(msg, meta) -> None:
        received.append((msg, meta))
        if len(received) >= count:
            done.set()

    return received, done, on_message


def _image(height: int = 480, width: int = 640, data_len: int = 4096):
    msg = Image()
    msg.height = height
    msg.width = width
    msg.encoding = "rgb8"
    msg.data.resize(data_len)
    return msg


_TOPICS = iter(f"/bridge_t{i}" for i in range(100))


@pytest.fixture
def topic(graph):
    return next(_TOPICS)


def _publisher(graph, topic, msg_class=Image, **kwargs):
    node = graph.node(f"pub{topic.replace('/', '_')}")
    return node.advertise(topic, msg_class, **kwargs)


def test_selective_subscription_uses_sfm_offsets_not_deserialization(
    graph, server, client, topic, monkeypatch
):
    """The headline acceptance test: fields are sliced by offset; every
    full-decode path is poisoned and delivery still works."""
    from repro.ros.codecs import RosCodec
    from repro.rossf.serializer import SfmCodec
    from repro.sfm.message import SFMMessage

    def _poisoned(*_args, **_kwargs):
        raise AssertionError("full deserialization ran on the bridge path")

    monkeypatch.setattr(SfmCodec, "decode", _poisoned)
    monkeypatch.setattr(SfmCodec, "decode_external", _poisoned)
    monkeypatch.setattr(RosCodec, "decode", _poisoned)
    monkeypatch.setattr(SFMMessage, "to_plain", _poisoned)
    monkeypatch.setattr(SFMMessage, "from_buffer", classmethod(_poisoned))

    pub = _publisher(graph, topic)
    received, done, on_message = _collect(2)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                     fields=["height", "width"])
    assert pub.wait_for_subscribers(1)
    pub.publish(_image(1080, 1920, data_len=1 << 20))
    pub.publish(_image(4, 8, data_len=16))
    assert done.wait(10)
    assert received[0][0] == {"height": 1080, "width": 1920}
    assert received[1][0] == {"height": 4, "width": 8}
    # the selector's extraction counter is the positive witness
    tap = server._taps[(topic, "sensor_msgs/Image@sfm")]
    selectors = [
        sub.selector for sub in tap._subs if sub.selector is not None
    ]
    assert selectors and all(s.extracts >= 2 for s in selectors)


def test_selective_wire_bytes_are_tiny(graph, server, client, topic):
    pub = _publisher(graph, topic)
    small, done_small, on_small = _collect(1)
    full, done_full, on_full = _collect(1)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_small,
                     fields=["height", "width"])
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_full)
    assert pub.wait_for_subscribers(1)
    pub.publish(_image(data_len=1 << 20))
    assert done_small.wait(10) and done_full.wait(10)
    assert small[0][1]["wire_bytes"] * 100 < full[0][1]["wire_bytes"]


def test_raw_codec_forwards_sfm_bytes_untouched(graph, server, client, topic):
    pub = _publisher(graph, topic)
    received, done, on_message = _collect(1)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_message, codec="raw")
    assert pub.wait_for_subscribers(1)
    msg = _image(7, 9, data_len=64)
    expected = bytes(msg.to_wire())
    pub.publish(msg)
    assert done.wait(10)
    payload = received[0][0]
    assert isinstance(payload, bytes)
    assert payload == expected
    # the forwarded buffer adopts back into a live SFM view
    adopted = Image.from_buffer(bytearray(payload))
    assert adopted.height == 7 and adopted.width == 9


def test_cbin_codec_roundtrip(graph, server, client, topic):
    pub = _publisher(graph, topic)
    received, done, on_message = _collect(1)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                     fields=["height", "encoding"], codec="cbin")
    assert pub.wait_for_subscribers(1)
    pub.publish(_image(33, data_len=512))
    assert done.wait(10)
    msg, meta = received[0]
    assert msg == {"height": 33, "encoding": "rgb8"}
    assert meta["wire_bytes"] < 64


def test_client_json_publish_reaches_graph(graph, server, client, topic):
    node = graph.node(f"sub{topic.replace('/', '_')}")
    seen = []
    got = threading.Event()
    sub = node.subscribe(topic, L.String, lambda m: (seen.append(m),
                                                     got.set()))
    client.advertise(topic, "std_msgs/String")
    assert sub.wait_for_publishers(1)
    # Re-publish until delivery: the subscriber counts the link a moment
    # before the publisher's fan-out list includes it.
    deadline = time.monotonic() + 10
    while not got.wait(0.25) and time.monotonic() < deadline:
        client.publish(topic, {"data": "from outside"})
    assert got.is_set()
    assert seen[0].data == "from outside"


def test_client_raw_publish_is_serialization_free_both_ways(
    graph, server, client, topic
):
    """SFM bytes from a raw subscription republish through the gateway
    without any per-field conversion."""
    node = graph.node(f"sub{topic.replace('/', '_')}")
    seen = []
    got = threading.Event()
    node.subscribe(topic, Image, lambda m: (seen.append(m.height), got.set()))
    client.advertise(topic, "sensor_msgs/Image@sfm")
    payload = bytes(_image(123, data_len=2048).to_wire())
    deadline = time.monotonic() + 10
    while not got.is_set() and time.monotonic() < deadline:
        client.publish_raw(topic, payload)
        got.wait(0.2)
    assert seen and seen[0] == 123


def test_throttle_rate_limits_delivery(graph, server, client, topic):
    pub = _publisher(graph, topic)
    received, _done, on_message = _collect(10**9)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                     fields=["height"], throttle_rate=10_000)
    assert pub.wait_for_subscribers(1)
    for _ in range(20):
        pub.publish(_image(data_len=16))
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        stats = client.stats()
        sub = [s for s in stats["subscriptions"]
               if s["topic"] == topic][0]
        if sub["sent"] + sub["throttled"] >= 20:
            break
        time.sleep(0.05)
    assert sub["sent"] == 1
    assert sub["throttled"] == 19
    assert len(received) == 1


def test_queue_length_drops_oldest(graph, server, topic):
    """A slow client with queue_length=1 keeps only the newest delivery:
    a raw-socket client that never reads lets the kernel buffers fill,
    the session's write buffer stops flushing, and the bounded queue
    sheds the oldest."""
    import socket as socket_mod

    from repro.bridge import protocol

    pub = _publisher(graph, topic)
    sock = socket_mod.create_connection((server.host, server.port),
                                        timeout=10)
    try:
        protocol.write_bridge_frame(
            sock, protocol.TAG_JSON,
            protocol.encode_json_op({"op": "hello", "id": "h"}),
        )
        reply = protocol.decode_json_op(protocol.read_bridge_frame(sock)[1])
        assert reply["op"] == "hello_ok"
        protocol.write_bridge_frame(
            sock, protocol.TAG_JSON,
            protocol.encode_json_op({
                "op": "subscribe", "id": "s", "topic": topic,
                "type": "sensor_msgs/Image@sfm", "queue_length": 1,
            }),
        )
        ack = protocol.decode_json_op(protocol.read_bridge_frame(sock)[1])
        assert ack["op"] == "subscribe_ok"
        session = server._sessions[-1]
        sub = session.subscriptions[ack["sid"]]
        assert pub.wait_for_subscribers(1)
        total = 30
        for height in range(total):
            pub.publish(_image(height, data_len=1 << 20))
        # full-JSON Images are ~1.4MB each: the unread socket saturates
        # and the fan-out must shed.  Wait until every message is
        # accounted for as sent, dropped, queued or in flight.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            queued = sub.queued
            if sub.sent + sub.dropped + queued >= total - 1:
                break
            time.sleep(0.05)
        assert queued <= 1  # the bound held
        assert sub.dropped >= 1  # and the oldest were shed
    finally:
        sock.close()


def test_fragmentation_end_to_end(graph, server, topic):
    """A small negotiated max_frame splits a full-JSON Image delivery
    into fragments the client reassembles."""
    pub = _publisher(graph, topic)
    with BridgeClient(server.host, server.port, max_frame=2048) as small:
        assert small.max_frame == 2048
        received, done, on_message = _collect(1)
        small.subscribe(topic, "sensor_msgs/Image@sfm", on_message)
        assert pub.wait_for_subscribers(1)
        pub.publish(_image(5, 6, data_len=8192))
        assert done.wait(10)
        msg, meta = received[0]
        assert msg["height"] == 5 and msg["width"] == 6
        # reassembled wire accounting covers every fragment frame
        assert meta["wire_bytes"] > 8192


def test_malformed_ops_produce_error_statuses(server, client):
    client._send_op({"op": "subscribe", "topic": "/x"})  # missing type
    client._send_op({"op": "frobnicate"})
    client._send_op({"op": "publish", "topic": "/nope", "msg": {}})
    deadline = time.monotonic() + 5
    while len(client.statuses) < 3 and time.monotonic() < deadline:
        time.sleep(0.05)
    messages = [s["msg"] for s in client.statuses]
    assert any("missing required field 'type'" in m for m in messages)
    assert any("unknown op" in m for m in messages)
    assert any("not advertised" in m for m in messages)
    assert all(s["level"] == "error" for s in client.statuses)


def test_subscribe_errors_are_reported_to_requests(server, client):
    with pytest.raises(BridgeError, match="unknown"):
        client.subscribe("/t", "no_such/Type", lambda *a: None)
    with pytest.raises(BridgeError, match="cbin"):
        client.subscribe("/t", "sensor_msgs/Image@sfm", lambda *a: None,
                         codec="cbin")  # cbin without fields
    with pytest.raises(BridgeError, match="raw"):
        client.subscribe("/t", "sensor_msgs/Image@sfm", lambda *a: None,
                         codec="raw", fields=["height"])
    with pytest.raises(BridgeError, match="no field"):
        client.subscribe("/t", "sensor_msgs/Image@sfm", lambda *a: None,
                         fields=["bogus_field"])


def test_plain_topic_field_paths_validated_at_subscribe(server, client):
    """A bad 'fields' path on a plain (non-SFM) topic is this client's
    subscribe error, not a later per-message failure in the tap."""
    with pytest.raises(BridgeError, match="no field"):
        client.subscribe("/t", "std_msgs/Header", lambda *a: None,
                         fields=["bogus_field"])
    with pytest.raises(BridgeError, match="descends through"):
        client.subscribe("/t", "std_msgs/Header", lambda *a: None,
                         fields=["frame_id.x"])
    with pytest.raises(BridgeError, match="no field"):
        client.subscribe("/t", "geometry_msgs/PoseStamped",
                         lambda *a: None, fields=["pose.position.w"])
    # valid nested descent is accepted (and cleaned up)
    sid = client.subscribe("/plain_paths_ok", "geometry_msgs/PoseStamped",
                           lambda *a: None, fields=["pose.position.x"])
    client.unsubscribe(sid=sid)


def test_delivery_failure_drops_only_offending_subscription(
    graph, server, client, topic
):
    """A per-subscription delivery failure must not kill the shared
    inbound link: the offender is dropped with an error status and every
    other bridge subscription keeps receiving."""
    pub = _publisher(graph, topic, L.Header)
    good, done, on_good = _collect(2)
    with BridgeClient(server.host, server.port) as victim:
        client.subscribe(topic, "std_msgs/Header", on_good, fields=["seq"])
        bad_sid = victim.subscribe(topic, "std_msgs/Header",
                                   lambda *a: None, fields=["seq"])
        assert pub.wait_for_subscribers(1)
        # sabotage the victim's subscription past subscribe validation,
        # simulating any unexpected per-delivery failure
        session = [s for s in server._sessions
                   if bad_sid in s.subscriptions][0]
        session.subscriptions[bad_sid].fields = ["bogus_field"]
        deadline = time.monotonic() + 10
        while not done.is_set() and time.monotonic() < deadline:
            pub.publish(L.Header(seq=7, frame_id="f"))
            done.wait(0.2)
        assert done.is_set()  # the healthy subscription kept receiving
        assert good[-1][0] == {"seq": 7}
        deadline = time.monotonic() + 5
        while (bad_sid in session.subscriptions
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert bad_sid not in session.subscriptions  # offender dropped
        deadline = time.monotonic() + 5
        while not victim.statuses and time.monotonic() < deadline:
            time.sleep(0.05)
        assert any("dropped" in s["msg"] for s in victim.statuses)
        tap = server._taps[(topic, "std_msgs/Header")]
        assert len(tap._subs) == 1  # the healthy one


def test_out_of_range_publish_is_an_error_status_not_a_disconnect(
    graph, server, client, topic
):
    """A JSON value that fits the type checks but not the wire range
    (2**40 into a uint32) fails the op, not the session."""
    node = graph.node(f"sub{topic.replace('/', '_')}")
    seen = []
    got = threading.Event()
    sub = node.subscribe(topic, L.UInt32, lambda m: (seen.append(m.data),
                                                     got.set()))
    client.advertise(topic, "std_msgs/UInt32")
    assert sub.wait_for_publishers(1)
    # Re-publish until the error status lands: with no connected link
    # yet the publisher skips encoding and the bad value is a no-op.
    deadline = time.monotonic() + 10
    while not client.statuses and time.monotonic() < deadline:
        client.publish(topic, {"data": 2 ** 40})
        time.sleep(0.1)
    assert client.statuses and client.statuses[0]["level"] == "error"
    # the session survived: a well-ranged publish still goes through
    deadline = time.monotonic() + 10
    while not got.wait(0.25) and time.monotonic() < deadline:
        client.publish(topic, {"data": 41})
    assert got.is_set() and seen[0] == 41


def test_hello_max_frame_is_clamped_to_protocol_bound(server):
    from repro.bridge import protocol

    with BridgeClient(server.host, server.port,
                      max_frame=protocol.MAX_FRAME * 4) as greedy:
        # hello_ok echoes the clamped value and the client adopts it
        assert greedy.max_frame == protocol.MAX_FRAME


def test_call_service_roundtrip(graph, server, client):
    node = graph.node("srv_provider")
    srv = service_type("rossf_bench/AddTwoInts")
    node.advertise_service(
        "/bridge_add", srv,
        lambda req: srv.response_class(sum=req.a + req.b),
    )
    values = client.call_service("/bridge_add", "rossf_bench/AddTwoInts",
                                 {"a": 2, "b": 40})
    assert values == {"sum": 42}


def test_call_service_failure_reports_error(server, client):
    with pytest.raises(BridgeError):
        client.call_service("/no_such_service", "rossf_bench/AddTwoInts",
                            {"a": 1, "b": 2}, timeout=2.0)


def test_unsubscribe_releases_tap(graph, server, client, topic):
    pub = _publisher(graph, topic)
    _received, _done, on_message = _collect(1)
    sid = client.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                           fields=["height"])
    assert pub.wait_for_subscribers(1)
    assert (topic, "sensor_msgs/Image@sfm") in server._taps
    client.unsubscribe(sid=sid)
    deadline = time.monotonic() + 5
    while ((topic, "sensor_msgs/Image@sfm") in server._taps
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert (topic, "sensor_msgs/Image@sfm") not in server._taps


def test_stats_surfaces_link_errors(graph, server, client, topic):
    """A type-mismatched publisher shows up in stats link_errors -- the
    satellite wiring of Subscriber.link_errors through the gateway."""
    node = graph.node(f"plainpub{topic.replace('/', '_')}")
    node.advertise(topic, L.Image)  # plain codec on the wire
    _received, _done, on_message = _collect(1)
    client.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                     fields=["height"])  # sfm format: handshake must fail
    deadline = time.monotonic() + 10
    errors = {}
    while time.monotonic() < deadline:
        errors = client.stats()["link_errors"]
        if topic in errors:
            break
        time.sleep(0.1)
    assert topic in errors
    assert any("format" in text for text in errors[topic].values())


def test_disconnect_cleans_up_session(graph, server, topic):
    pub = _publisher(graph, topic)
    ephemeral = BridgeClient(server.host, server.port)
    _received, _done, on_message = _collect(1)
    ephemeral.subscribe(topic, "sensor_msgs/Image@sfm", on_message,
                        fields=["height"])
    assert pub.wait_for_subscribers(1)
    before = len(server._sessions)
    ephemeral.close()
    deadline = time.monotonic() + 5
    while len(server._sessions) >= before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(server._sessions) < before
    deadline = time.monotonic() + 5
    while ((topic, "sensor_msgs/Image@sfm") in server._taps
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert (topic, "sensor_msgs/Image@sfm") not in server._taps


def test_hello_rejects_unknown_codec(server):
    with pytest.raises(BridgeError, match="codec"):
        BridgeClient(server.host, server.port, codec="telepathy")
