"""TZC wire parity: partial serialization must be invisible on the wire.

For every registered type the TZC split (control segment + bulk ranges)
is encoded with the production encoder (``split_batch_parts``) and fed
to the production decoder (``SplitDecoder``) whole, byte-at-a-time and
at seeded random splits; the reassembled buffer must be byte-for-byte
identical to the classic serialized wire under every partition, and the
adopted message must read back the same fields.  Also covered: traced
framing, zero-length vectors, big-endian adoption, nav_msgs/Path
nesting, the abuse bounds (range-table caps, gap arithmetic, the
per-link bulk budget), and one full pub/sub leg through RouteD's mux.
"""

import random
import threading

import pytest

import repro.msg.library  # noqa: F401 - registers the standard types
from repro.msg.fields import (
    ArrayType,
    ComplexType,
    MapType,
    PrimitiveType,
    StringType,
)
from repro.msg.registry import default_registry
from repro.ros.exceptions import ConnectionHandshakeError
from repro.ros.transport import tzc
from repro.sfm.generator import sfm_class_for
from repro.sfm.layout import convert_endianness
from tests.conftest import feed_splits

ALL_TYPES = default_registry.names()


# ----------------------------------------------------------------------
# Deterministic sample values (the codegen-parity strategy)
# ----------------------------------------------------------------------
def _primitive_value(prim: PrimitiveType, rng: random.Random):
    fmt = prim.struct_fmt
    if fmt in ("II", "ii"):
        return (rng.randrange(0, 2**31), rng.randrange(0, 10**9))
    if fmt == "?":
        return bool(rng.getrandbits(1))
    if fmt == "f":
        return rng.randrange(-4096, 4096) / 8.0
    if fmt == "d":
        return rng.random() * 1000.0 - 500.0
    lo, hi = prim.range()
    return rng.randrange(lo, hi + 1)


def _value_for(ftype, rng: random.Random, depth: int = 0):
    if isinstance(ftype, PrimitiveType):
        return _primitive_value(ftype, rng)
    if isinstance(ftype, StringType):
        alphabet = "abcdefghij é"
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 12))
        )
    if isinstance(ftype, ArrayType):
        count = (
            ftype.length
            if ftype.length is not None
            else rng.randrange(0, 4 if depth else 6)
        )
        return [
            _value_for(ftype.element_type, rng, depth + 1)
            for _ in range(count)
        ]
    if isinstance(ftype, MapType):
        return {
            _value_for(ftype.key_type, rng, depth + 1):
                _value_for(ftype.value_type, rng, depth + 1)
            for _ in range(rng.randrange(0, 4))
        }
    if isinstance(ftype, ComplexType):
        return _values_for_type(ftype.name, rng, depth + 1)
    raise TypeError(f"no value strategy for {ftype!r}")


def _values_for_type(type_name: str, rng: random.Random,
                     depth: int = 0) -> dict:
    spec = default_registry.get(type_name)
    return {
        field.name: _value_for(field.type, rng, depth)
        for field in spec.fields
    }


def _populated(type_name: str, seed: str):
    cls = sfm_class_for(type_name)
    msg = cls()
    for name, value in _values_for_type(
        type_name, random.Random(seed)
    ).items():
        setattr(msg, name, value)
    return msg


# ----------------------------------------------------------------------
# Wire round trip
# ----------------------------------------------------------------------
def _decode(wire: bytes, budget=None, traced: bool = False):
    """``wire`` through :class:`tzc.SplitDecoder` under every partition
    (whole, byte-at-a-time, seeded random splits): ``(events, error)``.
    One budget serves all partitions, so a leaked charge would fail the
    later ones."""
    if budget is None:
        budget = tzc.BulkBudget()
    return feed_splits(
        lambda: tzc.SplitDecoder(budget, traced=traced), wire
    )


def _roundtrip(layout, wire: bytes, byte_order: str = "<",
               traced: bool = False, trace_id: int = 0,
               min_bulk: int = tzc.MIN_BULK):
    """Split ``wire``, encode it for the socket, decode it back."""
    parts = tzc.split_message(
        layout, wire, len(wire), byte_order=byte_order, min_bulk=min_bulk
    )
    framed = b"".join(
        tzc.split_batch_parts([(parts, trace_id, 7)], traced=traced)
    )
    events, error = _decode(framed, traced=traced)
    assert error is None
    ((kind, *result),) = events
    assert kind == "message"
    return tuple(result)


# ----------------------------------------------------------------------
# The all-types sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("type_name", ALL_TYPES)
def test_reassembly_matches_classic_wire(type_name):
    msg = _populated(type_name, "tzc:" + type_name)
    wire = bytes(msg.to_wire())
    cls = type(msg)
    # A small threshold forces real bulk ranges even on small samples.
    buffer, order, _tid, _ns = _roundtrip(
        cls._layout, wire, min_bulk=8
    )
    assert order == "<"
    assert bytes(buffer) == wire, f"{type_name}: TZC wire diverged"
    adopted = cls.from_buffer(buffer)
    assert bytes(adopted.to_wire()) == wire


@pytest.mark.parametrize("type_name", ALL_TYPES)
def test_zero_length_vectors(type_name):
    """A default-constructed message (every vector empty) survives the
    split: no bulk ranges, everything rides in the control segment."""
    cls = sfm_class_for(type_name)
    wire = bytes(cls().to_wire())
    buffer, _order, _tid, _ns = _roundtrip(cls._layout, wire)
    assert bytes(buffer) == wire


def test_traced_control_frame_carries_identity():
    msg = _populated("sensor_msgs/Image", "tzc:traced")
    wire = bytes(msg.to_wire())
    buffer, _order, trace_id, stamp_ns = _roundtrip(
        type(msg)._layout, wire, traced=True, trace_id=0xDEADBEEF
    )
    assert bytes(buffer) == wire
    assert trace_id == 0xDEADBEEF and stamp_ns == 7


def test_large_payload_bulk_ranges():
    """A 1 MB image actually exercises the bulk path (ranges above the
    default threshold, scatter-read into place)."""
    cls = sfm_class_for("sensor_msgs/Image")
    msg = cls()
    msg.height, msg.width, msg.step = 512, 512, 2048
    msg.encoding = "bgr8"
    payload = bytes(range(256)) * 4096  # 1 MiB
    msg.data = payload
    wire = bytes(msg.to_wire())
    parts = tzc.split_message(cls._layout, wire, len(wire))
    assert parts.bulk_len >= len(payload)
    assert len(parts.control) < len(wire) - parts.bulk_len + 64
    buffer, _order, _tid, _ns = _roundtrip(cls._layout, wire)
    assert bytes(buffer) == wire
    adopted = cls.from_buffer(buffer)
    assert bytes(adopted.data) == payload


def test_big_endian_adoption():
    """A foreign publisher's byte order survives the split: the receiver
    reassembles the big-endian bytes exactly, then the adopt converts in
    place once."""
    for type_name in ("sensor_msgs/Image", "nav_msgs/Odometry",
                      "sensor_msgs/PointCloud2"):
        cls = sfm_class_for(type_name)
        msg = _populated(type_name, "tzc:be:" + type_name)
        wire = bytes(msg.to_wire())
        big = bytearray(wire)
        convert_endianness(cls._layout, big, "<", ">")
        buffer, order, _tid, _ns = _roundtrip(
            cls._layout, bytes(big), byte_order=">", min_bulk=8
        )
        assert order == ">"
        assert bytes(buffer) == bytes(big)
        adopted = cls.from_buffer(buffer, byte_order=">")
        assert bytes(adopted.to_wire()) == wire


def test_nav_msgs_path_nesting():
    """Path nests Header + PoseStamped[] (strings inside vector
    elements): their contents ride in the gaps, byte-complete."""
    cls = sfm_class_for("nav_msgs/Path")
    msg = cls()
    msg.header.frame_id = "map"
    poses = []
    for index in range(5):
        values = _values_for_type(
            "geometry_msgs/PoseStamped", random.Random(f"pose{index}")
        )
        values["header"]["frame_id"] = f"wp_{index}"
        poses.append(values)
    msg.poses = poses
    wire = bytes(msg.to_wire())
    buffer, _order, _tid, _ns = _roundtrip(cls._layout, wire, min_bulk=8)
    assert bytes(buffer) == wire
    adopted = cls.from_buffer(buffer)
    assert str(adopted.header.frame_id) == "map"
    assert len(adopted.poses) == 5
    for index, pose in enumerate(adopted.poses):
        assert str(pose.header.frame_id) == f"wp_{index}"
        assert pose.pose.position.x == poses[index]["pose"]["position"]["x"]


# ----------------------------------------------------------------------
# Abuse bounds (the Reassembler lesson)
# ----------------------------------------------------------------------
class TestAbuseBounds:
    def _control(self, **overrides):
        fields = {
            "magic": tzc.CONTROL_MAGIC, "order": 0, "flags": 0,
            "n_ranges": 0, "whole": 16,
        }
        fields.update(overrides)
        header = tzc._CONTROL.pack(
            fields["magic"], fields["order"], fields["flags"],
            fields["n_ranges"], fields["whole"],
        )
        return header + fields.get("tail", bytes(fields["whole"]))

    def test_bad_magic_rejected(self):
        with pytest.raises(ConnectionHandshakeError, match="magic"):
            tzc.parse_control(self._control(magic=0x1234))

    def test_oversize_whole_rejected_before_allocation(self):
        with pytest.raises(ConnectionHandshakeError, match="exceeds"):
            tzc.parse_control(
                self._control(whole=tzc.MAX_FRAME + 1, tail=b"")
            )

    def test_range_count_cap(self):
        with pytest.raises(ConnectionHandshakeError, match="range table"):
            tzc.parse_control(
                self._control(n_ranges=tzc.MAX_RANGES + 1, tail=b"")
            )

    def test_overlapping_ranges_rejected(self):
        table = tzc._RANGE.pack(0, 12) + tzc._RANGE.pack(8, 8)
        control = self._control(n_ranges=2, tail=table)
        with pytest.raises(ConnectionHandshakeError, match="out of order"):
            tzc.parse_control(control)

    def test_out_of_bounds_range_rejected(self):
        table = tzc._RANGE.pack(8, 16)  # past whole=16
        control = self._control(n_ranges=1, tail=table)
        with pytest.raises(ConnectionHandshakeError, match="out of order"):
            tzc.parse_control(control)

    def test_gap_arithmetic_must_balance(self):
        # Claims a 4-byte gap short of what the layout needs.
        table = tzc._RANGE.pack(4, 8)
        control = self._control(n_ranges=1, tail=table + bytes(4))
        with pytest.raises(ConnectionHandshakeError, match="gap bytes"):
            tzc.parse_control(control)

    def test_bulk_budget_bounds_inflight_bytes(self):
        budget = tzc.BulkBudget(limit=1000)
        budget.charge(900)
        with pytest.raises(ConnectionHandshakeError, match="budget"):
            budget.charge(200)
        assert budget.rejected == 1
        budget.release(900)
        budget.charge(1000)  # fits again after release

    @staticmethod
    def _image_parts(data: bytes):
        cls = sfm_class_for("sensor_msgs/Image")
        msg = cls()
        msg.data = data
        wire = bytes(msg.to_wire())
        return wire, tzc.split_message(cls._layout, wire, len(wire))

    def test_decoder_charges_and_releases_budget(self):
        wire, parts = self._image_parts(bytes(range(256)) * 16)  # 4 KiB bulk
        assert parts.bulk_len > 0
        framed = b"".join(tzc.split_batch_parts([(parts, 0, 0)]))
        budget = tzc.BulkBudget(limit=parts.bulk_len)
        decoder = tzc.SplitDecoder(budget)
        assert decoder.feed(framed[:-1]) == []
        assert budget.pending == parts.bulk_len  # charged while in flight
        ((_kind, buffer, _o, _t, _n),) = decoder.feed(framed[-1:])
        assert bytes(buffer) == wire
        assert budget.pending == 0  # released after reassembly
        # ... under every partition (an exactly-sized budget would reject
        # the second message of any partition that leaked its charge).
        events, error = _decode(framed + framed, budget)
        assert error is None
        assert [bytes(ev[1]) for ev in events] == [wire, wire]
        assert budget.pending == 0 and budget.rejected == 0

    def test_decoder_rejects_over_budget_message(self):
        _wire, parts = self._image_parts(bytes(4096))
        framed = b"".join(tzc.split_batch_parts([(parts, 0, 0)]))
        budget = tzc.BulkBudget(limit=parts.bulk_len - 1)
        events, error = _decode(framed, budget)
        assert events == []
        assert error is not None and error[0] is ConnectionHandshakeError
        assert "budget" in error[1]
        assert budget.pending == 0  # rejected before anything was charged

    def test_truncated_stream_yields_nothing(self):
        """A stream cut mid-message (control, bulk length or bulk bytes)
        produces no event and no error: the decoder just waits, and the
        link's EOF/idle timeout is what ends it."""
        wire, parts = self._image_parts(bytes(2048))
        framed = b"".join(tzc.split_batch_parts([(parts, 0, 0)]))
        control_end = 4 + len(parts.control)
        for cut in (2, control_end - 1, control_end + 2, len(framed) - 1):
            assert _decode(framed[:cut]) == ([], None)
        events, error = _decode(framed + framed[: control_end + 2])
        assert error is None
        assert [bytes(ev[1]) for ev in events] == [wire]

    def test_bulk_frame_length_must_match_control(self):
        _wire, parts = self._image_parts(bytes(2048))
        import struct as _struct
        lying = (
            _struct.pack("<I", len(parts.control)) + parts.control
            + _struct.pack("<I", parts.bulk_len + 4)
            + b"".join(bytes(v) for v in parts.bulk) + bytes(4)
        )
        events, error = _decode(lying)
        assert events == []
        assert error is not None and error[0] is ConnectionHandshakeError
        assert "does not match" in error[1]


# ----------------------------------------------------------------------
# Through RouteD's mux
# ----------------------------------------------------------------------
@pytest.mark.skipif(not tzc.tzc_enabled(),
                    reason="REPRO_TZC=0 disables negotiation")
def test_tzc_streams_through_routed_mux():
    """A remote SFM link spliced through the host-pair mux still
    negotiates TZC and delivers byte-correct messages."""
    from repro.graphplane.routed import RouteD
    from repro.ros.master import Master
    from repro.ros.node import NodeHandle
    from repro.ros.retry import wait_until

    cls = sfm_class_for("sensor_msgs/Image")
    a = RouteD("hostA", admin=False)
    b = RouteD("hostB", admin=False)
    a.install()
    try:
        with Master() as master:
            pub_node = NodeHandle("tzc_mux_pub", master.uri, shmros=False)
            sub_node = NodeHandle("tzc_mux_sub", master.uri, shmros=False)
            try:
                pub = pub_node.advertise("/tzc_mux", cls)
                target = (pub_node._data_server.host,
                          pub_node._data_server.port)
                a.add_route(target, b.listen_addr)
                received = []
                done = threading.Event()

                def callback(msg):
                    received.append(bytes(msg.data))
                    done.set()

                sub_node.subscribe("/tzc_mux", cls, callback)
                wait_until(
                    lambda: pub.get_num_connections() == 1,
                    desc="mux link up",
                )
                assert a.mux_link_count() == 1
                msg = cls()
                msg.height, msg.width, msg.step = 64, 64, 192
                msg.data = bytes(range(256)) * 48  # 12 KiB
                pub.publish(msg)
                assert done.wait(10), "no message through the mux"
                assert received[0] == bytes(range(256)) * 48
                links = pub._links
                assert any(getattr(link, "tzc", False) for link in links), (
                    "link through the mux did not negotiate TZC"
                )
            finally:
                sub_node.shutdown()
                pub_node.shutdown()
    finally:
        a.uninstall()
        a.shutdown()
        b.shutdown()
