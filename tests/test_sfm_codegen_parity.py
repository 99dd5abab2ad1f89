"""Codegen parity and doorbell-batching equivalence.

The compiled accessors (:mod:`repro.sfm.codegen`) and the generic
descriptors must be *indistinguishable* through the public API: same
values read back, same wire bytes, same growth behavior, same errors.
The sweep below walks every registered message type, fills one instance
per accessor strategy with identical pseudo-random values, and compares
them through every adoption path (round trip, cross-mode, big-endian).

The second half checks the doorbell batching layer the same way: a
coalesced ``frames_to_parts`` batch must be byte-identical on the wire
to the same frames encoded one at a time, decode in order through
:class:`DoorbellDecoder` under any split of the bytes, respect the chaos
gate per frame, and -- end to end, under a chaos delay plan that backs
the queue up so the watermark flush coalesces -- deliver every message
in order.
"""

from __future__ import annotations

import random
import struct
import threading
import time

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
from repro.sfm.generator import generate_sfm_class
from repro.sfm.layout import convert_endianness

ALL_TYPES = default_registry.names()


# ----------------------------------------------------------------------
# Deterministic random values from a MessageSpec
# ----------------------------------------------------------------------
def _primitive_value(prim: PrimitiveType, rng: random.Random):
    fmt = prim.struct_fmt
    if fmt in ("II", "ii"):
        return (rng.randrange(0, 2**31), rng.randrange(0, 10**9))
    if fmt == "?":
        return bool(rng.getrandbits(1))
    if fmt == "f":
        # Multiples of 1/8 survive the float32 round trip exactly.
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


def _classes(type_name: str) -> tuple[type, type]:
    """(compiled, descriptor) SFM classes for one type."""
    return (
        generate_sfm_class(type_name, codegen=True),
        generate_sfm_class(type_name, codegen=False),
    )


def _fill(msg, values: dict) -> None:
    for name, value in values.items():
        setattr(msg, name, value)


def _plain_fields(msg) -> dict:
    plain = msg.to_plain()
    return {
        slot.name: getattr(plain, slot.name) for slot in msg._layout.slots
    }


def _scalar_fields(msg) -> dict:
    """Every primitive slot read through the class's own accessors."""
    return {
        slot.name: getattr(msg, slot.name)
        for slot in msg._layout.slots if slot.kind == "primitive"
    }


def _raised(callable_) -> type | None:
    try:
        callable_()
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return type(exc)
    return None


# ----------------------------------------------------------------------
# The all-types sweep
# ----------------------------------------------------------------------
class TestAccessorParity:
    @pytest.mark.parametrize("type_name", ALL_TYPES)
    def test_write_read_roundtrip_parity(self, type_name):
        fast_cls, slow_cls = _classes(type_name)
        assert fast_cls is not slow_cls
        values = _values_for_type(type_name, random.Random(type_name))
        fast, slow = fast_cls(), slow_cls()
        _fill(fast, values)
        _fill(slow, values)
        wire = bytes(fast.to_wire())
        assert wire == bytes(slow.to_wire())
        assert _plain_fields(fast) == _plain_fields(slow)
        # Cross-mode adoption: each strategy decodes the other's wire.
        readopted_slow = slow_cls.from_buffer(wire)
        readopted_fast = fast_cls.from_buffer(bytes(slow.to_wire()))
        assert bytes(readopted_slow.to_wire()) == wire
        assert bytes(readopted_fast.to_wire()) == wire
        assert _plain_fields(readopted_fast) == _plain_fields(readopted_slow)
        assert _scalar_fields(readopted_fast) == _scalar_fields(slow)

    @pytest.mark.parametrize("type_name", ALL_TYPES)
    def test_big_endian_adoption_parity(self, type_name):
        fast_cls, slow_cls = _classes(type_name)
        values = _values_for_type(type_name, random.Random("be:" + type_name))
        fast = fast_cls()
        _fill(fast, values)
        wire = bytes(fast.to_wire())
        big = bytearray(wire)
        convert_endianness(fast_cls._layout, big, "<", ">")
        from_fast = fast_cls.from_buffer(bytes(big), byte_order=">")
        from_slow = slow_cls.from_buffer(bytes(big), byte_order=">")
        assert bytes(from_fast.to_wire()) == wire
        assert bytes(from_slow.to_wire()) == wire
        assert _plain_fields(from_fast) == _plain_fields(from_slow)

    def test_reseg_growth_parity(self):
        """Growth re-segmentation must produce identical buffers, and the
        compiled casts must survive the buffer swap (they are dropped and
        rebuilt lazily against the new memory)."""
        fast_cls, slow_cls = _classes("sensor_msgs/Image")
        msgs = [
            cls(_capacity=128, _allow_growth=True)
            for cls in (fast_cls, slow_cls)
        ]
        payload = bytes(range(256)) * 8  # 2 KiB >> the 128 B capacity
        for msg in msgs:
            msg.height = 16
            msg.width = 128
            msg.step = 128
            msg.encoding = "mono8"
            msg.header.frame_id = "camera"
            msg.data = payload
        fast, slow = msgs
        assert bytes(fast.to_wire()) == bytes(slow.to_wire())
        # Scalar access through the compiled path after the swap.
        assert fast.height == 16 and fast.step == 128
        assert bytes(fast.data) == payload
        fast.height = 99
        slow.height = 99
        assert bytes(fast.to_wire()) == bytes(slow.to_wire())

    def test_kwargs_constructor_parity(self):
        fast_cls, slow_cls = _classes("sensor_msgs/Image")
        kwargs = dict(
            height=3, width=5, step=15, encoding="rgb8", data=b"xyz" * 5,
            is_bigendian=1,
        )
        assert (
            bytes(fast_cls(**kwargs).to_wire())
            == bytes(slow_cls(**kwargs).to_wire())
        )

    def test_constructor_error_parity(self):
        fast_cls, slow_cls = _classes("sensor_msgs/Image")
        for bad in (
            lambda cls: cls(not_a_field=1),
            lambda cls: cls(height=-1),          # uint32 underflow
            lambda cls: cls(height=2**40),       # uint32 overflow
            lambda cls: cls(height="tall"),      # type mismatch
        ):
            fast_exc = _raised(lambda: bad(fast_cls))
            slow_exc = _raised(lambda: bad(slow_cls))
            assert fast_exc is not None
            assert fast_exc is slow_exc

    def test_readonly_adoption_copy_on_write_parity(self):
        fast_cls, slow_cls = _classes("sensor_msgs/RegionOfInterest")
        source = slow_cls(
            x_offset=9, y_offset=2, height=5, width=6, do_rectify=True
        )
        frozen = bytes(source.to_wire())
        grown = []
        for cls in (fast_cls, slow_cls):
            adopted = cls.adopt_external(memoryview(frozen))
            assert adopted.x_offset == 9 and adopted.do_rectify is True
            adopted.height = 77  # first write materializes the copy
            assert adopted.height == 77
            grown.append(bytes(adopted.to_wire()))
        assert grown[0] == grown[1]
        assert bytes(frozen) == bytes(source.to_wire())  # source untouched

    def test_nested_views_share_strategy_with_root(self):
        fast_cls, slow_cls = _classes("nav_msgs/Odometry")
        fast, slow = fast_cls(), slow_cls()
        for msg in (fast, slow):
            msg.pose.pose.position.x = 1.5
            msg.pose.pose.orientation.w = 1.0
            msg.twist.twist.angular.z = -0.25
            msg.header.frame_id = "odom"
        assert bytes(fast.to_wire()) == bytes(slow.to_wire())
        assert fast.pose.pose.position.x == slow.pose.pose.position.x == 1.5


# ----------------------------------------------------------------------
# Doorbell batching
# ----------------------------------------------------------------------
from repro.ros.transport import shm  # noqa: E402
from repro.ros.transport import tcpros  # noqa: E402
from repro.ros.reactor import FrameDecoder  # noqa: E402
from tests.conftest import feed_splits  # noqa: E402

shm_required = pytest.mark.skipif(
    not shm.shm_available() or shm.env_disabled(),
    reason="shared memory unavailable",
)


class TestDoorbellBatching:
    FRAMES = [
        ("slot", 3, 7, 64, 1234, 5678),
        ("ack", 3, 7),
        ("inline", b"ride-along payload", 11, 22),
        ("reseg", "segment_two", 4, 4096),
        ("keepalive",),
        ("slot", 4, 8, 96, 0, 0),
    ]

    def test_batched_wire_matches_single_frame_encodes(self):
        reference = b"".join(
            b"".join(shm.frames_to_parts(None, [frame]))
            for frame in self.FRAMES
        )
        batched = b"".join(shm.frames_to_parts(None, list(self.FRAMES)))
        assert batched == reference

    def test_doorbell_decoder_decodes_batch_in_order(self):
        large = bytes(range(256)) * 48  # 12 KiB: forces the iovec path
        frames = list(self.FRAMES) + [("inline", large, 0, 0)]
        parts = shm.frames_to_parts(None, frames)
        assert len(parts) > 1  # the large payload rides its own iovec
        decoded, error = feed_splits(shm.DoorbellDecoder, b"".join(parts))
        assert error is None
        assert decoded == frames

    def test_chaos_gate_applies_per_frame_inside_a_batch(self):
        from repro.chaos import FaultPlan

        plan = FaultPlan().stall_doorbell(count=1).install()
        try:
            parts = shm.frames_to_parts(None, [
                ("slot", 1, 1, 8, 0, 0),
                ("slot", 2, 2, 8, 0, 0),
            ])
        finally:
            plan.uninstall()
        assert shm.DoorbellDecoder().feed(b"".join(parts)) == [
            ("slot", 2, 2, 8, 0, 0)
        ]
        assert ("drop", "shm", "send", 8) in plan.events

    def test_tcpros_batched_frames_decode_identically(self):
        payloads = [b"tiny", b"", b"x" * (tcpros.SMALL_FRAME + 16), b"tail"]
        wire = b"".join(tcpros.frame_parts(list(payloads)))
        assert wire == b"".join(
            b"".join(tcpros.frame_parts([payload])) for payload in payloads
        )
        events, error = feed_splits(FrameDecoder, wire)
        assert error is None
        assert [bytes(ev[1]) for ev in events] == payloads
        entries = [(b"traced-%d" % i, 100 + i, 200 + i) for i in range(4)]
        entries.append((b"y" * (tcpros.SMALL_FRAME + 1), 999, 888))
        wire = b"".join(tcpros.traced_frame_parts(list(entries)))
        events, error = feed_splits(lambda: FrameDecoder(traced=True), wire)
        assert error is None
        assert [(bytes(p), tid, ns) for _k, p, tid, ns in events] == entries


@shm_required
class TestBatchedDeliveryEndToEnd:
    """A chaos delay plan holds the doorbell back so the queue behind it
    coalesces into watermark flushes; every message still arrives, in
    order."""

    COUNT = 30

    def test_delivery_order_holds_while_the_doorbell_coalesces(self):
        from repro.chaos import FaultPlan
        from repro.msg.library import String
        from repro.ros import RosGraph
        from repro.ros.retry import wait_until

        got: list[int] = []
        done = threading.Event()

        def callback(msg) -> None:
            got.append(int(msg.data))
            if len(got) >= self.COUNT:
                done.set()

        plan = FaultPlan(seed=9).delay(
            0.05, seam="shm", op="send", count=3
        ).install()
        try:
            with RosGraph() as graph:
                pub_node = graph.node("bat_pub")
                sub_node = graph.node("bat_sub")
                subscriber = sub_node.subscribe("/batched", String, callback)
                publisher = pub_node.advertise(
                    "/batched", String, shm_slots=64
                )
                wait_until(
                    lambda: subscriber.stats()["transports"].get("SHMROS"),
                    desc="SHMROS link",
                )
                for index in range(self.COUNT):
                    msg = String()
                    msg.data = str(index)
                    publisher.publish(msg)
                assert done.wait(10), f"only {len(got)}/{self.COUNT} arrived"
        finally:
            plan.uninstall()
        assert plan.events, "the delay plan never fired"
        assert got == list(range(self.COUNT))
