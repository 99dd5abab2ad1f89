"""Per-layer metrics: their names, units and predictions, and the pass
that times each layer from outside, around calls into its public
functions, on the workload's exact message.

A layer is a module of the program; each timing is a p50 over
:data:`CALLS` timed calls after :data:`WARM` warm-ups, with the cost of
the timer itself subtracted.  ``moves`` records, before anything is
measured, which end-to-end metric the layer should move and where; a
workload the text does not name is a "no change" prediction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bridge import protocol as bridge_protocol
from repro.bridge import ws
from repro.bridge.extract import FieldSelector
from repro.msg.registry import default_registry
from repro.ros import reactor as reactor_mod
from repro.ros.transport import shm, tcpros, tzc
from repro.rossf import SfmCodec
from repro.serialization.rosser import ROSSerializer
from repro.sfm.layout import layout_for

from spine import inputs as inputs_mod
from spine.host import loopback_pair
from spine.stats import percentile

CALLS = 300
WARM = 30
#: Scalar field access is timed in batches of this many operations.
FIELD_BATCH = 1000
_CHUNK = 64 * 1024

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str


_SF = "every *_sf workload"
_SMALL = "str64_shm_sf_ping latency_p50_us, str64_shm_sf_burst throughput"
_SHM_ALL = "the five SHMROS workloads"

LAYERS: tuple[Layer, ...] = (
    Layer("msg.construct_us", "us", "lower",
          "img1m_tcp_ros latency_p50_us, cpu_us_per_msg; no *_sf workload"),
    Layer("serialization.serialize_us", "us", "lower",
          "img1m_tcp_ros latency_p50_us, cpu_us_per_msg; no *_sf workload"),
    Layer("serialization.deserialize_us", "us", "lower",
          "img1m_tcp_ros latency_p50_us, cpu_us_per_msg; no *_sf workload"),
    Layer("sfm.construct_us", "us", "lower",
          "latency_p50_us on the three image *_sf workloads and the "
          "bridge; not img1m_tcp_ros"),
    Layer("sfm.alloc_release_us", "us", "lower",
          _SMALL + "; small share at img6m_shm_sf; not img1m_tcp_ros"),
    Layer("sfm.publish_pointer_us", "us", "lower",
          _SMALL + "; small share at img6m_shm_sf; not img1m_tcp_ros"),
    Layer("sfm.from_buffer_us", "us", "lower",
          "img1m_tcp_sf latency_p50_us (adopt after reassembly)"),
    Layer("sfm.field_get_ns", "ns", "lower",
          "callback checks on " + _SF + "; share below 1% everywhere"),
    Layer("sfm.field_set_ns", "ns", "lower",
          "sfm.construct_us on " + _SF),
    Layer("sfm.allocated_per_msg", "count", "lower",
          _SF + ": records allocated per published message"),
    Layer("sfm.expansions_per_msg", "count", "lower",
          _SF + ": whole-message expansions per published message"),
    Layer("sfm.pool_hit_ratio", "ratio", "higher",
          "sfm.alloc_release_us on " + _SF),
    Layer("sfm.live_records_end", "count", "lower",
          "peak_rss_mb if records leak; 0 after a clean teardown"),
    Layer("rossf.encode_us", "us", "lower", "latency_p50_us on " + _SF),
    Layer("rossf.decode_us", "us", "lower", "img1m_tcp_sf latency_p50_us"),
    Layer("rossf.decode_external_us", "us", "lower",
          "latency_p50_us on the SHMROS pub/sub workloads only"),
    Layer("tcpros.frame_parts_us", "us", "lower",
          "both img1m_tcp_* workloads; no SHMROS workload"),
    Layer("tcpros.write_read_us", "us", "lower",
          "both img1m_tcp_* workloads; no SHMROS workload"),
    Layer("tzc.split_us", "us", "lower", "img1m_tcp_sf only"),
    Layer("tzc.reassemble_us", "us", "lower", "img1m_tcp_sf only"),
    Layer("shm.ring_write_us", "us", "lower",
          "img6m_shm_sf most, then img200k_shm_sf_fan2 and the bridge tap; "
          "no img1m_tcp_* workload"),
    Layer("shm.ring_read_release_us", "us", "lower",
          _SHM_ALL + "; no img1m_tcp_* workload"),
    Layer("shm.doorbell_encode_us", "us", "lower",
          "str64_shm_sf_burst throughput up when batched; "
          "str64_shm_sf_ping must not move; no img1m_tcp_* workload"),
    Layer("shm.doorbell_decode_us", "us", "lower",
          "str64_shm_sf_burst throughput up when batched; "
          "str64_shm_sf_ping must not move; no img1m_tcp_* workload"),
    Layer("reactor.frame_decode_us", "us", "lower",
          "img1m_tcp_ros latency_p50_us"),
    Layer("reactor.call_soon_us", "us", "lower",
          "str64_shm_sf_ping and bridge_ws_select2 most, images least"),
    Layer("reactor.serialq_hop_us", "us", "lower",
          "str64_shm_sf_ping and bridge_ws_select2 most, images least"),
    Layer("reactor.streamlink_echo_us", "us", "lower",
          "str64_shm_sf_ping and bridge_ws_select2 most, images least"),
    Layer("topic.publish_call_us", "us", "lower",
          "cpu_us_per_msg and latency_p50_us on every workload"),
    Layer("topic.sent", "count", "higher",
          "equals messages x links on a clean run"),
    Layer("topic.dropped", "count", "lower",
          "failed deliveries; 0 on every workload"),
    Layer("topic.queue_depth_max", "count", "lower",
          "str64_shm_sf_burst latency; at most 1 on the ping workloads"),
    Layer("topic.span_publish_us", "us", "lower",
          "topic.publish_call_us (the program's own publish span)"),
    Layer("topic.span_send_us", "us", "lower",
          "latency_p50_us on both img1m_tcp_* workloads"),
    Layer("topic.span_recv_us", "us", "lower",
          "latency_p50_us: publish instant to frame arrival"),
    Layer("topic.span_decode_us", "us", "lower",
          "latency_p50_us on img1m_tcp_ros most"),
    Layer("topic.span_callback_us", "us", "lower",
          "the spine's own check; flat unless sfm.field_get_ns moves"),
    Layer("topic.unattributed_us", "us", "lower",
          "latency_p50_us minus the blocking-path layers: hand-offs and "
          "syscalls not yet named; shrinks when spans are added"),
    Layer("bridge.extract_us", "us", "lower", "bridge_ws_select2 only"),
    Layer("bridge.op_encode_us", "us", "lower", "bridge_ws_select2 only"),
    Layer("bridge.ws_encode_us", "us", "lower", "bridge_ws_select2 only"),
    Layer("bridge.ws_decode_us", "us", "lower", "bridge_ws_select2 only"),
    Layer("bridge.wire_bytes_per_delivery", "bytes", "lower",
          "bridge_ws_select2 only"),
    Layer("bridge.shed", "count", "lower",
          "bridge_ws_select2 failed deliveries; 0 on a clean run"),
    Layer("bridge.evictions", "count", "lower",
          "bridge_ws_select2 failed deliveries; 0 on a clean run"),
    Layer("obs.trace_overhead_pct", "%", "lower",
          "reported, not gated: traced vs untraced latency_p50_us"),
    Layer("host.memcpy_gb_per_s", "GB/s", "higher",
          "calibration: every image workload follows it"),
    Layer("host.handoff_us", "us", "lower",
          "calibration: str64_shm_sf_ping follows it"),
    Layer("host.loopback_rtt_us", "us", "lower",
          "calibration: socket wake-ups on every workload"),
    Layer("host.perf_counter_ns", "ns", "lower",
          "calibration: the timer's own cost"),
    Layer("host.pyloop_ms", "ms", "lower",
          "calibration: interpreter speed, every workload follows it"),
)

UNITS = {layer.name: layer.unit for layer in LAYERS}


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------
def _p50_ns(fn: Callable, prepare: Optional[Callable] = None,
            calls: int = CALLS, warm: int = WARM) -> float:
    """p50 nanoseconds of ``fn()`` over ``calls`` timed calls; with
    ``prepare``, of ``fn(prepare())``, ``prepare`` running untimed."""
    samples = []
    for index in range(warm + calls):
        args = (prepare(),) if prepare is not None else ()
        start = _clock()
        fn(*args)
        end = _clock()
        if index >= warm:
            samples.append(end - start)
    return percentile(samples, 0.5)


def _timer_cost_ns() -> float:
    return _p50_ns(lambda: None, calls=2000, warm=200)


class _Waiter:
    """Times the gap between an action on this thread and a stamp made
    on another thread (a reactor callback)."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.stamp = 0

    def fire(self, *_args) -> None:
        self.stamp = _clock()
        self._event.set()

    def gap_ns(self, action: Callable[[], None], calls: int = CALLS,
               warm: int = WARM) -> float:
        samples = []
        for index in range(warm + calls):
            self._event.clear()
            start = _clock()
            action()
            if not self._event.wait(10.0):
                raise RuntimeError("reactor callback never ran")
            if index >= warm:
                samples.append(self.stamp - start)
        return percentile(samples, 0.5)


def _chunks(blob: bytes) -> list:
    view = memoryview(blob)
    return [view[at : at + _CHUNK] for at in range(0, len(view), _CHUNK)]


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def measure(inputs: inputs_mod.Inputs) -> dict[str, float]:
    """Every timed layer metric (microseconds unless the name says
    nanoseconds) for this workload's message."""
    cost = _timer_cost_ns()

    def us(fn, prepare=None) -> float:
        return max(_p50_ns(fn, prepare) - cost, 0.0) / 1000.0

    out: dict[str, float] = {}
    plain_cls, sfm_cls = inputs.plain_class, inputs.sfm_class
    layout = layout_for(inputs.type_name)
    build = inputs.build

    # -- msg / serialization (the plain class) --------------------------
    serializer = ROSSerializer(default_registry)
    plain = build(0, plain_cls)
    ros_wire = serializer.serialize(plain)
    out["msg.construct_us"] = us(lambda: build(1, plain_cls))
    out["serialization.serialize_us"] = us(
        lambda: serializer.serialize(plain)
    )
    out["serialization.deserialize_us"] = us(
        lambda: serializer.deserialize(inputs.type_name, ros_wire)
    )

    # -- sfm ------------------------------------------------------------
    def construct_release() -> None:
        build(1, sfm_cls).release()

    def alloc_release() -> None:
        sfm_cls().release()

    message = build(0, sfm_cls)

    def publish_pointer() -> None:
        message.publish_pointer().release()

    sfm_wire = bytes(message.to_wire())

    def adopt_release(buffer) -> None:
        sfm_cls.from_buffer(buffer).release()

    out["sfm.construct_us"] = us(construct_release)
    out["sfm.alloc_release_us"] = us(alloc_release)
    out["sfm.publish_pointer_us"] = us(publish_pointer)
    # from_buffer takes ownership of the bytearray (it ends up in the
    # manager's pool), so each call adopts a fresh, untimed copy.
    out["sfm.from_buffer_us"] = us(adopt_release, lambda: bytearray(sfm_wire))
    out.update(_field_access(inputs, message, cost))

    # -- rossf ----------------------------------------------------------
    codec = SfmCodec(sfm_cls)

    def encode() -> None:
        _payload, release = codec.encode(message)
        release()

    def decode(buffer) -> None:
        codec.decode(buffer).release()

    borrowed = memoryview(sfm_wire)

    def decode_external() -> None:
        codec.decode_external(borrowed).release()

    out["rossf.encode_us"] = us(encode)
    out["rossf.decode_us"] = us(decode, lambda: bytearray(sfm_wire))
    out["rossf.decode_external_us"] = us(decode_external)

    # -- tcpros / reactor framing (the payload this profile frames) -----
    framed = sfm_wire if inputs.msg_class is sfm_cls else ros_wire
    out["tcpros.frame_parts_us"] = us(
        lambda: tcpros.frame_parts([framed])
    )
    out["tcpros.write_read_us"] = _write_read_us(framed)
    stream = _chunks(b"".join(bytes(p) for p in tcpros.frame_parts([framed])))
    frame_decoder = reactor_mod.FrameDecoder()

    def frame_decode() -> None:
        for chunk in stream:
            frame_decoder.feed(chunk)

    out["reactor.frame_decode_us"] = us(frame_decode)

    # -- tzc ------------------------------------------------------------
    parts = tzc.split_message(layout, sfm_wire, len(sfm_wire))
    split_stream = _chunks(b"".join(
        bytes(p) for p in tzc.split_batch_parts([(parts, 0, 0)])
    ))
    split_decoder = tzc.SplitDecoder()

    def reassemble() -> None:
        for chunk in split_stream:
            split_decoder.feed(chunk)

    out["tzc.split_us"] = us(
        lambda: tzc.split_message(layout, sfm_wire, len(sfm_wire))
    )
    out["tzc.reassemble_us"] = us(reassemble)

    # -- shm ------------------------------------------------------------
    out.update(_shm_ring(lambda: build(1, sfm_cls), us))
    slot_frames = [("slot", n, n + 1, len(sfm_wire), 0, 0) for n in range(16)]
    doorbell = b"".join(shm.frames_to_parts(None, slot_frames))
    doorbell_decoder = shm.DoorbellDecoder()
    out["shm.doorbell_encode_us"] = us(
        lambda: shm.frames_to_parts(None, slot_frames)
    )
    out["shm.doorbell_decode_us"] = us(
        lambda: doorbell_decoder.feed(doorbell)
    )

    # -- reactor hops ---------------------------------------------------
    out.update(_reactor_hops(cost))

    # -- bridge ---------------------------------------------------------
    fields = (
        list(inputs_mod.BRIDGE_FIELDS) if inputs.check_fields is not None
        else ["data"]
    )
    selector = FieldSelector(layout, fields)
    selected = selector.extract_nested(sfm_wire)
    op = {"op": "publish", "sid": 1, "topic": "/spine", "msg": selected}
    body = bridge_protocol.encode_json_op(op)
    ws_frame = ws.encode_frame(ws.OP_TEXT, body)
    ws_decoder = ws.WsDecoder(require_mask=False)
    out["bridge.extract_us"] = us(lambda: selector.extract(sfm_wire))
    out["bridge.op_encode_us"] = us(
        lambda: bridge_protocol.encode_json_op(op)
    )
    out["bridge.ws_encode_us"] = us(
        lambda: ws.encode_frame(ws.OP_TEXT, body)
    )
    out["bridge.ws_decode_us"] = us(lambda: ws_decoder.feed(ws_frame))
    message.release()
    return out


def _field_access(inputs: inputs_mod.Inputs, message, cost: float) -> dict:
    """Scalar get/set on an image (batched: they take well under a
    microsecond); on a string, whose only field is one-shot, the get is
    batched and the set is timed once per fresh message."""
    sfm_cls = inputs.sfm_class
    batch = range(FIELD_BATCH)

    def idle() -> None:
        for _ in batch:
            pass

    loop = _p50_ns(idle)
    if inputs.check_fields is not None:
        def get() -> None:
            for _ in batch:
                message.height

        def put() -> None:
            for _ in batch:
                message.height = 7

        return {
            "sfm.field_get_ns": max(_p50_ns(get) - loop, 0.0) / FIELD_BATCH,
            "sfm.field_set_ns": max(_p50_ns(put) - loop, 0.0) / FIELD_BATCH,
        }

    def get() -> None:
        for _ in batch:
            message.data

    text = str(message.data)
    fresh: list = []

    def prepare():
        for stale in fresh:
            stale.release()
        fresh[:] = [sfm_cls()]
        return fresh[0]

    def put(target) -> None:
        target.data = text

    result = {
        "sfm.field_get_ns": max(_p50_ns(get) - loop, 0.0) / FIELD_BATCH,
        "sfm.field_set_ns": max(_p50_ns(put, prepare) - cost, 0.0),
    }
    for stale in fresh:
        stale.release()
    return result


def _write_read_us(payload: bytes) -> float:
    """``write_frame`` on one end of a loopback TCP pair until
    ``read_frame`` on a helper thread has the whole frame."""
    near, far = loopback_pair()
    waiter = _Waiter()

    def reader() -> None:
        while True:
            try:
                tcpros.read_frame(far)
            except (ConnectionError, OSError):
                return
            waiter.fire()

    thread = threading.Thread(target=reader, name="spine-read-frame")
    thread.start()
    try:
        gap = waiter.gap_ns(lambda: tcpros.write_frame(near, payload))
    finally:
        near.close()
        thread.join()
        far.close()
    return gap / 1000.0


def _shm_ring(fresh_message: Callable, us) -> dict:
    """Ring write (one reader token) and the reader's half: check the
    slot's sequence, take the payload view, release the slot.  Each
    write copies a message constructed just before it (untimed), so the
    caches hold what they hold when a live publisher reaches the ring."""
    first = fresh_message()
    size = first.whole_size
    # The default slot count: freed slots rotate, so successive writes
    # touch as much memory as a live publisher's ring does.
    writer = shm.ShmRingWriter(
        slot_count=shm.DEFAULT_SLOT_COUNT, slot_bytes=max(size, 4096)
    )
    reader = shm.ShmRingReader(
        writer.name, writer.slot_count, writer.slot_bytes
    )
    token = object()
    held = [first]
    tickets: list = []

    def settle() -> None:
        for slot, seq, _size in tickets:
            writer.release(slot, seq, token)
        for message in held:
            message.release()
        del tickets[:], held[:]

    def prepare_write():
        settle()
        held.append(fresh_message())
        return held[0].to_wire()

    def write(view) -> None:
        tickets.append(writer.write(view, (token,)))

    def prepare_read():
        view = prepare_write()
        return writer.write(view, (token,))

    def read_release(ticket) -> None:
        slot, seq, length = ticket
        if reader.slot_seq(slot) == seq:
            reader.payload_view(slot, length).release()
        writer.release(slot, seq, token)

    try:
        return {
            "shm.ring_write_us": us(write, prepare_write),
            "shm.ring_read_release_us": us(read_release, prepare_read),
        }
    finally:
        settle()
        reader.close()
        writer.close()


def _reactor_hops(cost: float) -> dict:
    """Wake-up and hand-off costs of the shared loop: a foreign-thread
    ``call_soon``, a ``SerialQueue`` hop onto a worker, and a 64-byte
    frame written on one ``StreamLink`` until the peer link's decoder
    reports it."""
    loop = reactor_mod.global_reactor()
    waiter = _Waiter()
    queue = loop.serial_queue()
    result = {
        "reactor.call_soon_us":
            (waiter.gap_ns(lambda: loop.call_soon(waiter.fire)) - cost)
            / 1000.0,
        "reactor.serialq_hop_us":
            (waiter.gap_ns(lambda: queue.push(waiter.fire)) - cost) / 1000.0,
    }
    near_sock, far_sock = loopback_pair()
    near = reactor_mod.StreamLink(
        near_sock, reactor_mod.FrameDecoder(), on_events=lambda events: None,
        reactor=loop, label="spine-echo-near",
    )
    far = reactor_mod.StreamLink(
        far_sock, reactor_mod.FrameDecoder(), on_events=waiter.fire,
        reactor=loop, label="spine-echo-far",
    )
    near.start()
    far.start()
    frame = tcpros.frame_parts([bytes(64)])
    try:
        result["reactor.streamlink_echo_us"] = (
            waiter.gap_ns(lambda: near.write(frame)) - cost
        ) / 1000.0
    finally:
        near.close()
        far.close()
    return result
