"""The seven workloads and the rig that drives one of them.

Every workload is a closed loop on one publisher thread (the caller's),
in rounds: publish ``size`` messages back-to-back, then wait for the last
subscriber's callback of the last one.  Rounds of one message are
stop-and-wait -- message *k+1* is constructed only after the last callback
for *k*; the burst workload uses rounds of 30000.  The rig uses public API
only and times the program from outside.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bridge.server import BridgeServer
from repro.bridge.ws import WsBridgeClient
from repro.ros.graph import RosGraph

from spine import inputs as inputs_mod

#: A message not delivered within this many seconds is a failure.
DELIVERY_TIMEOUT_S = 10.0

_now = time.monotonic_ns


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "image" or "string"; ``width``/``height`` size an image,
    #: ``length`` a string.
    message: str
    #: True: ROS-SF (SFM class); False: plain class + ROS serializer.
    sfm: bool
    #: The transport every link must report, or the run aborts.
    transport: str
    #: ``(layer metric, weight)`` steps of the blocking path, construction
    #: start to last callback; their weighted p50s plus
    #: ``topic.unattributed_us`` make up ``latency_p50_us``.
    path: tuple
    width: int = 0
    height: int = 0
    length: int = 0
    subscribers: int = 1
    #: Subscribers are WebSocket clients of a gateway, not graph nodes.
    bridge: bool = False
    warmup: int = 100
    #: Messages per round; 0 is stop-and-wait (one in flight).
    burst: int = 0
    shm_slots: Optional[int] = None
    shm_slot_bytes: Optional[int] = None

    def make_inputs(self, seed: int) -> inputs_mod.Inputs:
        if self.message == "image":
            return inputs_mod.image_inputs(
                seed, self.width, self.height, self.sfm
            )
        return inputs_mod.string_inputs(seed, self.length, self.sfm)


#: The doorbell metrics time a 16-frame batch; one message is one frame.
_WEIGHTS = {"shm.doorbell_encode_us": 1 / 16, "shm.doorbell_decode_us": 1 / 16}


def _steps(*names: str, times: int = 1) -> tuple:
    return tuple(
        (name, times * _WEIGHTS.get(name, 1.0)) for name in names
    )


_SFM_PUBLISH = ("sfm.construct_us", "rossf.encode_us", "shm.ring_write_us")
#: What each SHMROS link adds; on one CPU two links run one after the other.
_SHM_LINK = (
    "reactor.call_soon_us", "shm.doorbell_encode_us",
    "reactor.streamlink_echo_us", "shm.doorbell_decode_us",
    "reactor.serialq_hop_us", "shm.ring_read_release_us",
)
_SHM_PATH = _steps(*_SFM_PUBLISH) + _steps(
    *_SHM_LINK, "rossf.decode_external_us"
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="img1m_tcp_ros",
        why="1.44 MB Image, plain ROS over loopback TCPROS: the paper's "
            "baseline cell, serialization does most of the work; an SFM "
            "optimisation must leave it flat.",
        message="image", width=800, height=600, sfm=False,
        transport="TCPROS",
        path=_steps(
            "msg.construct_us", "serialization.serialize_us",
            "reactor.call_soon_us", "tcpros.frame_parts_us",
            "tcpros.write_read_us", "reactor.frame_decode_us",
            "reactor.serialq_hop_us", "serialization.deserialize_us"),
    ),
    Workload(
        name="img1m_tcp_sf",
        why="Same image as ROS-SF over TZC: the paper's headline cell, no "
            "serialization; construct, split, framing, syscalls and "
            "reassembly share the time.",
        message="image", width=800, height=600, sfm=True,
        transport="TZC",
        path=_steps(
            "sfm.construct_us", "rossf.encode_us", "tzc.split_us",
            "reactor.call_soon_us",
            "tcpros.write_read_us", "tzc.reassemble_us",
            "reactor.serialq_hop_us", "rossf.decode_us"),
    ),
    Workload(
        name="img6m_shm_sf",
        why="6.2 MB Image, ROS-SF over SHMROS: the largest paper size on "
            "the zero-copy ring; ring write and payload memcpy dominate, "
            "the TCP byte path carries doorbells only.",
        message="image", width=1920, height=1080, sfm=True,
        transport="SHMROS", warmup=50, shm_slot_bytes=8 << 20,
        path=_SHM_PATH,
    ),
    Workload(
        name="img200k_shm_sf_fan2",
        why="200 KB Image to two SHMROS subscribers, latency to the slower "
            "one: one slot held by two readers, at the size where "
            "per-message overhead rivals the copy.",
        message="image", width=256, height=256, sfm=True,
        transport="SHMROS", subscribers=2,
        path=_steps(*_SFM_PUBLISH) + _steps(
            *_SHM_LINK, "rossf.decode_external_us", times=2),
    ),
    Workload(
        name="str64_shm_sf_ping",
        why="64 B String over SHMROS, one in flight: the per-message "
            "floor (bookkeeping, enqueue, wake, doorbell, hop, adopt) with "
            "no bytes to move.",
        message="string", length=64, sfm=True, transport="SHMROS",
        path=_SHM_PATH,
    ),
    Workload(
        name="str64_shm_sf_burst",
        why="Same message and path published in back-to-back bursts: "
            "batching helps here and can cost the ping workload, so a "
            "gain for one that taxes the other shows.",
        message="string", length=64, sfm=True, transport="SHMROS",
        burst=30000, shm_slots=256,
        path=_SHM_PATH,
    ),
    Workload(
        name="bridge_ws_select2",
        why="1.44 MB ROS-SF Image through the gateway to two WebSocket "
            "clients selecting three fields: tap, extract, JSON encode, "
            "RFC 6455 framing and the session pump do the work.",
        message="image", width=800, height=600, sfm=True,
        transport="SHMROS", subscribers=2, bridge=True,
        shm_slot_bytes=2 << 20,
        path=_steps(*_SFM_PUBLISH, *_SHM_LINK, "bridge.extract_us") + _steps(
            "bridge.op_encode_us", "bridge.ws_encode_us",
            "reactor.streamlink_echo_us", "bridge.ws_decode_us", times=2),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


class Sink:
    """One subscriber's callback: checks each delivery against the
    generator and stamps it.  Only its own (serialized) callback writes
    it; the publisher thread reads it after ``done`` is set."""

    def __init__(self, check) -> None:
        self._check = check
        self.failed = 0
        #: Callback entry / exit (after the check) per delivery.
        self.entered: list[int] = []
        self.stamps: list[int] = []
        self.target = 0
        self.done = threading.Event()

    def __call__(self, msg, _meta=None) -> None:
        self.entered.append(_now())
        seq = len(self.stamps)
        try:
            ok = self._check(msg, seq)
        except Exception:
            ok = False
        if not ok:
            self.failed += 1
        self.stamps.append(_now())
        if seq + 1 == self.target:
            self.done.set()


@dataclass
class Measured:
    """What one measured phase produced (times in ns on the monotonic
    clock, one entry per published message)."""

    first: int = 0
    messages: int = 0
    elapsed_ns: int = 0
    cpu_s: float = 0.0
    burst_rates: list = field(default_factory=list)
    queue_depth_max: int = 0


class Rig:
    """One live graph for one workload: start it, bring every link up on
    the named transport, publish, tear down."""

    def __init__(self, workload: Workload, inputs: inputs_mod.Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        check = inputs.check_fields if workload.bridge else inputs.check
        self.sinks = [Sink(check) for _ in range(workload.subscribers)]
        #: Per published message: construct start, publish call start/end.
        self.starts: list[int] = []
        self.publish_starts: list[int] = []
        self.publish_ends: list[int] = []
        self.graph: Optional[RosGraph] = None
        self.publisher = None
        self._server: Optional[BridgeServer] = None
        self._clients: list[WsBridgeClient] = []
        self.setup_s = 0.0
        self.undelivered = 0

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Rig":
        started = time.perf_counter()
        try:
            self._start()
            self._assert_transport()
            # The first delivery is part of set-up: lazily built state
            # (ring growth, pools, compiled accessors) is paid here.
            self.rounds(count=1)
            if self.undelivered or any(s.failed for s in self.sinks):
                raise RuntimeError(
                    f"{self.workload.name}: first delivery failed"
                )
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self) -> None:
        workload = self.workload
        use_shm = workload.transport == "SHMROS"
        topic = "/spine/" + workload.name
        self.graph = graph = RosGraph()
        pub_node = graph.node("spine_pub", shmros=use_shm)
        queue_size = max(100, workload.burst + 8)
        if workload.bridge:
            self.publisher = pub_node.advertise(
                topic, self.inputs.msg_class, queue_size=queue_size,
                shm_slot_bytes=workload.shm_slot_bytes,
            )
            self._server = BridgeServer(graph.master_uri)
            front = self._server.enable_ws()
            for sink in self.sinks:
                client = WsBridgeClient(front.host, front.port, codec="json")
                self._clients.append(client)
                client.subscribe(
                    topic, inputs_mod.BRIDGE_SPELLING, sink,
                    fields=list(inputs_mod.BRIDGE_FIELDS), codec="json",
                )
            self._subscribers = []
            expected_links = 1  # the gateway's one tap
        else:
            self._subscribers = [
                graph.node(f"spine_sub{index}", shmros=use_shm).subscribe(
                    topic, self.inputs.msg_class, sink
                )
                for index, sink in enumerate(self.sinks)
            ]
            self.publisher = pub_node.advertise(
                topic, self.inputs.msg_class, queue_size=queue_size,
                shm_slots=workload.shm_slots,
                shm_slot_bytes=workload.shm_slot_bytes,
            )
            expected_links = len(self.sinks)
        if not self.publisher.wait_for_subscribers(
            expected_links, timeout=DELIVERY_TIMEOUT_S
        ):
            raise RuntimeError(f"{workload.name}: links did not come up")
        for subscriber in self._subscribers:
            if not subscriber.wait_for_publishers(
                1, timeout=DELIVERY_TIMEOUT_S
            ):
                raise RuntimeError(f"{workload.name}: subscriber not linked")

    def _assert_transport(self) -> None:
        """Never silently measure a fallback.  (Gateway clients cannot
        fall back: ``WsBridgeClient`` speaks WebSocket or fails.)"""
        wanted = self.workload.transport
        links = list(self.publisher.links())
        for subscriber in self._subscribers:
            links.extend(subscriber.links())
        seen = sorted({link.stats()["transport"] for link in links})
        if seen != [wanted]:
            raise RuntimeError(
                f"{self.workload.name}: links report {seen}, not {wanted}"
            )

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self._server is not None:
            self._server.shutdown()
            self._server = None
        if self.graph is not None:
            self.graph.shutdown()
            self.graph = None

    # -- publishing -----------------------------------------------------
    def _publish(self, seq: int) -> None:
        self.starts.append(_now())
        msg = self.inputs.build(seq)
        self.publish_starts.append(_now())
        self.publisher.publish(msg)
        self.publish_ends.append(_now())

    def _await(self, target: int) -> bool:
        for sink in self.sinks:
            if not sink.done.wait(DELIVERY_TIMEOUT_S):
                self.undelivered += sum(
                    target - len(s.stamps) for s in self.sinks
                )
                return False
        return True

    def _arm(self, target: int) -> None:
        for sink in self.sinks:
            sink.target = target
            sink.done.clear()

    def rounds(self, size: int = 1, count: Optional[int] = None,
               deadline_ns: Optional[int] = None,
               sample_depth: bool = False) -> Measured:
        """Publish rounds of ``size`` messages until ``count`` rounds or
        the deadline; a round ends with the last callback of its last
        message.  Rounds of more than one message record their rate."""
        out = Measured(first=len(self.starts))
        cpu = time.process_time()
        begin = _now()
        while (count is None or out.messages < count * size) and (
            deadline_ns is None or _now() < deadline_ns
        ):
            base = len(self.starts)
            self._arm(base + size)
            round_begin = _now()
            for seq in range(base, base + size):
                self._publish(seq)
                if sample_depth and (size == 1 or not seq & 255):
                    out.queue_depth_max = max(
                        out.queue_depth_max,
                        self.publisher.stats()["queue_depth"],
                    )
            out.messages += size
            if not self._await(base + size):
                break
            if size > 1:
                last = max(sink.stamps[-1] for sink in self.sinks)
                out.burst_rates.append(size * 1e9 / (last - round_begin))
        out.elapsed_ns = _now() - begin
        out.cpu_s = time.process_time() - cpu
        return out

    def measure(self, count: Optional[int] = None,
                deadline_ns: Optional[int] = None) -> Measured:
        """The workload's own rounds: bursts or stop-and-wait."""
        return self.rounds(self.workload.burst or 1, count, deadline_ns)

    # -- reading back ---------------------------------------------------
    def latencies_us(self, measured: Measured) -> list[float]:
        """Construction start to the last subscriber's callback, per
        delivered message of ``measured``."""
        end = min(len(sink.stamps) for sink in self.sinks)
        last = measured.first + measured.messages
        return [
            (max(sink.stamps[k] for sink in self.sinks) - self.starts[k])
            / 1000.0
            for k in range(measured.first, min(end, last))
        ]

    def failed(self) -> int:
        """Deliveries that failed their check or never arrived."""
        return sum(sink.failed for sink in self.sinks) + self.undelivered

    def wire_bytes_per_delivery(self) -> float:
        total = sum(sum(c.wire_bytes.values()) for c in self._clients)
        count = sum(sum(c.received.values()) for c in self._clients)
        return total / count if count else 0.0

    def gateway_stats(self) -> dict:
        """Shed deliveries and evictions seen by the gateway (zeros for
        workloads that do not cross it)."""
        if self._server is None:
            return {"shed": 0, "evictions": 0}
        snap = self._server.stats_snapshot()
        return {
            "shed": sum(s["shed"] for s in snap["sessions"]),
            "evictions": snap["evictions"],
        }
