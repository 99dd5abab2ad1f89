#!/usr/bin/env python
"""Micro-benchmarks for the unsized zero-copy machinery.

Two sections, both folded into ``BENCH_fig13.json`` by ``snapshot.py``:

``unsized``
    Republish of a *grown* ~1 MB vector message through the SHMROS slot
    ring: the seed's reseg-copy path (:meth:`ShmRingWriter.write`, a
    full-payload copy each publish) against the sticky-slot delta path
    (:meth:`ShmRingWriter.write_update`, which rewrites only the
    skeleton and the grown tail in place).  The whole point of routing
    growth through slabs is that a republish after a tail-grow copies
    kilobytes, not megabytes -- the speedup here is that claim measured.

``tzc_remote``
    A remote (socket) trip at >= 1 MB: classic TCPROS -- generated
    serialize, frame, read, generated deserialize -- against the TZC
    split -- no serialization, control segment plus bulk iovecs sent in
    one vectored syscall, reassembled straight into an adopted SFM
    buffer.  Both arms run the production encoder and incremental
    decoder of their wire format (``frame_parts`` into ``FrameDecoder``,
    ``split_batch_parts`` into ``SplitDecoder``), read the way a stream
    link reads.  Ping-pong over a loopback socketpair; each sample
    covers encode + send + receive + decode, acknowledged by the
    consumer after the decode so both costs land inside the sample.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.bench.stats import LatencyStats, summarize
from repro.ros.reactor import FrameDecoder
from repro.ros.transport import shm, tcpros, tzc


def _stats_entry(stats: LatencyStats) -> dict:
    return {
        "count": stats.count,
        "mean_ms": round(stats.mean_ms, 4),
        "std_ms": round(stats.std_ms, 4),
        "p50_ms": round(stats.p50_ms, 4),
        "p99_ms": round(stats.p99_ms, 4),
    }


# ----------------------------------------------------------------------
# unsized: grown-vector republish through the slot ring
# ----------------------------------------------------------------------
START_BYTES = 1 << 20  # the grown vector: ~1 MB of content
GROW_BYTES = 1024      # appended per republish (the dirty tail)
PREFIX_BYTES = 96      # stand-in for the SFM skeleton, always rewritten
UNSIZED_FLOOR = 2.0    # delta republish must beat the full copy by this
TZC_FLOOR = 1.5        # TZC must beat classic TCPROS by this at >= 1 MB


def _ring_samples(delta: bool, iterations: int) -> tuple[list, dict]:
    """Run one arm: ``iterations`` grow-then-republish rounds."""
    slot_bytes = START_BYTES + GROW_BYTES * (iterations + 2)
    ring = shm.ShmRingWriter(slot_count=4, slot_bytes=slot_bytes)
    try:
        payload = bytearray(START_BYTES)
        payload[:] = bytes(range(256)) * (START_BYTES // 256)
        reader, key = object(), object()
        # Prime: the first publish is a full copy on both arms (the delta
        # arm's copy-on-write into its sticky slot).
        if delta:
            slot, seq, _ = ring.write_update(
                payload, (reader,), key, PREFIX_BYTES, PREFIX_BYTES
            )
        else:
            slot, seq, _ = ring.write(payload, (reader,))
        ring.release(slot, seq, reader)
        samples: list[float] = []
        for _ in range(iterations):
            stable = len(payload)
            payload += b"\xaa" * GROW_BYTES  # the tail-grow
            begin = time.perf_counter()
            if delta:
                result = ring.write_update(
                    payload, (reader,), key, PREFIX_BYTES, stable
                )
            else:
                result = ring.write(payload, (reader,))
            samples.append(time.perf_counter() - begin)
            slot, seq, _ = result
            ring.release(slot, seq, reader)
        counters = {
            "delta_writes": ring.delta_writes,
            "delta_bytes": ring.delta_bytes,
        }
        return samples, counters
    finally:
        ring.close()


def run_unsized(iterations: int) -> dict:
    """Grown 1 MB republish: full-copy ring writes vs sticky deltas."""
    if not shm.shm_available() or shm.env_disabled():
        return {"skipped": "shared memory unavailable"}
    rounds = max(50, iterations * 5)
    warmup = max(3, rounds // 10)
    full_samples, _ = _ring_samples(delta=False, iterations=rounds)
    delta_samples, counters = _ring_samples(delta=True, iterations=rounds)
    full = summarize("unsized full-copy", full_samples, warmup)
    delta = summarize("unsized delta", delta_samples, warmup)
    return {
        "payload_bytes": START_BYTES,
        "grow_bytes_per_publish": GROW_BYTES,
        "iterations": rounds,
        "full_copy": _stats_entry(full),
        "delta": _stats_entry(delta),
        "delta_writes": counters["delta_writes"],
        "delta_bytes_total": counters["delta_bytes"],
        "speedup": round(full.p50_ms / delta.p50_ms, 3),
        "speedup_basis": "p50",
        # The acceptance floor: delta republish must stay >= 2x over the
        # reseg copy.  The measured ratio (tens of x) swings with machine
        # load, so the regression gate judges this verdict, not the raw
        # ratio (the routed.overhead_within_budget pattern).
        "floor": UNSIZED_FLOOR,
        "meets_floor": int(full.p50_ms / delta.p50_ms >= UNSIZED_FLOOR),
    }


# ----------------------------------------------------------------------
# tzc_remote: classic TCPROS vs TZC split at >= 1 MB over loopback
# ----------------------------------------------------------------------
IMAGE_SIDE = 592  # 592 * 592 * 3 = ~1.05 MB of pixel data


def _make_plain_image():
    from repro.msg import library

    msg = library.Image()
    msg.height = IMAGE_SIDE
    msg.width = IMAGE_SIDE
    msg.encoding = "rgb8"
    msg.step = IMAGE_SIDE * 3
    msg.data = bytes(range(256)) * (IMAGE_SIDE * IMAGE_SIDE * 3 // 256 + 1)
    msg.data = msg.data[: IMAGE_SIDE * IMAGE_SIDE * 3]
    return msg


def _make_sfm_image():
    from repro.sfm.generator import sfm_class_for

    cls = sfm_class_for("sensor_msgs/Image")
    msg = cls()
    msg.height = IMAGE_SIDE
    msg.width = IMAGE_SIDE
    msg.encoding = "rgb8"
    msg.step = IMAGE_SIDE * 3
    data = bytes(range(256)) * (IMAGE_SIDE * IMAGE_SIDE * 3 // 256 + 1)
    msg.data = data[: IMAGE_SIDE * IMAGE_SIDE * 3]
    return msg


def _recv_event(sock, decoder, scratch: memoryview) -> tuple:
    """Block for the next decoder event, reading the way a stream link
    does: ``recv_into`` a fixed buffer, feed the filled slice.  (The
    ping-pong keeps one message in flight, so a feed completes at most
    one.)"""
    while True:
        count = sock.recv_into(scratch)
        if not count:
            raise ConnectionError("producer closed mid-benchmark")
        events = decoder.feed(scratch[:count])
        if events:
            return events[0]


def _pingpong(iterations: int, produce, consume) -> list[float]:
    """Measure ``iterations`` produce->consume round trips; the consumer
    acknowledges only after its decode, so the sample covers the whole
    remote path."""
    left, right = socket.socketpair()
    samples: list[float] = []
    failure: list[BaseException] = []

    def consumer() -> None:
        try:
            for _ in range(iterations):
                consume(right)
                right.sendall(b"\x01")
        except BaseException as exc:  # surfaced by the main thread
            failure.append(exc)

    thread = threading.Thread(target=consumer, daemon=True)
    thread.start()
    try:
        for _ in range(iterations):
            begin = time.perf_counter()
            produce(left)
            if left.recv(1) != b"\x01":
                raise RuntimeError("consumer died mid-benchmark")
            samples.append(time.perf_counter() - begin)
    finally:
        left.close()
        thread.join(timeout=5.0)
        right.close()
    if failure:
        raise failure[0]
    return samples


def run_tzc_remote(iterations: int) -> dict:
    """>= 1 MB loopback trip: classic serialize/frame vs TZC split."""
    from repro.ros.codecs import RosCodec
    from repro.rossf.serializer import SfmCodec

    # A ratio of two p50s wants plenty of samples: each round trip is
    # sub-millisecond, so tripling the rounds is cheap and keeps the
    # gated speedup stable under CI scheduler noise.
    rounds = max(90, iterations * 3)
    warmup = max(5, rounds // 10)

    plain = _make_plain_image()
    ros_codec = RosCodec(type(plain))

    scratch = memoryview(bytearray(65536))
    frame_decoder = FrameDecoder()

    def classic_produce(sock) -> None:
        wire, _release = ros_codec.encode(plain)
        tcpros.send_parts(sock, tcpros.frame_parts([wire]))

    def classic_consume(sock) -> None:
        _kind, wire, _trace, _stamp = _recv_event(
            sock, frame_decoder, scratch
        )
        ros_codec.decode(wire)

    classic = summarize(
        "tzc-remote classic",
        _pingpong(rounds, classic_produce, classic_consume),
        warmup,
    )

    sfm_msg = _make_sfm_image()
    sfm_codec = SfmCodec(type(sfm_msg))
    layout = type(sfm_msg)._layout
    split_decoder = tzc.SplitDecoder(tzc.BulkBudget())

    def tzc_produce(sock) -> None:
        payload, release = sfm_codec.encode(sfm_msg)
        try:
            parts = tzc.split_message(layout, payload, len(payload))
            tcpros.send_parts(sock, tzc.split_batch_parts([(parts, 0, 0)]))
        finally:
            if release is not None:
                release()

    def tzc_consume(sock) -> None:
        _kind, buffer, order, _trace, _stamp = _recv_event(
            sock, split_decoder, scratch
        )
        sfm_codec.decode_adopted(buffer, order)

    split = summarize(
        "tzc-remote tzc",
        _pingpong(rounds, tzc_produce, tzc_consume),
        warmup,
    )
    return {
        "payload_bytes": IMAGE_SIDE * IMAGE_SIDE * 3,
        "iterations": rounds,
        "classic": _stats_entry(classic),
        "tzc": _stats_entry(split),
        "speedup": round(classic.p50_ms / split.p50_ms, 3),
        "speedup_basis": "p50",
        # Same floor-verdict gating as ``unsized``: the ratio inflates
        # several-fold on loaded machines (the serializer arm is
        # CPU-bound, the TZC arm syscall-bound), so gate the contract.
        "floor": TZC_FLOOR,
        "meets_floor": int(classic.p50_ms / split.p50_ms >= TZC_FLOOR),
    }


def main() -> int:
    unsized = run_unsized(40)
    remote = run_tzc_remote(40)
    if "skipped" in unsized:
        print(f"unsized: skipped ({unsized['skipped']})")
    else:
        print(
            f"unsized republish (grown {unsized['payload_bytes']} B): "
            f"delta {unsized['speedup']:.2f}x over full copy "
            f"(p50 {unsized['full_copy']['p50_ms']:.3f} ms -> "
            f"{unsized['delta']['p50_ms']:.3f} ms)"
        )
    print(
        f"tzc remote ({remote['payload_bytes']} B loopback): "
        f"{remote['speedup']:.2f}x over classic TCPROS "
        f"(p50 {remote['classic']['p50_ms']:.3f} ms -> "
        f"{remote['tzc']['p50_ms']:.3f} ms)"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
