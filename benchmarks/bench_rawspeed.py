"""Raw-speed microbenchmarks behind ``BENCH_rawspeed.json``.

Three measurements, one per hot-path layer (DESIGN.md "Hot path"):

- **field_access** — scalar get/set ns/op on a root SFM message through
  the compiled accessors vs the generic descriptors.  Interleaved
  min-of-repeats: each repeat times both strategies back to back so a
  scheduler stall cannot land on only one of them, and the minimum is
  the closest observable to the true cost on a shared machine.
- **doorbell** — 37-byte slot-announcement frames per second through a
  real socketpair with a consuming reader thread, on the production
  encoder and decoder (``frames_to_parts`` into ``DoorbellDecoder``):
  16 frames per encode-and-send vs one.  This isolates the syscall
  amortization the SHMROS sender's drain-batch flush buys on
  small-message streams.
- **publish** — end-to-end SHMROS delivery rate (publish to callback,
  batching on) for a 64 B string and a 1 MB image, so the component
  wins above stay anchored to what the whole Python pipeline does.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.sfm.generator import generate_sfm_class
import repro.msg.library  # noqa: F401 - registers the standard types


# ----------------------------------------------------------------------
# Field access: codegen vs descriptors
# ----------------------------------------------------------------------
def _time_ns_per_op(fn, number: int) -> float:
    start = time.perf_counter_ns()
    fn(number)
    return (time.perf_counter_ns() - start) / number


def _interleaved_min(fast_fn, slow_fn, number: int,
                     repeats: int) -> tuple[float, float]:
    fast = slow = float("inf")
    for _ in range(repeats):
        fast = min(fast, _time_ns_per_op(fast_fn, number))
        slow = min(slow, _time_ns_per_op(slow_fn, number))
    return fast, slow


def _make_get(msg):
    def run(n: int) -> None:
        for _ in range(n):
            msg.height
    return run


def _make_set(msg):
    def run(n: int) -> None:
        for _ in range(n):
            msg.height = 480
    return run


def _make_cycle(msg):
    def run(n: int) -> None:
        for _ in range(n):
            msg.height = 480
            msg.height
    return run


def bench_field_access(number: int = 200_000, repeats: int = 7) -> dict:
    fast_cls = generate_sfm_class("sensor_msgs/Image", codegen=True)
    slow_cls = generate_sfm_class("sensor_msgs/Image", codegen=False)
    fast_msg, slow_msg = fast_cls(), slow_cls()
    fast_msg.height = slow_msg.height = 480
    out: dict = {"type": "sensor_msgs/Image", "field": "height",
                 "number": number, "repeats": repeats}
    for label, maker in (("get", _make_get), ("set", _make_set),
                         ("cycle", _make_cycle)):
        fast_ns, slow_ns = _interleaved_min(
            maker(fast_msg), maker(slow_msg), number, repeats
        )
        out[f"codegen_{label}_ns"] = round(fast_ns, 1)
        out[f"descriptor_{label}_ns"] = round(slow_ns, 1)
        out[f"speedup_{label}"] = round(slow_ns / fast_ns, 3)
    return out


# ----------------------------------------------------------------------
# Doorbell: coalesced vs frame-at-a-time
# ----------------------------------------------------------------------
BATCH_SIZE = 16


def _doorbell_rate(batch_size: int, total: int) -> float:
    from repro.ros.transport import shm, tcpros

    tx, rx = socket.socketpair()
    seen = threading.Event()

    def consume() -> None:
        decoder = shm.DoorbellDecoder()
        decoded = 0
        while decoded < total:
            chunk = rx.recv(65536)
            if not chunk:
                return
            decoded += len(decoder.feed(chunk))
        seen.set()

    reader_thread = threading.Thread(target=consume, daemon=True)
    reader_thread.start()
    frames = [("slot", 1, seq, 64, 0, 0) for seq in range(batch_size)]
    start = time.perf_counter()
    for _ in range(total // batch_size):
        tcpros.send_parts(tx, shm.frames_to_parts(None, frames))
    seen.wait(60)
    elapsed = time.perf_counter() - start
    tx.close()
    rx.close()
    return total / elapsed


def bench_doorbell(total: int = 64_000, repeats: int = 3) -> dict:
    batched = unbatched = 0.0
    for _ in range(repeats):  # interleaved, best-of
        batched = max(batched, _doorbell_rate(BATCH_SIZE, total))
        unbatched = max(unbatched, _doorbell_rate(1, total))
    return {
        "frames": total,
        "batch_size": BATCH_SIZE,
        "batched_frames_per_s": round(batched),
        "unbatched_frames_per_s": round(unbatched),
        "speedup": round(batched / unbatched, 3),
    }


# ----------------------------------------------------------------------
# End-to-end SHMROS delivery
# ----------------------------------------------------------------------
def _publish_rate(make_msg, count: int, shm_slots: int = 256) -> dict:
    from repro.ros import RosGraph
    from repro.ros.retry import wait_until

    msg = make_msg()
    got = [0]
    done = threading.Event()

    def callback(_msg) -> None:
        got[0] += 1
        if got[0] >= count:
            done.set()

    with RosGraph() as graph:
        pub_node = graph.node("rawspeed_pub")
        sub_node = graph.node("rawspeed_sub")
        subscriber = sub_node.subscribe("/rawspeed", type(msg), callback)
        publisher = pub_node.advertise(
            "/rawspeed", type(msg), queue_size=count + 8, shm_slots=shm_slots
        )
        wait_until(
            lambda: subscriber.stats()["transports"].get("SHMROS"),
            desc="SHMROS link",
        )
        start = time.perf_counter()
        for _ in range(count):
            publisher.publish(msg)
        completed = done.wait(120)
        elapsed = time.perf_counter() - start
        payload = publisher.stats()["bytes"] // max(count, 1)
    return {
        "messages": count,
        "payload_bytes": payload,
        "delivered": got[0],
        "completed": completed,
        "messages_per_s": round(count / elapsed, 1),
        "megabytes_per_s": round(count * payload / elapsed / 1e6, 2),
    }


def bench_publish(small_count: int = 4000, large_count: int = 200) -> dict:
    from repro.msg.library import Image, String

    def small() -> String:
        msg = String()
        msg.data = "x" * 64
        return msg

    def large() -> Image:
        msg = Image()
        msg.height = 1024
        msg.width = 1024
        msg.step = 1024
        msg.data = b"\x5a" * (1024 * 1024)
        return msg

    return {
        "string_64b": _publish_rate(small, small_count),
        "image_1mb": _publish_rate(large, large_count, shm_slots=8),
    }


def run_rawspeed(field_number: int = 200_000, doorbell_frames: int = 64_000,
                 small_count: int = 4000, large_count: int = 200) -> dict:
    return {
        "field_access": bench_field_access(number=field_number),
        "doorbell": bench_doorbell(total=doorbell_frames),
        "publish": bench_publish(small_count, large_count),
    }


if __name__ == "__main__":
    import json

    print(json.dumps(run_rawspeed(), indent=2))
