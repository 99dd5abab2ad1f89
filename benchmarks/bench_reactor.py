#!/usr/bin/env python
"""The reactor at scale: bridge fan-out and a 1000-subscription sustain.

One selector loop and a small worker pool carry every gateway session.
This bench pins the two properties that design exists for, as
absolutes:

* **Fan-out** -- one internal publisher streams small
  ``std_msgs/String`` messages through the bridge to 768 raw-socket
  subscribers.  Clients are raw sockets drained by a single selector
  loop so the client side adds no threads of its own.  Two numbers are
  gated: the process carries the whole fan-out on at most
  :data:`THREAD_BOUND` threads, and the per-connection delivery rate
  (``msgs_per_conn_per_s``) holds against the committed baseline.

* **Sustain** -- 1000 concurrent subscriptions, every published message
  delivered to every client with zero drops and zero evictions, while
  the process grows by at most the reactor's fixed pool (1 loop + 3
  workers).

``meets_floor`` is the thread bound AND the sustain holding;
``benchmarks/check_regression.py`` gates it, the sustain and the rate.
:data:`FROZEN_COMPARISON` is the last measurement taken against the
thread-per-connection implementation; that implementation is gone, so
the block is carried into the snapshot read-only.

Usage::

    PYTHONPATH=src python benchmarks/bench_reactor.py [--clients N]
        [--messages M] [--sustain-clients N] [--sustain-messages M]

``benchmarks/snapshot.py --experiment reactor`` wraps this into the
committed ``BENCH_reactor.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import socket
import subprocess
import sys
import threading
import time

#: Threads the whole process may hold mid-fan-out at 768 clients: main,
#: master, three nodes' slave + watchdog pairs are fixed cost; the
#: connections themselves must add nothing beyond the reactor pool.
THREAD_BOUND = 12

#: Measured at commit cc82087 (768 clients, 96 messages), the last tree
#: that could run both I/O models.  Never re-measured.
FROZEN_COMPARISON = {
    "commit": "cc82087",
    "clients": 768,
    "reactor": {"threads_during": 10, "msgs_per_conn_per_s": 134.21},
    "thread_per_connection": {
        "threads_during": 1548, "msgs_per_conn_per_s": 26.54,
    },
    "speedup_per_conn": 5.06,
}

#: Thread growth allowed for the sustain witness: the reactor's own
#: fixed pool (1 loop + 3 workers).
THREAD_GROWTH_BOUND = 4

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src")


class _DeliveryCounter:
    """Count TAG_RAW delivery frames on one client socket.

    The bridge wire is ``u32le length | tag | body``; keepalives are
    zero-length frames and control replies are TAG_JSON, so a delivery
    is any non-empty frame whose tag byte is TAG_RAW (0x01).
    """

    __slots__ = ("buffer", "frames")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.frames = 0

    def feed(self, data) -> None:
        self.buffer += data
        while len(self.buffer) >= 4:
            length = int.from_bytes(self.buffer[:4], "little")
            end = 4 + length
            if len(self.buffer) < end:
                break
            if length and self.buffer[4] == 0x01:
                self.frames += 1
            del self.buffer[:end]


def _connect_subscribers(server, topic: str, count: int) -> list:
    """Open ``count`` raw bridge connections subscribed to ``topic``
    with the raw codec.  Handshakes are pipelined (send all, then read
    all) so setup stays O(RTT), not O(count * RTT)."""
    from repro.bridge import protocol

    socks = []
    for _ in range(count):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        protocol.write_bridge_frame(
            sock, protocol.TAG_JSON,
            protocol.encode_json_op({"op": "hello", "codec": "raw"}))
        socks.append(sock)
    for sock in socks:
        _tag, body = protocol.read_bridge_frame(sock)
        op = protocol.decode_json_op(body)
        if op.get("op") != "hello_ok":
            raise RuntimeError(f"hello refused: {op}")
    for sock in socks:
        protocol.write_bridge_frame(
            sock, protocol.TAG_JSON,
            protocol.encode_json_op({
                "op": "subscribe", "topic": topic,
                "type": "std_msgs/String",
            }))
    for sock in socks:
        _tag, body = protocol.read_bridge_frame(sock)
        op = protocol.decode_json_op(body)
        if op.get("op") != "subscribe_ok":
            raise RuntimeError(f"subscribe refused: {op}")
    return socks


def _drive_fanout(pub, socks: list, messages: int,
                  window: int = 32, timeout: float = 180.0) -> dict:
    """Publish ``messages`` with a bounded in-flight window while one
    selector loop drains every client, until the slowest client has
    every message.  Returns elapsed plus the delivery floor."""
    from repro.msg.library import String

    sel = selectors.DefaultSelector()
    counters = []
    for sock in socks:
        sock.setblocking(False)
        counter = _DeliveryCounter()
        counters.append(counter)
        sel.register(sock, selectors.EVENT_READ, counter)
    msg = String()
    msg.data = "x" * 64
    published = 0
    deadline = time.monotonic() + timeout
    start = time.perf_counter()
    try:
        while True:
            floor = min(counter.frames for counter in counters)
            if floor >= messages:
                break
            # Windowed flow control: far enough ahead of the slowest
            # client to keep the server busy, bounded so queues stay
            # honest.
            while published < messages and published - floor < window:
                pub.publish(msg)
                published += 1
            for key, _events in sel.select(timeout=0.05):
                try:
                    chunk = key.fileobj.recv(1 << 18)
                except (BlockingIOError, InterruptedError):
                    continue
                if not chunk:
                    raise RuntimeError("bridge closed a bench client")
                key.data.feed(chunk)
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fan-out stalled at {floor}/{messages} deliveries")
        elapsed = time.perf_counter() - start
    finally:
        sel.close()
    return {
        "elapsed_s": round(elapsed, 4),
        "delivered": sum(counter.frames for counter in counters),
    }


def _fanout_cell(clients: int, messages: int) -> dict:
    """One fan-out measurement."""
    from repro.bridge.server import BridgeServer
    from repro.msg.library import String
    from repro.ros.graph import RosGraph

    topic = "/reactor_fan"
    with RosGraph() as graph:
        with BridgeServer(graph.master_uri) as server:
            pub = graph.node("reactor_fan_pub").advertise(topic, String)
            socks = _connect_subscribers(server, topic, clients)
            try:
                if not pub.wait_for_subscribers(1, timeout=10.0):
                    raise RuntimeError("bridge tap never connected")
                threads = threading.active_count()
                result = _drive_fanout(pub, socks, messages)
            finally:
                for sock in socks:
                    sock.close()
    per_conn = messages / result["elapsed_s"]
    return {
        "clients": clients,
        "messages": messages,
        "elapsed_s": result["elapsed_s"],
        "delivered": result["delivered"],
        "threads_during": threads,
        "msgs_per_conn_per_s": round(per_conn, 2),
        "deliveries_per_s": round(per_conn * clients, 1),
    }


def _sustain_cell(clients: int, messages: int) -> dict:
    """The 1k-subscription sustain witness: every delivery lands, nothing is shed or evicted, thread growth stays
    within the reactor's fixed pool."""
    from repro.bridge.server import BridgeServer
    from repro.msg.library import String
    from repro.ros.graph import RosGraph

    topic = "/reactor_sustain"
    with RosGraph() as graph:
        with BridgeServer(graph.master_uri) as server:
            before = threading.active_count()
            pub = graph.node("reactor_sustain_pub").advertise(topic, String)
            socks = _connect_subscribers(server, topic, clients)
            try:
                if not pub.wait_for_subscribers(1, timeout=10.0):
                    raise RuntimeError("bridge tap never connected")
                after = threading.active_count()
                result = _drive_fanout(pub, socks, messages,
                                       window=4, timeout=300.0)
                snap = server.stats_snapshot()
                dropped = sum(sub["dropped"]
                              for sub in snap["subscriptions"])
                evictions = snap["evictions"]
            finally:
                for sock in socks:
                    sock.close()
    expected = clients * messages
    growth = after - before
    return {
        "clients": clients,
        "messages": messages,
        "elapsed_s": result["elapsed_s"],
        "delivered": result["delivered"],
        "expected": expected,
        "dropped": dropped,
        "evictions": evictions,
        "thread_growth": growth,
        "sustained": bool(
            result["delivered"] >= expected
            and dropped == 0
            and evictions == 0
            and growth <= THREAD_GROWTH_BOUND
        ),
    }


def _run_child(child: str, clients: int, messages: int,
               timeout: float = 600.0) -> dict:
    """Run one cell in a fresh subprocess, so its thread counts are its
    own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", child,
         "--clients", str(clients), "--messages", str(messages)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{child} child failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_reactor_bench(clients: int = 768, messages: int = 100,
                      sustain_clients: int = 1000,
                      sustain_messages: int = 5) -> dict:
    fanout = _run_child("fanout", clients, messages)
    print("  ran", fanout, flush=True)
    sustain = _run_child("sustain", sustain_clients, sustain_messages)
    print("  ran", sustain, flush=True)
    return {
        "fanout": fanout,
        "sustain": sustain,
        "thread_bound": THREAD_BOUND,
        "meets_floor": bool(
            fanout["threads_during"] <= THREAD_BOUND
            and sustain["sustained"]
        ),
        "frozen_comparison": FROZEN_COMPARISON,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=768)
    parser.add_argument("--messages", type=int, default=100)
    parser.add_argument("--sustain-clients", type=int, default=1000)
    parser.add_argument("--sustain-messages", type=int, default=5)
    parser.add_argument("--child", choices=("fanout", "sustain"),
                        help="internal: run one cell in this process "
                             "and print its JSON")
    args = parser.parse_args(argv)
    if args.child:
        if args.child == "fanout":
            cell = _fanout_cell(args.clients, args.messages)
        else:
            cell = _sustain_cell(args.clients, args.messages)
        print(json.dumps(cell))
        return 0
    payload = run_reactor_bench(
        clients=args.clients, messages=args.messages,
        sustain_clients=args.sustain_clients,
        sustain_messages=args.sustain_messages,
    )
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
