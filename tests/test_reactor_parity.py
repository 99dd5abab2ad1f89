"""Reactor witnesses: fixed workloads with literal expected results, and
the thread-count bound that is the point of a shared event loop.

Each workload runs once in a fresh subprocess (so the thread counts are
the child's own) and prints a JSON result.  The pub/sub, service and
bridge workloads are deterministic -- one publisher, in-order links --
so their results are asserted literally.

The idle witness pins the scaling claim: 512 established bridge
connections parked on one server grow the process by at most the
reactor's own fixed pool (1 loop + 3 workers).  Its pub/sub sibling does
the same for topic links: one live publisher streaming to 32 subscribers,
half over TCPROS and half over SHMROS, owns no per-link thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: 1 loop + WORKER_COUNT workers.
REACTOR_POOL = 4


def _run_child(script: str, timeout: float = 180.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, (
        f"child failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


PUBSUB_CHILD = r"""
import json, threading
from repro.msg.library import String
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until

got, lock = [], threading.Lock()
with RosGraph() as graph:
    pub = graph.node("parity_pub").advertise("/parity", String)
    def on_msg(msg):
        with lock:
            got.append(msg.data)
    graph.node("parity_sub").subscribe("/parity", String, on_msg)
    assert pub.wait_for_subscribers(1, timeout=10)
    for i in range(20):
        msg = String(); msg.data = f"m{i}"
        pub.publish(msg)
    wait_until(lambda: len(got) >= 20, desc="20 deliveries")
print(json.dumps({"messages": got}))
"""

SERVICE_CHILD = r"""
import json
from repro.msg.srv import service_type
from repro.ros.graph import RosGraph

add = service_type("rossf_bench/AddTwoInts")
with RosGraph() as graph:
    server = graph.node("parity_srv")
    def handler(req):
        resp = add.response_class(); resp.sum = req.a + req.b
        return resp
    server.advertise_service("/parity_add", add, handler)
    proxy = graph.node("parity_cli").service_proxy(
        "/parity_add", add, timeout=10.0)
    answers = []
    for a, b in [(1, 2), (40, 2), (-5, 5)]:
        req = add.request_class(); req.a = a; req.b = b
        answers.append(proxy(req).sum)
    proxy.close_connection()
print(json.dumps({"answers": answers}))
"""

BRIDGE_CHILD = r"""
import json, threading
from repro.bridge.client import BridgeClient
from repro.bridge.server import BridgeServer
from repro.msg.library import String
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until

got, lock = [], threading.Lock()
with RosGraph() as graph:
    pub = graph.node("parity_bpub").advertise("/parity_b", String)
    with BridgeServer(graph.master_uri) as server:
        with BridgeClient(server.host, server.port) as client:
            def on_msg(msg, _meta):
                with lock:
                    got.append(msg["data"])
            client.subscribe("/parity_b", "std_msgs/String", on_msg)
            assert pub.wait_for_subscribers(1, timeout=10)
            for i in range(10):
                msg = String(); msg.data = f"b{i}"
                pub.publish(msg)
            wait_until(lambda: len(got) >= 10, desc="bridge deliveries")
            chan = client.advertise("/parity_up", "std_msgs/String")
            client.publish("/parity_up", {"data": "up!"})
print(json.dumps({"messages": got, "chan": chan}))
"""

IDLE_CHILD = r"""
import json, socket, threading
from repro.bridge import protocol
from repro.bridge.server import BridgeServer
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until

N = 512
with RosGraph() as graph:
    with BridgeServer(graph.master_uri) as server:
        before = threading.active_count()
        socks = []
        for _ in range(N):
            sock = socket.create_connection(
                (server.host, server.port), timeout=10.0)
            protocol.write_bridge_frame(
                sock, protocol.TAG_JSON,
                protocol.encode_json_op({"op": "hello"}))
            socks.append(sock)
        for sock in socks:
            tag, body = protocol.read_bridge_frame(sock)
            assert protocol.decode_json_op(body)["op"] == "hello_ok"
        wait_until(
            lambda: len(server.stats_snapshot()["sessions"]) == N,
            timeout=30.0, desc="all sessions registered")
        after = threading.active_count()
        for sock in socks:
            sock.close()
print(json.dumps({"clients": N, "before": before, "after": after,
                  "growth": after - before}))
"""

# One subscriber node per transport (``shmros`` is a node option), 16
# subscriptions each: node-level threads (XML-RPC slave, master watch)
# exist before the baseline is taken, so the growth measured is what the
# 32 links themselves cost.
FANOUT_CHILD = r"""
import json, threading
from repro.msg.library import String
from repro.ros.graph import RosGraph
from repro.ros.retry import wait_until

N, MESSAGES = 32, 20
counts, lock = [0] * N, threading.Lock()
with RosGraph() as graph:
    pub = graph.node("fan_pub").advertise("/fan", String)
    tcp_node = graph.node("fan_tcp", shmros=False)
    shm_node = graph.node("fan_shm")
    before = threading.active_count()
    subs = []
    for index in range(N):
        def on_msg(_msg, index=index):
            with lock:
                counts[index] += 1
        node = tcp_node if index % 2 else shm_node
        subs.append(node.subscribe("/fan", String, on_msg))
    assert pub.wait_for_subscribers(N, timeout=30)
    for i in range(MESSAGES):
        msg = String(); msg.data = f"f{i}"
        pub.publish(msg)
    wait_until(lambda: min(counts) >= MESSAGES, timeout=30.0,
               desc="every subscriber got every message")
    transports = {}
    for link in pub.links():
        name = link.stats()["transport"]
        transports[name] = transports.get(name, 0) + 1
    # Dial spawns are transient; give the last of them a moment to exit.
    wait_until(
        lambda: not any(t.name.startswith("sub-dial:")
                        for t in threading.enumerate()),
        timeout=10.0, desc="dial spawns exited")
    after = threading.active_count()
    names = sorted(t.name for t in threading.enumerate())
print(json.dumps({"transports": transports, "counts": counts,
                  "growth": after - before, "threads": names}))
"""


def test_pubsub_delivers_in_order():
    result = _run_child(PUBSUB_CHILD)
    assert result == {"messages": [f"m{i}" for i in range(20)]}


def test_service_answers():
    assert _run_child(SERVICE_CHILD) == {"answers": [3, 42, 0]}


def test_bridge_delivers_in_order_and_advertises():
    result = _run_child(BRIDGE_CHILD)
    assert result == {"messages": [f"b{i}" for i in range(10)], "chan": 1}


def test_idle_512_connections_thread_bound():
    """512 parked bridge clients: the reactor adds at most its own fixed
    pool (loop + workers), not a pair of threads per connection."""
    result = _run_child(IDLE_CHILD, timeout=300.0)
    assert result["clients"] == 512
    assert result["growth"] <= REACTOR_POOL, (
        f"thread growth {result['growth']} for 512 idle connections"
    )


def test_fanout_32_subscribers_own_no_per_link_threads():
    """One publisher streaming to 32 subscribers split TCPROS/SHMROS:
    every message reaches every subscriber and the 32 links (64 link
    objects, both ends in this process) add no thread beyond the
    reactor pool."""
    result = _run_child(FANOUT_CHILD, timeout=300.0)
    assert result["transports"] == {"TCPROS": 16, "SHMROS": 16}
    assert result["counts"] == [20] * 32
    assert result["growth"] <= REACTOR_POOL, (
        f"thread growth {result['growth']} for 32 live links: "
        f"{result['threads']}"
    )
    per_link = [
        name for name in result["threads"]
        if name.startswith(("pub:", "pubmon:", "shmpub:", "shmack:", "sub:"))
    ]
    assert per_link == []
