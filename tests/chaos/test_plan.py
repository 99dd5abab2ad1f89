"""FaultPlan unit behaviour on raw socket pairs: rule scoping, counter
windows, per-action semantics, seed determinism, and clean uninstall.

These tests exercise the chaos seam exactly the way the transports do --
``tcpros.wrap_socket`` at connection setup -- but against plain
``socketpair`` ends so every byte on the wire is visible.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.ros.transport import shm, tcpros


@pytest.fixture
def pair_factory():
    sockets: list[socket.socket] = []

    def make(seam: str = "tcpros", **context):
        left, right = socket.socketpair()
        sockets.extend([left, right])
        right.settimeout(2.0)
        return tcpros.wrap_socket(left, seam, **context), right

    yield make
    for sock in sockets:
        try:
            sock.close()
        except OSError:
            pass


def _drain(sock: socket.socket, max_bytes: int = 4096) -> bytes:
    """Everything currently readable (non-blocking)."""
    sock.setblocking(False)
    try:
        return sock.recv(max_bytes)
    except BlockingIOError:
        return b""
    finally:
        sock.setblocking(True)
        sock.settimeout(2.0)


def test_wrap_is_identity_without_a_plan(pair_factory):
    left, right = socket.socketpair()
    try:
        assert tcpros.wrap_socket(left, "tcpros", role="subscriber") is left
    finally:
        left.close()
        right.close()


def test_wrapped_socket_passes_traffic_through(plan_factory, pair_factory):
    plan_factory(seed=1)  # installed, but no rules
    wrapped, right = pair_factory(role="subscriber", topic="/t")
    wrapped.sendall(b"hello")
    assert right.recv(5) == b"hello"


def test_drop_window_honours_after_and_count(plan_factory, pair_factory):
    plan = plan_factory(seed=1)
    plan.drop(op="send", after=1, count=1)
    wrapped, right = pair_factory()
    wrapped.sendall(b"a")  # before the window: passes
    wrapped.sendall(b"b")  # inside: swallowed
    wrapped.sendall(b"c")  # window exhausted: passes
    assert right.recv(1) == b"a"
    assert right.recv(1) == b"c"
    assert [event[0] for event in plan.events] == ["drop"]


def test_same_seed_corrupts_the_same_bytes(plan_factory, pair_factory):
    payload = bytes(range(64))
    outputs = []
    for seed in (7, 7, 8):
        plan = plan_factory(seed=seed)
        plan.corrupt(op="send", flips=4)
        wrapped, right = pair_factory()
        wrapped.sendall(payload)
        outputs.append(right.recv(len(payload)))
        plan.uninstall()
    same_a, same_b, other = outputs
    assert same_a == same_b, "same seed must flip the same bytes"
    assert same_a != payload and len(same_a) == len(payload)
    assert other != same_a, "a different seed flips different bytes"


def test_recv_corruption_flips_in_place(plan_factory, pair_factory):
    payload = bytes(range(32))
    plan = plan_factory(seed=3)
    plan.corrupt(op="recv", flips=2)
    wrapped, right = pair_factory()
    right.sendall(payload)
    buffer = bytearray(len(payload))
    got = wrapped.recv_into(buffer)
    assert got == len(payload)
    assert bytes(buffer) != payload


def test_delay_sleeps_before_the_operation(plan_factory, pair_factory):
    plan = plan_factory(seed=0)
    plan.delay(0.05, op="send")
    wrapped, right = pair_factory()
    start = time.monotonic()
    wrapped.sendall(b"x")
    assert time.monotonic() - start >= 0.04
    assert right.recv(1) == b"x"


def test_kill_raises_and_peer_sees_eof(plan_factory, pair_factory):
    plan = plan_factory(seed=0)
    plan.kill(op="send")
    wrapped, right = pair_factory()
    with pytest.raises(ConnectionError):
        wrapped.sendall(b"doomed")
    assert right.recv(16) == b""


def test_truncate_delivers_a_prefix_then_cuts(plan_factory, pair_factory):
    plan = plan_factory(seed=0)
    plan.truncate(op="send", min_size=8)
    wrapped, right = pair_factory()
    with pytest.raises(ConnectionError):
        wrapped.sendall(b"0123456789abcdef")
    assert right.recv(64) == b"01234567"  # half, then EOF
    assert right.recv(16) == b""


def test_rules_scope_by_topic_and_role(plan_factory, pair_factory):
    plan = plan_factory(seed=0)
    plan.drop(op="send", topic="/noisy", role="subscriber")
    matching, matching_peer = pair_factory(role="subscriber", topic="/noisy")
    other_topic, other_peer = pair_factory(role="subscriber", topic="/calm")
    other_role, role_peer = pair_factory(role="publisher", topic="/noisy")
    matching.sendall(b"m")
    other_topic.sendall(b"t")
    other_role.sendall(b"r")
    assert _drain(matching_peer) == b""
    assert other_peer.recv(1) == b"t"
    assert role_peer.recv(1) == b"r"


def test_min_size_spares_small_control_reads(plan_factory, pair_factory):
    plan = plan_factory(seed=0)
    plan.drop(op="send", min_size=16)
    wrapped, right = pair_factory()
    wrapped.sendall(b"tiny")  # under the floor: passes
    assert right.recv(4) == b"tiny"
    wrapped.sendall(b"x" * 32)  # over: swallowed
    assert _drain(right) == b""


def test_sever_cuts_every_matching_tracked_connection(plan_factory,
                                                      pair_factory):
    plan = plan_factory(seed=0)
    one, one_peer = pair_factory(role="subscriber", topic="/a")
    two, two_peer = pair_factory(role="subscriber", topic="/b")
    assert plan.open_connections() == 2
    assert plan.sever(topic="/a") == 1
    assert one_peer.recv(16) == b""  # cut
    two.sendall(b"alive")
    assert two_peer.recv(5) == b"alive"  # spared
    assert plan.sever() == 2  # the dead socket is still tracked; both match
    assert two_peer.recv(16) == b""


def test_uninstall_restores_passthrough(plan_factory):
    plan = plan_factory(seed=0)
    plan.kill(op="send")
    plan.uninstall()
    left, right = socket.socketpair()
    try:
        wrapped = tcpros.wrap_socket(left, "tcpros")
        assert wrapped is left
        wrapped.sendall(b"fine")
        assert right.recv(4) == b"fine"
    finally:
        left.close()
        right.close()


def test_stall_doorbell_suppresses_shm_control_frames(plan_factory):
    plan = plan_factory(seed=0)
    plan.stall_doorbell()
    left, right = socket.socketpair()
    try:
        assert shm.frames_to_parts(left, [("keepalive",)]) == []  # suppressed
        plan.uninstall()
        tcpros.send_parts(left, shm.frames_to_parts(left, [("keepalive",)]))
        assert shm.DoorbellDecoder().feed(right.recv(4096)) == [("keepalive",)]
    finally:
        left.close()
        right.close()


def test_keepalive_word_is_invisible_to_frame_readers():
    left, right = socket.socketpair()
    try:
        left.sendall(tcpros.KEEPALIVE_FRAME)
        tcpros.write_frame(left, b"payload")
        assert bytes(tcpros.read_frame(right)) == b"payload"
    finally:
        left.close()
        right.close()
