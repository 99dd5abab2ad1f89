"""Unit tests for the reactor core: the selector loop, the Link
protocol's lifecycle contract, incremental decoders and timers.

These pin the seam every transport rides on -- in particular the
teardown contract (``close()`` idempotent and exception-free,
``on_error`` delivered at most once) and the fixed-pool claim
(1 loop + WORKER_COUNT workers regardless of link count).
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.ros import reactor as reactor_mod
from repro.ros.reactor import (
    AcceptorLink,
    FrameDecoder,
    RawDecoder,
    Reactor,
    StreamLink,
    WORKER_COUNT,
)
from repro.ros.retry import wait_until


@pytest.fixture()
def loop():
    return Reactor()


def _frame(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


# ----------------------------------------------------------------------
# Decoders
# ----------------------------------------------------------------------
class TestFrameDecoder:
    def test_reassembles_across_arbitrary_chunking(self):
        wire = _frame(b"alpha") + _frame(b"") + _frame(b"bravo" * 100)
        for step in (1, 3, 7, len(wire)):
            decoder = FrameDecoder()
            events = []
            for start in range(0, len(wire), step):
                events += decoder.feed(wire[start:start + step])
            payloads = [bytes(ev[1]) for ev in events]
            assert payloads == [b"alpha", b"", b"bravo" * 100], (
                f"chunk step {step}"
            )

    def test_keepalive_words_are_skipped(self):
        wire = b"\xff\xff\xff\xff" + _frame(b"x") + b"\xff\xff\xff\xff"
        events = FrameDecoder().feed(wire)
        assert [bytes(ev[1]) for ev in events] == [b"x"]

    def test_traced_prefix_is_stripped(self):
        body = struct.pack("<QQ", 77, 123456789) + b"payload"
        events = FrameDecoder(traced=True).feed(_frame(body))
        assert [(bytes(p), tid, ns) for _k, p, tid, ns in events] == [
            (b"payload", 77, 123456789)
        ]

    def test_oversized_frame_is_an_error(self):
        from repro.ros.exceptions import ConnectionHandshakeError

        with pytest.raises(ConnectionHandshakeError):
            FrameDecoder(max_frame=16).feed(_frame(b"y" * 17))

    def test_raw_decoder_passes_chunks_through(self):
        assert RawDecoder().feed(b"abc") == [("data", b"abc")]


# ----------------------------------------------------------------------
# StreamLink lifecycle
# ----------------------------------------------------------------------
def _linked_pair(loop, **kwargs):
    """A StreamLink on one end of a socketpair, raw socket on the other."""
    left, right = socket.socketpair()
    events, errors = [], []
    done = threading.Event()
    link = StreamLink(
        left, FrameDecoder(),
        on_events=lambda evs: (events.extend(evs), done.set()),
        on_error=errors.append,
        reactor=loop, label="test", **kwargs,
    )
    link.start()
    return link, right, events, errors, done


class TestStreamLink:
    def test_echo_roundtrip(self, loop):
        link, peer, events, errors, done = _linked_pair(loop)
        try:
            peer.sendall(_frame(b"ping"))
            assert done.wait(5.0)
            assert [bytes(ev[1]) for ev in events] == [b"ping"]
            flushed = threading.Event()
            link.write([_frame(b"pong")], on_flushed=flushed.set)
            peer.settimeout(5.0)
            reply = peer.recv(64)
            assert reply == _frame(b"pong")
            assert flushed.wait(5.0)
            assert not errors
            stats = link.stats()
            assert stats["rx_bytes"] == len(_frame(b"ping"))
            assert stats["tx_bytes"] == len(_frame(b"pong"))
            assert stats["write_backlog"] == 0
        finally:
            link.close()
            peer.close()

    def test_peer_eof_delivers_on_error_once(self, loop):
        link, peer, _events, errors, _done = _linked_pair(loop)
        try:
            peer.close()
            assert wait_until(lambda: errors, timeout=5.0)
            assert len(errors) == 1
            # A second failure signal after death stays silent.
            link.on_error(ConnectionError("again"))
            assert len(errors) == 1
            assert link.link_state == "dead"
        finally:
            link.close()

    def test_close_is_idempotent_and_exception_free(self, loop):
        left, right = socket.socketpair()
        errors = []
        link = StreamLink(left, FrameDecoder(), on_events=lambda evs: None,
                          on_error=errors.append, reactor=loop,
                          label="teardown")
        # Never started: the write can only queue, so teardown must
        # release its flush callback rather than leak it.
        flushed = []
        link.write([_frame(b"never sent")],
                   on_flushed=lambda: flushed.append(True))
        link.close()
        link.close()  # second close: no-op, no raise
        link.on_error(ConnectionError("late"))  # post-close: swallowed
        assert link.link_state == "dead"
        assert link.fileno() == -1
        assert flushed == [True]
        assert not errors  # close() is a teardown, not a failure
        right.close()

    def test_socket_closed_behind_the_reactor_is_reaped(self, loop):
        link, peer, _events, errors, _done = _linked_pair(loop)
        try:
            # Close the fd out from under the registration (the chaos
            # sever shape): no epoll event ever fires, the liveness
            # sweep must fail the link instead.  Generous wait: late in
            # a full-suite run this private loop thread competes with
            # hundreds of leftover threads for the GIL -- so first let it
            # complete the registration ``start()`` only queued; a socket
            # closed before that is never registered, hence never reaped.
            wait_until(lambda: loop.link_for(link.fileno()) is link,
                       timeout=30.0, desc="registration")
            link.sock.close()
            assert wait_until(lambda: errors, timeout=30.0)
            assert link.link_state == "dead"
        finally:
            link.close()
            peer.close()

    def test_idle_timeout_fails_the_link(self, loop):
        link, peer, _events, errors, _done = _linked_pair(
            loop, idle_timeout=0.2)
        try:
            assert wait_until(lambda: errors, timeout=5.0)
            assert isinstance(errors[0], socket.timeout)
        finally:
            link.close()
            peer.close()

    def test_write_before_registration_still_flushes(self, loop):
        # The register/want_write race: a write issued between start()
        # and the loop's _register tick must still arm write interest.
        left, right = socket.socketpair()
        link = StreamLink(left, FrameDecoder(), on_events=lambda evs: None,
                          reactor=loop, label="race")
        done = threading.Event()
        loop.call_soon(lambda: (link.write([_frame(b"early")]),
                                link.start(), done.set()))
        assert done.wait(5.0)
        try:
            right.settimeout(5.0)
            assert right.recv(64) == _frame(b"early")
        finally:
            link.close()
            right.close()


    def test_send_if_idle_only_lands_between_writes(self, loop):
        """The last-word send goes out when nothing is unflushed and is
        skipped -- not queued, not interleaved -- behind a stalled batch,
        so what the peer reads is every write whole."""
        link, peer, _events, _errors, _done = _linked_pair(loop)
        try:
            assert link.send_if_idle(b"idle")
            peer.settimeout(5.0)
            assert peer.recv(64) == b"idle"
            # The peer stops reading: a write larger than the socket
            # buffers is left partially flushed.
            link.write([b"x" * (8 << 20)])
            wait_until(lambda: link.stats()["tx_bytes"] > 4, timeout=5.0)
            assert link.write_backlog() > 0
            assert not link.send_if_idle(b"TORN")
            link.close()
            assert not link.send_if_idle(b"late")
            received = b""
            while True:
                data = peer.recv(1 << 20)
                if not data:
                    break
                received += data
            assert received and set(received) == {ord("x")}
            assert len(received) == link.stats()["tx_bytes"] - 4
        finally:
            link.close()
            peer.close()


# ----------------------------------------------------------------------
# Scheduling primitives
# ----------------------------------------------------------------------
class TestScheduling:
    def test_serial_queue_preserves_order_past_exceptions(self, loop):
        ran, failures = [], []
        queue = loop.serial_queue(on_error=failures.append)
        done = threading.Event()

        def boom():
            raise RuntimeError("task 1 fails")

        queue.push(lambda: ran.append(0))
        queue.push(boom)
        queue.push(lambda: ran.append(2))
        queue.push(done.set)
        assert done.wait(5.0)
        assert ran == [0, 2]  # order kept, the failure did not stall it
        assert len(failures) == 1

    def test_call_later_fires_and_cancel_suppresses(self, loop):
        fired, cancelled = threading.Event(), []
        loop.call_later(0.05, fired.set)
        timer = loop.call_later(0.05, lambda: cancelled.append(True))
        timer.cancel()
        assert fired.wait(5.0)
        assert wait_until(lambda: fired.is_set(), timeout=1.0)
        assert not cancelled

    def test_fixed_pool_size(self, loop):
        assert loop.thread_count() == 1 + WORKER_COUNT

    def test_acceptor_link_hands_off_connections(self, loop):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        accepted = []
        acceptor = AcceptorLink(
            listener, lambda sock, addr: accepted.append((sock, addr)),
            reactor=loop, label="test-accept",
        )
        acceptor.start()
        try:
            client = socket.create_connection(
                listener.getsockname(), timeout=5.0)
            assert wait_until(lambda: accepted, timeout=5.0)
            conn, addr = accepted[0]
            assert addr[0] == "127.0.0.1"
            conn.close()
            client.close()
        finally:
            acceptor.close()


def test_global_reactor_is_a_singleton():
    assert reactor_mod.global_reactor() is reactor_mod.global_reactor()
