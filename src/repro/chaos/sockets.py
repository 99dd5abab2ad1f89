"""ChaosSocket: a socket proxy that consults a FaultPlan on every I/O.

The transports never see this class by name -- they call
``tcpros.wrap_socket`` at connection setup and receive either the real
socket (no plan installed) or this wrapper.  Every overridden method asks
the plan for an action first; everything else delegates, so the wrapper
is drop-in for the socket subset the transports use
(``send``/``sendall``/``sendmsg``/``recv``/``recv_into``/``settimeout``/...).

Action semantics on a *stream* socket:

- ``drop`` applies to sends only: the bytes are swallowed and reported
  sent.  The transports write one frame per send call, so a swallowed
  send is a cleanly dropped frame, not a desynced stream.
- ``delay`` holds the operation back (both directions).  A blocking
  socket (handshake, service, client) sleeps.  A socket the reactor owns
  must not -- a sleep on the shared loop would stall every link -- so
  *that link alone* is suspended (:func:`suspend_link`) and the operation
  runs when the reactor re-arms it.
- ``corrupt`` flips bytes -- in a copy on the send path, in place in the
  caller's buffer on the receive path -- using the rule's seeded RNG.
- ``truncate`` sends a prefix of the buffer then kills the connection:
  the peer sees a frame cut mid-payload (fragmentation corruption).
- ``kill`` closes the underlying socket and raises ``ConnectionError``.
"""

from __future__ import annotations

import time

from repro.ros.reactor import global_reactor


def suspend_link(sock, seconds: float) -> bool:
    """Take the reactor link that owns ``sock`` off the loop for
    ``seconds``, then re-arm it: no read or write event reaches it in
    between, every other link keeps running.  Returns False off the loop
    thread, where the caller may simply sleep; on it always True -- the
    loop must never sleep, even for a socket that has no link left to
    suspend (closed mid-event)."""
    loop = global_reactor()
    if not loop.in_loop():
        return False
    link = loop.link_for(sock.fileno())
    if link is not None:
        def resume() -> None:
            loop.register(link)
            # A socket closed while suspended has no fd left to poll;
            # the read surfaces that through the link's own error path.
            link.on_readable()

        loop.unregister(link)
        loop.call_later(seconds, resume)
    return True


class ChaosSocket:
    """Wraps a real socket; fault decisions come from the owning plan."""

    def __init__(self, sock, plan, seam: str, context: dict) -> None:
        self._sock = sock
        self._plan = plan
        self.seam = seam
        self.context = dict(context)
        #: op -> monotonic deadline of a delay being served by a
        #: suspended link; the retried op runs once it has passed.
        self._held: dict[str, float] = {}
        plan._track(self)

    # -- plumbing ------------------------------------------------------
    def __getattr__(self, name):
        return getattr(self._sock, name)

    def _decide(self, op: str, size: int):
        """The action to apply to this operation now (``delay`` is served
        here and never returned)."""
        deadline = self._held.pop(op, None)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None  # the held-back operation itself: let it run
            self._hold(op, remaining)
        action = self._plan._decide(self.seam, self.context, op, size)
        if action is not None and action[0] == "delay":
            self._hold(op, action[1])
            return None
        return action

    def _hold(self, op: str, seconds: float) -> None:
        if not suspend_link(self._sock, seconds):
            time.sleep(seconds)
            return
        self._held[op] = time.monotonic() + seconds
        raise BlockingIOError("chaos: operation delayed by plan")

    def _kill(self) -> None:
        import socket as _socket

        # shutdown() wakes any thread blocked reading this socket;
        # close() alone would leave it stuck until its own timeout.
        try:
            self._sock.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        raise ConnectionResetError("chaos: connection killed by plan")

    @staticmethod
    def _corrupted_copy(data, rng, flips: int) -> bytes:
        out = bytearray(data)
        for _ in range(max(1, flips)):
            index = rng.randrange(len(out))
            out[index] ^= 1 + rng.randrange(255)
        return bytes(out)

    # -- send path -----------------------------------------------------
    def _apply_send(self, data, action):
        """Returns (data_to_send, pretend_sent) -- ``None`` data means the
        caller should report success without touching the wire."""
        kind = action[0]
        if kind == "drop":
            return None, len(data)
        if kind == "corrupt":
            if len(data):
                return self._corrupted_copy(data, action[1], action[2]), None
            return data, None
        if kind == "truncate":
            prefix = bytes(data)[: max(1, len(data) // 2)]
            try:
                self._sock.sendall(prefix)
            except OSError:
                pass
            self._kill()
        if kind == "kill":
            self._kill()
        return data, None

    def send(self, data, *args):
        action = self._decide("send", len(data))
        if action is not None:
            data, pretend = self._apply_send(data, action)
            if data is None:
                return pretend
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        action = self._decide("send", len(data))
        if action is not None:
            data, _pretend = self._apply_send(data, action)
            if data is None:
                return None
        return self._sock.sendall(data, *args)

    def sendmsg(self, buffers, *args):
        flat = b"".join(bytes(b) for b in buffers)
        action = self._decide("send", len(flat))
        if action is not None:
            flat, pretend = self._apply_send(flat, action)
            if flat is None:
                return pretend
            return self._sock.sendall(flat) or len(flat)
        return self._sock.sendmsg(buffers, *args)

    # -- receive path --------------------------------------------------
    def recv(self, bufsize, *args):
        action = self._decide("recv", bufsize)
        if action is not None:
            kind = action[0]
            if kind == "kill":
                self._kill()
            elif kind == "corrupt":
                data = self._sock.recv(bufsize, *args)
                if data:
                    return self._corrupted_copy(data, action[1], action[2])
                return data
        return self._sock.recv(bufsize, *args)

    def recv_into(self, buffer, nbytes=0, *args):
        size = nbytes or len(buffer)
        action = self._decide("recv", size)
        corrupt = None
        if action is not None:
            kind = action[0]
            if kind == "kill":
                self._kill()
            elif kind == "corrupt":
                corrupt = action
        got = self._sock.recv_into(buffer, nbytes, *args)
        if corrupt is not None and got:
            _kind, rng, flips = corrupt
            view = memoryview(buffer)
            for _ in range(max(1, flips)):
                index = rng.randrange(got)
                view[index] ^= 1 + rng.randrange(255)
        return got

    def close(self):
        self._plan._untrack(self)
        return self._sock.close()
