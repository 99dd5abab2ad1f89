"""The reactor core: one event loop under every transport.

Every connection in the process -- TCPROS links, SHM doorbells, TZC
links, bridge sessions, RouteD mux channels -- is scheduled here, on the
C10k shape (HPRM's broker, rosbridge's tornado loop), so thread count is
independent of connection count and at fan-out the sockets, not the
scheduler, are the bottleneck.  It is the only I/O model:

- one **reactor thread** running a ``selectors`` loop over every
  registered connection, timers included;
- a small **worker pool** (:data:`WORKER_COUNT` threads) running user
  callbacks, each connection's events serialized through its own
  :class:`SerialQueue` so per-link message order is preserved;
- transient **blocking spawns** for connect/handshake phases, which may
  legitimately block for seconds; they register the socket with the
  reactor and exit, so steady-state thread count is independent of
  connection count (the 512-connection idle witness in
  ``tests/test_reactor_parity.py``).

The scheduling contract is the unified **Link protocol** -- the one
interface the five transports (TCPROS, SHMROS doorbell, TZC, RouteD
mux, bridge/ws sessions) register against:

``fileno()``
    the selectable descriptor;
``on_readable()`` / ``on_writable()``
    event entry points, called on the reactor thread;
``stats()``
    a point-in-time counter dict (``transport``, byte/message counters,
    ``queue_depth`` where applicable);
``link_state``
    ``healthy`` / ``degraded`` / ``reconnecting`` / ``dead``;
``close()``
    idempotent, exception-free teardown.

Retry, keepalive, idle-timeout and planner plumbing all route through
this seam (reactor timers + the protocol methods).  Each wire format has
one incremental decoder fed by :class:`StreamLink` (``FrameDecoder``
here, ``DoorbellDecoder``, ``SplitDecoder``, ``WsDecoder`` and
``MuxDecoder`` beside their encoders) and one iovec-list encoder whose
output a link queues with :meth:`StreamLink.write`.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Callable, Optional

_LEN = struct.Struct("<I")
_TRACE = struct.Struct("<QQ")

#: Worker threads running user callbacks.  1 reactor + WORKER_COUNT
#: workers = 4 threads total for any number of idle connections.
WORKER_COUNT = 3

#: Max iovecs per ``sendmsg`` (conservative vs IOV_MAX=1024 defaults).
_MAX_IOV = 64

#: Per-tick read bound per link: up to this many ``recv_into`` calls
#: before yielding to other links (fairness under a firehose peer).
_READS_PER_TICK = 16

_RECV_CHUNK = 65536

#: Liveness sweep period: a socket closed *behind* the reactor (chaos
#: sever, crash paths closing raw fds) vanishes from epoll without an
#: event, so a blocked-recv EOF never arrives.  The sweep spots the
#: orphaned registration (``fileno()`` no longer matches) and fails the
#: link promptly.
_REAP_INTERVAL = 0.2


class Link:
    """The unified link protocol (see module docstring).

    Concrete links subclass this or simply duck-type it; the reactor
    only ever calls the six protocol members.
    """

    link_state = "healthy"

    def fileno(self) -> int:  # pragma: no cover - protocol stub
        raise NotImplementedError

    def on_readable(self) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError

    def on_writable(self) -> None:
        """Only called when the link asked for write interest."""

    def stats(self) -> dict:
        return {}

    def close(self) -> None:  # pragma: no cover - protocol stub
        raise NotImplementedError


class Timer:
    """A cancellable one-shot reactor timer (lazy-deleted from the heap)."""

    __slots__ = ("deadline", "fn", "cancelled")

    def __init__(self, deadline: float, fn: Callable[[], None]) -> None:
        self.deadline = deadline
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SerialQueue:
    """Ordered execution on the worker pool.

    Tasks pushed here run one at a time, in push order, on whichever
    worker picks the queue up -- per-link message order without a
    per-link thread.  Exceptions are routed to ``on_error`` (so a bad
    user callback cannot kill a worker)."""

    __slots__ = ("_reactor", "_tasks", "_lock", "_running", "on_error")

    def __init__(self, reactor: "Reactor",
                 on_error: Optional[Callable] = None) -> None:
        self._reactor = reactor
        self._tasks: deque = deque()
        self._lock = threading.Lock()
        self._running = False
        self.on_error = on_error

    def push(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._tasks.append(fn)
            if self._running:
                return
            self._running = True
        self._reactor.submit(self._drain)

    def _drain(self) -> None:
        while True:
            with self._lock:
                if not self._tasks:
                    self._running = False
                    return
                fn = self._tasks.popleft()
            try:
                fn()
            except Exception as exc:
                handler = self.on_error
                if handler is not None:
                    try:
                        handler(exc)
                    except Exception:
                        pass


class Reactor:
    """One selector loop + worker pool scheduling Link-protocol objects."""

    def __init__(self, workers: int = WORKER_COUNT) -> None:
        self._selector = selectors.DefaultSelector()
        self._pending: deque = deque()
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._registered: dict[int, Link] = {}
        rwake, wwake = os.pipe()
        os.set_blocking(rwake, False)
        os.set_blocking(wwake, False)
        self._rwake, self._wwake = rwake, wwake
        self._selector.register(rwake, selectors.EVENT_READ, None)
        self._work: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"reactor-worker-{index}")
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="reactor"
        )
        self._thread.start()
        self.call_later(_REAP_INTERVAL, self._reap_tick)

    # ------------------------------------------------------------------
    # Scheduling primitives (all thread-safe)
    # ------------------------------------------------------------------
    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the reactor thread at the next tick."""
        with self._lock:
            self._pending.append(fn)
        self._wake()

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` on the reactor thread after ``delay`` seconds."""
        timer = Timer(time.monotonic() + delay, fn)
        with self._lock:
            heapq.heappush(
                self._timers, (timer.deadline, next(self._timer_seq), timer)
            )
        self._wake()
        return timer

    def submit(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the worker pool (unordered)."""
        self._work.put(fn)

    def serial_queue(self, on_error: Optional[Callable] = None) -> SerialQueue:
        return SerialQueue(self, on_error)

    def spawn_blocking(self, fn: Callable[[], None], name: str) -> None:
        """Run a legitimately-blocking phase (connect, handshake) on a
        transient daemon thread.  Steady-state cost: zero threads."""
        threading.Thread(target=fn, daemon=True, name=name).start()

    def in_loop(self) -> bool:
        return threading.current_thread() is self._thread

    # ------------------------------------------------------------------
    # Link registration (runs on the loop thread; call from anywhere)
    # ------------------------------------------------------------------
    def register(self, link: Link, write: bool = False) -> None:
        self.call_soon(lambda: self._register(link, write))

    def _register(self, link: Link, write: bool) -> None:
        try:
            fd = link.fileno()
        except (OSError, ValueError):
            return
        if fd < 0:
            return
        stale = self._registered.get(fd)
        if stale is not None:
            if stale is link:
                return
            # Two live sockets cannot share an fd, so the previous owner
            # was closed behind our back (chaos crash paths close raw
            # sockets) and the kernel recycled the number.  Evict it.
            self._unregister(stale)
        events = selectors.EVENT_READ
        # A write queued between the register() call and this tick set
        # the link's want-write flag while want_write() was still a
        # no-op (no fd yet); honor the current desire, not the snapshot.
        if write or getattr(link, "_want_write", False):
            events |= selectors.EVENT_WRITE
        try:
            self._selector.register(fd, events, link)
        except KeyError:
            # Selector bookkeeping also held the recycled fd.
            try:
                self._selector.unregister(fd)
                self._selector.register(fd, events, link)
            except (KeyError, ValueError, OSError):
                return
        except (ValueError, OSError):
            return
        self._registered[fd] = link
        link._reactor_fd = fd
        link._reactor_events = events

    def want_write(self, link: Link, flag: bool) -> None:
        if self.in_loop():
            self._want_write(link, flag)
        else:
            self.call_soon(lambda: self._want_write(link, flag))

    def _want_write(self, link: Link, flag: bool) -> None:
        fd = getattr(link, "_reactor_fd", None)
        if fd is None or self._registered.get(fd) is not link:
            return
        events = selectors.EVENT_READ
        if flag:
            events |= selectors.EVENT_WRITE
        if events == link._reactor_events:
            return
        try:
            self._selector.modify(fd, events, link)
            link._reactor_events = events
        except (KeyError, ValueError, OSError):
            pass

    def unregister(self, link: Link) -> None:
        if self.in_loop():
            self._unregister(link)
        else:
            self.call_soon(lambda: self._unregister(link))

    def _unregister(self, link: Link) -> None:
        fd = getattr(link, "_reactor_fd", None)
        if fd is None or self._registered.get(fd) is not link:
            return
        del self._registered[fd]
        link._reactor_fd = None
        try:
            self._selector.unregister(fd)
        except (KeyError, ValueError, OSError):
            pass

    def link_for(self, fd: int) -> Optional[Link]:
        """The link registered on ``fd``, if any (loop thread only)."""
        return self._registered.get(fd)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            os.write(self._wwake, b"\x00")
        except (BlockingIOError, OSError):
            pass

    def _loop(self) -> None:
        while not self._closed:
            while True:
                with self._lock:
                    if not self._pending:
                        break
                    fn = self._pending.popleft()
                try:
                    fn()
                except Exception:
                    pass
            timeout = None
            now = time.monotonic()
            due: list[Timer] = []
            with self._lock:
                while self._timers:
                    deadline, _seq, timer = self._timers[0]
                    if timer.cancelled:
                        heapq.heappop(self._timers)
                        continue
                    if deadline <= now:
                        heapq.heappop(self._timers)
                        due.append(timer)
                        continue
                    timeout = deadline - now
                    break
                if self._pending:
                    timeout = 0
            for timer in due:
                try:
                    timer.fn()
                except Exception:
                    pass
            try:
                events = self._selector.select(timeout)
            except OSError:
                continue
            for key, mask in events:
                if key.data is None:
                    try:
                        os.read(self._rwake, 4096)
                    except (BlockingIOError, OSError):
                        pass
                    continue
                link: Link = key.data
                try:
                    if mask & selectors.EVENT_READ:
                        link.on_readable()
                    if mask & selectors.EVENT_WRITE and \
                            getattr(link, "_reactor_fd", None) is not None:
                        link.on_writable()
                except Exception as exc:
                    self._fail_link(link, exc)

    def _reap_tick(self) -> None:
        """Fail links whose fd was closed (or recycled) under us."""
        dead = []
        for fd, link in self._registered.items():
            try:
                alive = link.fileno() == fd
            except Exception:
                alive = False
            if not alive:
                dead.append(link)
        for link in dead:
            self._fail_link(
                link,
                ConnectionResetError("socket closed under the reactor"),
            )
        if not self._closed:
            self.call_later(_REAP_INTERVAL, self._reap_tick)

    def _fail_link(self, link: Link, exc: Exception) -> None:
        self._unregister(link)
        handler = getattr(link, "on_error", None)
        try:
            if handler is not None:
                handler(exc)
            else:
                link.close()
        except Exception:
            pass

    def _worker(self) -> None:
        while True:
            fn = self._work.get()
            try:
                fn()
            except Exception:
                pass

    def thread_count(self) -> int:
        """Threads the reactor core owns (the idle-cost witness)."""
        return 1 + len(self._workers)


_global: Optional[Reactor] = None
_global_lock = threading.Lock()


def global_reactor() -> Reactor:
    """The process-wide reactor, started on first use."""
    global _global
    if _global is None:
        with _global_lock:
            if _global is None:
                _global = Reactor()
    return _global


# ----------------------------------------------------------------------
# Incremental decoders
# ----------------------------------------------------------------------
class FrameDecoder:
    """Incremental u32le length framing (TCPROS / bridge frames).

    ``feed(chunk)`` returns completed events:
    ``("frame", payload_bytearray, trace_id, stamp_ns)``.  In-band
    keepalive words are skipped (the caller's idle timer resets on any
    received bytes).  Traced streams carry the 16-byte observability
    prefix inside the frame.
    """

    __slots__ = ("traced", "max_frame", "_head", "_payload", "_filled",
                 "_trace_id", "_stamp_ns")

    def __init__(self, traced: bool = False,
                 max_frame: int = 64 * 1024 * 1024) -> None:
        self.traced = traced
        self.max_frame = max_frame
        self._head = bytearray()
        self._payload: Optional[bytearray] = None
        self._filled = 0
        self._trace_id = 0
        self._stamp_ns = 0

    def feed(self, data) -> list:
        from repro.ros.exceptions import ConnectionHandshakeError

        events: list = []
        view = memoryview(data)
        pos = 0
        end = len(view)
        head_need = 20 if self.traced else 4
        while pos < end:
            if self._payload is None:
                take = min(head_need - len(self._head), end - pos)
                self._head += view[pos : pos + take]
                pos += take
                if len(self._head) < 4:
                    break
                (length,) = _LEN.unpack_from(self._head, 0)
                if length == 0xFFFFFFFF:  # keepalive word
                    del self._head[:4]
                    continue
                if length > self.max_frame:
                    raise ConnectionHandshakeError(
                        f"frame length {length} exceeds limit"
                    )
                if self.traced:
                    if length < _TRACE.size:
                        raise ConnectionHandshakeError(
                            f"traced frame of {length} bytes cannot carry "
                            f"its prefix"
                        )
                    if len(self._head) < head_need:
                        continue
                    self._trace_id, self._stamp_ns = _TRACE.unpack_from(
                        self._head, 4
                    )
                    length -= _TRACE.size
                else:
                    self._trace_id = self._stamp_ns = 0
                del self._head[:]
                self._payload = bytearray(length)
                self._filled = 0
            need = len(self._payload) - self._filled
            take = min(need, end - pos)
            if take:
                self._payload[self._filled : self._filled + take] = \
                    view[pos : pos + take]
                self._filled += take
                pos += take
            if self._filled == len(self._payload):
                events.append(
                    ("frame", self._payload, self._trace_id, self._stamp_ns)
                )
                self._payload = None
        return events


class RawDecoder:
    """Passthrough: every received chunk is one ``("data", bytes)`` event
    (the RouteD channel pump's framing-free inner byte stream)."""

    __slots__ = ()

    def feed(self, data) -> list:
        return [("data", bytes(data))]


# ----------------------------------------------------------------------
# StreamLink: the reusable socket-on-the-reactor building block
# ----------------------------------------------------------------------
class StreamLink(Link):
    """One non-blocking socket scheduled by the reactor.

    Reads pull into a fixed buffer and feed an incremental ``decoder``;
    completed events go to ``on_events(events)`` **on the reactor
    thread** (wrap with a :class:`SerialQueue` push for worker-side
    callbacks).  Writes queue ``(parts, on_flushed)`` through a
    thread-safe buffer drained by ``on_writable``; ``on_flushed`` fires
    only after the message's last byte reached the kernel, which is
    what keeps SFM payload release (``_Outgoing.done``) correct under
    backpressure.  ``on_error(exc)`` fires once on EOF/reset/idle
    timeout; ``close()`` is idempotent and exception-free.
    """

    def __init__(self, sock, decoder, on_events,
                 on_error: Optional[Callable] = None,
                 reactor: Optional[Reactor] = None,
                 label: str = "", idle_timeout: float = 0.0) -> None:
        self.sock = sock
        self.decoder = decoder
        self.on_events_cb = on_events
        self.on_error_cb = on_error
        self.reactor = reactor or global_reactor()
        self.label = label
        self.link_state = "healthy"
        self._recv_buf = bytearray(_RECV_CHUNK)
        self._recv_view = memoryview(self._recv_buf)
        self._wlock = threading.Lock()
        self._wparts: deque = deque()
        self._wcallbacks: deque = deque()  # (end_offset, fn)
        self._wqueued = 0
        self._wflushed = 0
        self._want_write = False
        self._closed = False
        self._errored = False
        self._last_rx = time.monotonic()
        self._idle_timeout = idle_timeout
        self._idle_timer: Optional[Timer] = None
        self.rx_bytes = 0
        self.tx_bytes = 0
        try:
            sock.setblocking(False)
        except OSError:
            pass

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self.reactor.register(self, write=self._pending_write())
        if self._idle_timeout:
            self._arm_idle_timer()

    def _arm_idle_timer(self) -> None:
        interval = max(self._idle_timeout / 2.0, 0.05)
        self._idle_timer = self.reactor.call_later(interval, self._idle_tick)

    def _idle_tick(self) -> None:
        if self._closed:
            return
        if time.monotonic() - self._last_rx > self._idle_timeout:
            self.on_error(socket.timeout(
                f"link idle past {self._idle_timeout}s"
            ))
            return
        self._arm_idle_timer()

    def fileno(self) -> int:
        try:
            return self.sock.fileno()
        except (OSError, ValueError):
            return -1

    def write_backlog(self) -> int:
        """Bytes queued by :meth:`write` that have not reached the
        kernel yet -- what a sender compares against its watermark
        before queueing more."""
        with self._wlock:
            return self._wqueued - self._wflushed

    def stats(self) -> dict:
        return {
            "label": self.label,
            "rx_bytes": self.rx_bytes,
            "tx_bytes": self.tx_bytes,
            "write_backlog": self.write_backlog(),
            "link_state": self.link_state,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.link_state = "dead"
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self.reactor.unregister(self)
        with self._wlock:
            self._wparts.clear()
            callbacks = [fn for _end, fn in self._wcallbacks]
            self._wcallbacks.clear()
        for fn in callbacks:
            try:
                fn()
            except Exception:
                pass
        try:
            self.sock.close()
        except Exception:
            pass

    def on_error(self, exc: Exception) -> None:
        if self._errored or self._closed:
            self.close()
            return
        self._errored = True
        self.link_state = "dead"
        handler = self.on_error_cb
        if handler is not None:
            try:
                handler(exc)
                return
            except Exception:
                pass
        self.close()

    # -- reading --------------------------------------------------------
    def on_readable(self) -> None:
        for _ in range(_READS_PER_TICK):
            if self._closed:
                return
            try:
                count = self.sock.recv_into(self._recv_buf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.on_error(exc)
                return
            if count == 0:
                self.on_error(ConnectionError("peer closed the connection"))
                return
            self._last_rx = time.monotonic()
            self.rx_bytes += count
            try:
                events = self.decoder.feed(self._recv_view[:count])
            except Exception as exc:
                self.on_error(exc)
                return
            if events:
                try:
                    self.on_events_cb(events)
                except Exception as exc:
                    self.on_error(exc)
                    return
            if count < _RECV_CHUNK:
                return

    # -- writing --------------------------------------------------------
    def write(self, parts: list, on_flushed: Optional[Callable] = None) -> None:
        """Queue ``parts`` (bytes-like) for transmission.  Thread-safe."""
        total = 0
        with self._wlock:
            if self._closed:
                if on_flushed is not None:
                    parts = ()
                else:
                    return
            for part in parts:
                if isinstance(part, memoryview) and part.itemsize != 1:
                    part = part.cast("B")
                size = len(part)
                if not size:
                    continue
                self._wparts.append(
                    part if isinstance(part, (bytes, memoryview))
                    else memoryview(part)
                )
                total += size
            self._wqueued += total
            if on_flushed is not None:
                self._wcallbacks.append((self._wqueued, on_flushed))
            closed = self._closed
        if closed:
            # Closed while queuing: fire the release hook, drop the bytes.
            if on_flushed is not None:
                try:
                    on_flushed()
                except Exception:
                    pass
            return
        if not self._want_write:
            self._want_write = True
            self.reactor.want_write(self, True)

    def send_if_idle(self, data: bytes) -> bool:
        """One non-blocking ``send`` of ``data``, issued only while
        nothing queued by :meth:`write` is unflushed -- so the bytes land
        on a boundary between writes, never inside a partially flushed
        one -- and skipped otherwise.  For a last word ahead of
        :meth:`close`, which discards whatever is still queued.  Returns
        whether the kernel took it.  Thread-safe."""
        with self._wlock:
            if self._closed or self._wqueued != self._wflushed:
                return False
            try:
                sent = self.sock.send(data)
            except (OSError, ValueError):
                return False
            self.tx_bytes += sent
            return sent == len(data)

    def _pending_write(self) -> bool:
        with self._wlock:
            return bool(self._wparts or self._wcallbacks)

    def on_writable(self) -> None:
        fired: list = []
        with self._wlock:
            while self._wparts:
                batch = list(
                    itertools.islice(iter(self._wparts), _MAX_IOV)
                )
                try:
                    if len(batch) == 1 or not hasattr(self.sock, "sendmsg"):
                        sent = self.sock.send(batch[0])
                    else:
                        sent = self.sock.sendmsg(batch)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    self._wparts.clear()
                    fired = [fn for _end, fn in self._wcallbacks]
                    self._wcallbacks.clear()
                    self._fail_after_unlock = exc
                    break
                self._wflushed += sent
                self.tx_bytes += sent
                # Drop fully-sent parts, slice the partial one.
                while sent and self._wparts:
                    head = self._wparts[0]
                    if sent >= len(head):
                        sent -= len(head)
                        self._wparts.popleft()
                    else:
                        view = head if isinstance(head, memoryview) \
                            else memoryview(head)
                        self._wparts[0] = view[sent:]
                        sent = 0
            while self._wcallbacks and \
                    self._wcallbacks[0][0] <= self._wflushed:
                fired.append(self._wcallbacks.popleft()[1])
            drained = not self._wparts
        for fn in fired:
            try:
                fn()
            except Exception:
                pass
        exc = getattr(self, "_fail_after_unlock", None)
        if exc is not None:
            self._fail_after_unlock = None
            self.on_error(exc)
            return
        if drained and self._want_write:
            self._want_write = False
            self.reactor.want_write(self, False)

    _fail_after_unlock: Optional[Exception] = None


class AcceptorLink(Link):
    """A listening socket on the reactor: ``on_readable`` accepts every
    pending connection and hands each to ``on_accept(sock, addr)`` (which
    must not block -- spawn_blocking any handshake)."""

    def __init__(self, listener, on_accept,
                 reactor: Optional[Reactor] = None, label: str = "") -> None:
        self.listener = listener
        self.on_accept = on_accept
        self.reactor = reactor or global_reactor()
        self.label = label
        self.link_state = "healthy"
        self._closed = False
        try:
            listener.setblocking(False)
        except OSError:
            pass

    @classmethod
    def listen(cls, host: str, port: int, on_accept, *, backlog: int,
               label: str) -> "AcceptorLink":
        """Bind, listen and start accepting on the global reactor -- the
        one listener constructor.  The bound address is ``.host`` /
        ``.port`` (``port=0`` picks a free one) and ends the label."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(backlog)
        except OSError:
            listener.close()
            raise
        bound = listener.getsockname()
        link = cls(listener, on_accept, label=f"{label}:{bound[1]}")
        link.host, link.port = bound
        link.start()
        return link

    def start(self) -> None:
        self.reactor.register(self)

    def fileno(self) -> int:
        try:
            return self.listener.fileno()
        except (OSError, ValueError):
            return -1

    def on_readable(self) -> None:
        while not self._closed:
            try:
                sock, addr = self.listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.close()
                return
            try:
                self.on_accept(sock, addr)
            except Exception:
                try:
                    sock.close()
                except OSError:
                    pass

    def stats(self) -> dict:
        return {"label": self.label, "listening": not self._closed}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.link_state = "dead"
        self.reactor.unregister(self)
        try:
            self.listener.close()
        except Exception:
            pass
