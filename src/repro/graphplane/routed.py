"""RouteD: one multiplexed connection per host pair.

A fleet of M publishers and N subscribers split across two hosts opens
M*N TCPROS connections between them; every link pays its own handshake,
keepalive and kernel buffers.  RouteD collapses that: each host runs one
daemon, all inter-host TCPROS dials are spliced through a single framed
connection between the two daemons, with a channel id per topic link.

Wire protocol (between two RouteD peers), after the TCP connect::

    frame   := u32le length | u8 type | u32le channel | payload
    HELLO   (chan 0)  payload = sender's daemon name  (once, first frame)
    OPEN    payload = "host:port" the remote daemon should dial locally
    ACCEPT  payload = ""          (the OPEN's dial succeeded)
    REFUSE  payload = error text  (the OPEN's dial failed)
    DATA    payload = raw bytes of the inner TCPROS stream
    CLOSE   payload = ""          (one side of the channel ended)

The inner TCPROS byte stream -- handshake, length-framed messages,
keepalive words, trace prefixes -- passes through *opaque*: retry,
link-state and tracing machinery compose with RouteD unchanged, they
simply run over a socketpair whose far end is pumped through the mux.

Channel ids are split odd/even by dial direction so the two peers can
allocate without coordination.

``install()`` hooks :func:`repro.ros.transport.tcpros.open_connection`;
only dials whose target is in this daemon's route table are spliced
(everything else -- same-host links, the master -- dials direct).
"""

from __future__ import annotations

import socket
import struct
import threading

from repro.graphplane.shard import _ThreadedXMLRPCServer
from repro.obs import instrument as obs_instrument
from repro.ros import reactor as reactor_mod
from repro.ros.transport import tcpros

_HEADER = struct.Struct("<IBI")  # length | type | channel

T_HELLO = 0
T_OPEN = 1
T_ACCEPT = 2
T_REFUSE = 3
T_DATA = 4
T_CLOSE = 5

MAX_FRAME = tcpros.MAX_FRAME


class RouteError(ConnectionError):
    """The remote daemon could not complete an OPEN."""


class MuxDecoder:
    """Incremental mux framing: ``feed(chunk)`` returns
    ``("frame", frame_type, channel, payload_bytes)`` events."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data) -> list:
        self._buffer += data
        events: list = []
        while len(self._buffer) >= _HEADER.size:
            length, frame_type, channel = _HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME:
                raise ConnectionError(f"mux frame too large ({length} bytes)")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            events.append(("frame", frame_type, channel, payload))
        return events


class _MuxLink:
    """One framed connection to a peer daemon, carrying many channels."""

    def __init__(self, routed: "RouteD", sock: socket.socket,
                 dialed: bool) -> None:
        self._routed = routed
        self._lock = threading.Lock()
        self._channels: dict[int, socket.socket] = {}
        self._opens: dict[int, dict] = {}
        # The dialing side allocates odd channel ids, the accepting side
        # even ones: no id collisions without a negotiation round-trip.
        self._next_channel = 1 if dialed else 2
        self.peer_name = ""
        self.closed = threading.Event()
        #: Channel id -> the endpoint's StreamLink.
        self._chlinks: dict = {}
        loop = reactor_mod.global_reactor()
        self._serial = loop.serial_queue(on_error=lambda exc: self.close())
        self._rlink = reactor_mod.StreamLink(
            sock,
            MuxDecoder(),
            on_events=lambda events: self._serial.push(
                lambda: self._handle_frames(events)
            ),
            on_error=lambda exc: self.close(),
            reactor=loop,
            label=f"routed-mux:{routed.name}",
        )

    def start(self) -> None:
        self._rlink.start()

    # -- sending ---------------------------------------------------------
    def send(self, frame_type: int, channel: int, payload: bytes = b"") -> None:
        header = _HEADER.pack(len(payload), frame_type, channel)
        # The stream link's write buffer is thread-safe and ordered, and
        # vectored: a TZC bulk frame pumped through a channel never gets
        # re-staged into one contiguous mux frame.  Send errors surface
        # asynchronously through on_error.
        self._rlink.write([header, payload])
        self._routed._frames.inc()
        self._routed._bytes.inc(len(header) + len(payload))

    # -- opening a channel (local dial spliced to the peer) --------------
    def open_channel(self, target: tuple[str, int],
                     timeout: float) -> socket.socket:
        with self._lock:
            channel = self._next_channel
            self._next_channel += 2
            waiter = {"event": threading.Event(), "error": None}
            self._opens[channel] = waiter
        self.send(T_OPEN, channel, f"{target[0]}:{target[1]}".encode())
        if not waiter["event"].wait(timeout):
            with self._lock:
                self._opens.pop(channel, None)
            raise RouteError(f"routed open of {target} timed out")
        if waiter["error"] is not None:
            raise RouteError(waiter["error"])
        near, far = socket.socketpair()
        self._attach(channel, far)
        return near

    def _attach(self, channel: int, endpoint: socket.socket) -> None:
        with self._lock:
            self._channels[channel] = endpoint
        self._routed._channels_gauge.set(self._routed.channel_count())
        # The endpoint joins the loop: its bytes become DATA frames
        # straight from the reactor thread (per-link read order is the
        # pump order), EOF/reset closes the channel both ways.
        chlink = reactor_mod.StreamLink(
            endpoint,
            reactor_mod.RawDecoder(),
            on_events=lambda events, chan=channel: self._pump_events(
                chan, events
            ),
            on_error=lambda exc, chan=channel: self._close_channel(
                chan, notify_peer=True
            ),
            label=f"routed-chan:{channel}",
        )
        with self._lock:
            self._chlinks[channel] = chlink
        chlink.start()

    def _pump_events(self, channel: int, events: list) -> None:
        for _kind, chunk in events:
            self.send(T_DATA, channel, chunk)

    def _close_channel(self, channel: int, notify_peer: bool) -> None:
        with self._lock:
            endpoint = self._channels.pop(channel, None)
            chlink = self._chlinks.pop(channel, None)
        if chlink is not None:
            chlink.close()
        if endpoint is not None:
            try:
                endpoint.close()
            except OSError:
                pass
            if notify_peer:
                self.send(T_CLOSE, channel)
        self._routed._channels_gauge.set(self._routed.channel_count())

    # -- receiving -------------------------------------------------------
    def _handle_frames(self, events: list) -> None:
        """Decoder events -> frame dispatch (worker pool, serialized per
        mux so frame order is preserved)."""
        for _kind, frame_type, channel, payload in events:
            if self.closed.is_set():
                return
            self._handle_frame(frame_type, channel, payload)

    def _handle_frame(self, frame_type: int, channel: int,
                      payload: bytes) -> None:
        if frame_type == T_HELLO:
            self.peer_name = payload.decode("utf-8", "replace")
        elif frame_type == T_OPEN:
            # The dial blocks up to 5 s: off the worker pool, like
            # every other connect phase.
            reactor_mod.global_reactor().spawn_blocking(
                lambda: self._handle_open(channel, payload),
                name=f"routed-open:{channel}",
            )
        elif frame_type in (T_ACCEPT, T_REFUSE):
            with self._lock:
                waiter = self._opens.pop(channel, None)
            if waiter is not None:
                if frame_type == T_REFUSE:
                    waiter["error"] = payload.decode("utf-8", "replace")
                waiter["event"].set()
        elif frame_type == T_DATA:
            with self._lock:
                chlink = self._chlinks.get(channel)
            if chlink is not None:
                # Buffered, never blocking: one stalled inner consumer
                # must not wedge every other channel on this mux.
                chlink.write([payload])
        elif frame_type == T_CLOSE:
            self._close_channel(channel, notify_peer=False)

    def _handle_open(self, channel: int, payload: bytes) -> None:
        host, _, port = payload.decode("utf-8", "replace").rpartition(":")
        try:
            local = socket.create_connection((host, int(port)), timeout=5.0)
            local.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            self.send(T_REFUSE, channel, str(exc).encode())
            return
        self._attach(channel, local)
        self.send(T_ACCEPT, channel)

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        with self._lock:
            channels = list(self._channels)
            opens = list(self._opens.values())
            self._opens.clear()
        for waiter in opens:
            waiter["error"] = "mux link closed"
            waiter["event"].set()
        for channel in channels:
            self._close_channel(channel, notify_peer=False)
        self._rlink.close()
        self._routed._drop_link(self)

    def channel_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._channels)


class RouteD:
    """The per-host routing daemon.

    * ``listen_addr`` accepts mux connections from peer daemons.
    * ``add_route(target, peer)`` declares that TCPROS dials to
      ``target`` (a ``(host, port)``) must be spliced via the daemon at
      ``peer`` instead of dialed directly.
    * ``install()`` plugs :meth:`dial` into the transport's connect
      seam; ``uninstall()`` removes it.

    A small XML-RPC admin endpoint (``getStatus``) backs
    ``tools graph routes``.
    """

    def __init__(self, name: str = "routed", host: str = "127.0.0.1",
                 port: int = 0, admin: bool = True) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._routes: dict[tuple[str, int], tuple[str, int]] = {}
        self._links: dict[tuple[str, int], _MuxLink] = {}
        self._mux_gauge = obs_instrument.routed_mux_links.labels(routed=name)
        self._channels_gauge = obs_instrument.routed_channels.labels(
            routed=name)
        self._frames = obs_instrument.routed_frames.labels(routed=name)
        self._bytes = obs_instrument.routed_bytes.labels(routed=name)
        self._acceptor = reactor_mod.AcceptorLink.listen(
            host, port, self._on_accept, backlog=16,
            label=f"routed-accept:{name}",
        )
        self.listen_addr = (self._acceptor.host, self._acceptor.port)
        self._installed = False
        self._admin = None
        if admin:
            self._admin = _ThreadedXMLRPCServer(
                (host, 0), logRequests=False, allow_none=True
            )
            self._admin.register_function(self.status, "getStatus")
            threading.Thread(
                target=self._admin.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True, name=f"routed-admin:{name}",
            ).start()
            admin_host, admin_port = self._admin.server_address
            self.admin_uri = f"http://{admin_host}:{admin_port}/"
        else:
            self.admin_uri = ""

    # -- peer mux management ---------------------------------------------
    def _on_accept(self, sock, _addr) -> None:
        """AcceptorLink callback (loop thread): mux setup is all
        non-blocking -- StreamLink registration plus a buffered HELLO."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _MuxLink(self, sock, dialed=False)
        # Accepted links are keyed once HELLO names the peer; until
        # then they live unkeyed (the reactor keeps them alive) -- an
        # accepted mux never originates OPENs here.
        link.start()
        link.send(T_HELLO, 0, self.name.encode())
        with self._lock:
            self._links[("accepted", id(link))] = link
        self._mux_gauge.set(len(self._links))

    def _link_to(self, peer: tuple[str, int]) -> _MuxLink:
        with self._lock:
            link = self._links.get(peer)
        if link is not None and not link.closed.is_set():
            return link
        sock = socket.create_connection(peer, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _MuxLink(self, sock, dialed=True)
        with self._lock:
            current = self._links.get(peer)
            if current is not None and not current.closed.is_set():
                # Lost the dial race; use the winner.
                sock.close()
                return current
            self._links[peer] = link
        link.start()
        link.send(T_HELLO, 0, self.name.encode())
        self._mux_gauge.set(len(self._links))
        return link

    def _drop_link(self, link: _MuxLink) -> None:
        with self._lock:
            for key, value in list(self._links.items()):
                if value is link:
                    del self._links[key]
        self._mux_gauge.set(len(self._links))

    # -- routing ---------------------------------------------------------
    def add_route(self, target: tuple[str, int],
                  peer: tuple[str, int]) -> None:
        """Splice dials to ``target`` through the daemon at ``peer``."""
        with self._lock:
            self._routes[(target[0], int(target[1]))] = (
                peer[0], int(peer[1]))

    def dial(self, host: str, port: int, timeout: float):
        """The transport connect hook: splice routed targets, pass on
        everything else (return None -> direct dial)."""
        with self._lock:
            peer = self._routes.get((host, int(port)))
        if peer is None:
            return None
        link = self._link_to(peer)
        return link.open_channel((host, int(port)), timeout)

    def install(self) -> None:
        tcpros.install_connect_hook(self.dial)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            tcpros.install_connect_hook(None)
            self._installed = False

    # -- introspection / shutdown ----------------------------------------
    def mux_link_count(self) -> int:
        with self._lock:
            return len(self._links)

    def channel_count(self) -> int:
        with self._lock:
            links = list(self._links.values())
        return sum(len(link.channel_ids()) for link in links)

    def status(self) -> dict:
        with self._lock:
            routes = {
                f"{t[0]}:{t[1]}": f"{p[0]}:{p[1]}"
                for t, p in self._routes.items()
            }
            links = list(self._links.items())
        return {
            "name": self.name,
            "listen": f"{self.listen_addr[0]}:{self.listen_addr[1]}",
            "routes": routes,
            "mux_links": [
                {
                    "peer": link.peer_name or str(key),
                    "channels": link.channel_ids(),
                }
                for key, link in links
            ],
        }

    def shutdown(self) -> None:
        self.uninstall()
        self._acceptor.close()
        with self._lock:
            links = list(self._links.values())
        for link in links:
            link.close()
        if self._admin is not None:
            self._admin.shutdown()
            self._admin.server_close()

    def __enter__(self) -> "RouteD":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
