"""``tools top``: a live terminal view of the graph.

One helper node taps every topic the master knows about with *raw*
subscriptions (payload bytes, no decoding -- the gateway's
forward-without-deserializing trick), counts messages and bytes, and
renders a refreshing table of per-topic rate and bandwidth plus the SFM
manager state.

Wire-format sniffing: a raw subscription still negotiates the wire
format from its class, so tapping an SFM topic with the plain class is
rejected in the handshake ("wire format mismatch").  The monitor watches
for that link error and re-subscribes with the ``@sfm`` flavour of the
same type -- no configuration needed.

Nodes running a :class:`~repro.obs.statistics.StatisticsPublisher` are
also surfaced: the monitor parses ``/statistics`` JSON and shows each
reporting node's SFM live-record count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

_FORMAT_MISMATCH = "wire format mismatch"
STATISTICS_TOPIC = "/statistics"


class _Tap:
    """One raw subscription counting a topic's traffic."""

    def __init__(self, monitor: "TopMonitor", topic: str,
                 type_name: str) -> None:
        self.monitor = monitor
        self.topic = topic
        self.type_name = type_name
        self.flavour = ""  # "" = plain, "@sfm" after a format flip
        self.count = 0
        self.bytes = 0
        self.error: Optional[str] = None
        #: Previous sample's (monotonic, count, bytes) for rate deltas.
        self._mark = (time.monotonic(), 0, 0)
        self.subscriber = None
        self._subscribe()

    def _subscribe(self) -> None:
        from repro.bridge.server import resolve_msg_class

        try:
            msg_class = resolve_msg_class(
                self.type_name + self.flavour, self.monitor.registry
            )
        except Exception as exc:
            self.error = str(exc)
            return
        self.subscriber = self.monitor.node.subscribe(
            self.topic, msg_class, self._on_raw, raw=True
        )

    def _on_raw(self, payload: bytes) -> None:
        self.count += 1
        self.bytes += len(payload)

    def check_format(self) -> None:
        """Flip to the @sfm class when the plain-format handshake was
        rejected (the publisher told us its wire format is ``sfm``)."""
        if self.subscriber is None or self.flavour:
            return
        errors = dict(self.subscriber.link_errors)
        if any(_FORMAT_MISMATCH in str(err) for err in errors.values()):
            self.subscriber.unsubscribe()
            self.flavour = "@sfm"
            self._subscribe()

    def rates(self) -> tuple[float, float]:
        """(messages/s, bytes/s) since the previous call."""
        now = time.monotonic()
        last_t, last_count, last_bytes = self._mark
        self._mark = (now, self.count, self.bytes)
        elapsed = now - last_t
        if elapsed <= 0:
            return 0.0, 0.0
        return (
            (self.count - last_count) / elapsed,
            (self.bytes - last_bytes) / elapsed,
        )

    def close(self) -> None:
        if self.subscriber is not None:
            self.subscriber.unsubscribe()
            self.subscriber = None


def _human_bytes(rate: float) -> str:
    for unit in ("B/s", "KiB/s", "MiB/s", "GiB/s"):
        if rate < 1024.0 or unit == "GiB/s":
            return f"{rate:.1f} {unit}"
        rate /= 1024.0
    return f"{rate:.1f} GiB/s"  # pragma: no cover - unreachable


def render_bridge_clients(snapshot: dict) -> str:
    """The per-client gateway table (shared by ``tools top --bridge``
    and ``tools bridge --stats-interval``)."""
    lines = [
        f"{'CLIENT':<24} {'TRANSPORT':<10} {'CODEC':<6} {'SUBS':>5} "
        f"{'QDEPTH':>7} {'DROPS':>7} {'SHED':>6}"
    ]
    for sess in snapshot.get("sessions", ()):
        lines.append(
            f"{sess['peer']:<24} {sess['transport']:<10} "
            f"{sess['codec']:<6} {sess['subscriptions']:>5} "
            f"{sess['queue_depth']:>7} {sess['dropped']:>7} "
            f"{sess['shed']:>6}"
        )
    if not snapshot.get("sessions"):
        lines.append("(no bridge clients)")
    summary = (
        f"bridge: {snapshot.get('clients', 0)} client(s) "
        + " ".join(
            f"{transport}={count}"
            for transport, count in sorted(
                snapshot.get("clients_by_transport", {}).items()
            )
        )
        + f"  evictions={snapshot.get('evictions', 0)}"
    )
    ws = snapshot.get("ws")
    if ws:
        limited = sum(ws["rate_limited"].values())
        summary += (
            f"  ws[handshakes={ws['handshakes']} "
            f"auth_failures={ws['auth_failures']} "
            f"rate_limited={limited}]"
        )
    lines.append(summary)
    return "\n".join(lines)


class TopMonitor:
    """The engine behind ``tools top`` (separated from the CLI so tests
    can drive ``sample()``/``render()`` without a terminal)."""

    def __init__(self, master_uri: str, node_name: Optional[str] = None,
                 registry=None, bridge: Optional[str] = None) -> None:
        from repro.msg.registry import default_registry
        from repro.ros.node import NodeHandle

        self.master_uri = master_uri
        self.registry = registry or default_registry
        self.node = NodeHandle(
            node_name or f"obs_top_{os.getpid()}", master_uri
        )
        self._taps: dict[str, _Tap] = {}
        #: Latest parsed /statistics document per reporting node.
        self.node_reports: dict[str, dict] = {}
        self._stats_sub = None
        #: Optional "host:port" of a gateway whose per-client counters
        #: are appended to every sample (via the ``stats`` wire op).
        self._bridge_addr = bridge
        self._bridge_client = None

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def refresh_topics(self) -> None:
        """Tap any topic the master knows that we are not watching yet,
        and re-check wire formats on existing taps."""
        from repro.ros.introspection import list_topics

        for topic, type_name in list_topics(self.master_uri):
            if topic == STATISTICS_TOPIC:
                self._ensure_statistics_tap()
                continue
            if topic not in self._taps and type_name:
                self._taps[topic] = _Tap(self, topic, type_name)
        for tap in self._taps.values():
            tap.check_format()

    def _ensure_statistics_tap(self) -> None:
        if self._stats_sub is not None:
            return
        from repro.msg.library import String

        def on_stats(msg) -> None:
            try:
                doc = json.loads(msg.data)
                self.node_reports[doc.get("node", "?")] = doc
            except (ValueError, AttributeError):
                pass

        self._stats_sub = self.node.subscribe(
            STATISTICS_TOPIC, String, on_stats
        )

    # ------------------------------------------------------------------
    # Sampling / rendering
    # ------------------------------------------------------------------
    def sample(self) -> dict:
        """One table's worth of data (rates are deltas since the last
        sample)."""
        from repro.sfm.manager import global_message_manager

        rows = []
        for topic in sorted(self._taps):
            tap = self._taps[topic]
            rate, bandwidth = tap.rates()
            transports = (
                tap.subscriber.stats()["transports"]
                if tap.subscriber is not None else {}
            )
            transport = "/".join(
                name if count == 1 else f"{name}x{count}"
                for name, count in sorted(transports.items())
            ) or "-"
            rows.append({
                "topic": topic,
                "type": tap.type_name + tap.flavour,
                "messages": tap.count,
                "bytes": tap.bytes,
                "rate": rate,
                "bandwidth": bandwidth,
                "transport": transport,
                "state": (
                    tap.subscriber.link_state
                    if tap.subscriber is not None else "error"
                ),
            })
        snap = global_message_manager.snapshot()
        return {
            "rows": rows,
            "sfm": {
                "live_records": snap["live_records"],
                "live_bytes": snap["live_bytes"],
                "pool_buffers": snap["pool_buffers"],
            },
            "nodes": dict(self.node_reports),
            "bridge": self._bridge_stats(),
        }

    def _bridge_stats(self) -> Optional[dict]:
        """The attached gateway's stats snapshot (None when no --bridge
        was given or the gateway is unreachable)."""
        if self._bridge_addr is None:
            return None
        from repro.bridge.client import BridgeClient, BridgeError

        if self._bridge_client is None:
            host, _, port = self._bridge_addr.rpartition(":")
            try:
                self._bridge_client = BridgeClient(
                    host or "127.0.0.1", int(port), timeout=3.0
                )
            except (OSError, ValueError, BridgeError) as exc:
                return {"error": f"bridge {self._bridge_addr}: {exc}"}
        try:
            return self._bridge_client.stats()
        except (OSError, BridgeError) as exc:
            self._bridge_client.close()
            self._bridge_client = None
            return {"error": f"bridge {self._bridge_addr}: {exc}"}

    def render(self, sample: dict) -> str:
        lines = [
            f"{'TOPIC':<32} {'TYPE':<28} {'MSGS':>8} "
            f"{'RATE':>10} {'BANDWIDTH':>12} {'TRANSPORT':<12} "
            f"{'STATE':<12}"
        ]
        for row in sample["rows"]:
            lines.append(
                f"{row['topic']:<32} {row['type']:<28} "
                f"{row['messages']:>8} {row['rate']:>8.1f}Hz "
                f"{_human_bytes(row['bandwidth']):>12} "
                f"{row.get('transport', '-'):<12} "
                f"{row.get('state', 'healthy'):<12}"
            )
        if not sample["rows"]:
            lines.append("(no topics)")
        sfm = sample["sfm"]
        lines.append(
            f"sfm: {sfm['live_records']} live records, "
            f"{sfm['live_bytes']} bytes, "
            f"{sfm['pool_buffers']} pooled buffers"
        )
        for name, doc in sorted(sample["nodes"].items()):
            remote = doc.get("sfm", {})
            lines.append(
                f"node {name}: {remote.get('live_records', '?')} live "
                f"records (reported)"
            )
        bridge = sample.get("bridge")
        if bridge is not None:
            lines.append("")
            if "error" in bridge:
                lines.append(bridge["error"])
            else:
                lines.append(render_bridge_clients(bridge))
        return "\n".join(lines)

    def run(self, iterations: int = 0, interval: float = 1.0,
            stream=None) -> None:
        """The CLI loop: refresh, sample, render.  ``iterations=0`` runs
        until interrupted; tests pass a small count and a StringIO."""
        stream = stream or sys.stdout
        clear = stream.isatty() if hasattr(stream, "isatty") else False
        remaining = iterations
        try:
            while True:
                self.refresh_topics()
                time.sleep(interval)
                if clear:
                    stream.write("\x1b[2J\x1b[H")
                stream.write(self.render(self.sample()) + "\n")
                stream.flush()
                if iterations:
                    remaining -= 1
                    if remaining <= 0:
                        return
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        for tap in self._taps.values():
            tap.close()
        self._taps.clear()
        if self._stats_sub is not None:
            self._stats_sub.unsubscribe()
            self._stats_sub = None
        if self._bridge_client is not None:
            self._bridge_client.close()
            self._bridge_client = None
        self.node.shutdown()

    def __enter__(self) -> "TopMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
