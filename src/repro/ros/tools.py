"""Command-line tools: the rostopic/rosparam/rosbag-style CLI.

Usage::

    python -m repro.ros.tools topic list  --master http://127.0.0.1:PORT/
    python -m repro.ros.tools topic info  --master URI /camera/image
    python -m repro.ros.tools topic hz    --master URI /camera/image TYPE
    python -m repro.ros.tools topic echo  --master URI /camera/image TYPE -n 3
    python -m repro.ros.tools param get|set|list --master URI [KEY [VALUE]]
    python -m repro.ros.tools bag info PATH.bag
    python -m repro.ros.tools bag record /chatter=std_msgs/String \
        --master URI --out out.bag --duration 5
    python -m repro.ros.tools bag play out.bag --master URI --rate 1.0
    python -m repro.ros.tools top --master URI --interval 1.0
    python -m repro.ros.tools check FILE.py [FILE2.py ...]   # ROS-SF Converter
    python -m repro.ros.tools msg show sensor_msgs/Image
    python -m repro.ros.tools sfm stats
    python -m repro.ros.tools bridge --master URI --port 9090 --metrics-port 9091
    python -m repro.ros.tools graph launch --shards 2
    python -m repro.ros.tools graph dump --master SPEC [/name]
    python -m repro.ros.tools graph lag --master SPEC
    python -m repro.ros.tools graph routes --routed ADMIN_URI

Message types are given as full names (``sensor_msgs/Image``); append
``@sfm`` to subscribe with the serialization-free class
(``sensor_msgs/Image@sfm``).
"""

from __future__ import annotations

import argparse
import json
import sys

import repro.msg.library  # noqa: F401  (registers the standard library)
from repro.msg.registry import default_registry


def _resolve_class(spelling: str):
    from repro.bridge.server import resolve_msg_class

    try:
        return resolve_msg_class(spelling, default_registry)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _make_node(master_uri: str):
    from repro.ros.node import NodeHandle

    return NodeHandle("rossf_tools", master_uri)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_topic(args) -> int:
    from repro.ros import introspection

    if args.action == "list":
        for topic, type_name in introspection.list_topics(args.master):
            print(f"{topic} [{type_name}]")
        return 0
    if args.action == "info":
        info = introspection.topic_info(args.master, args.topic)
        print(f"Type: {info.type_name or '<unknown>'}")
        print("Publishers:")
        for node in info.publishers:
            print(f"  {node}")
        print("Subscribers:")
        for node in info.subscribers:
            print(f"  {node}")
        _print_link_errors(info.link_errors)
        return 0
    node = _make_node(args.master)
    link_errors: dict = {}
    try:
        msg_class = _resolve_class(args.type)
        if args.action == "hz":
            hz = introspection.measure_hz(
                node, args.topic, msg_class, window=args.count,
                timeout=args.timeout, errors=link_errors,
            )
            _print_link_errors(link_errors)
            print(f"average rate: {hz:.2f} Hz over {args.count} messages")
            return 0
        if args.action == "echo":
            messages = introspection.echo(
                node, args.topic, msg_class, count=args.count,
                timeout=args.timeout, errors=link_errors,
            )
            _print_link_errors(link_errors)
            for msg in messages:
                print(repr(msg))
                print("---")
            return 0 if messages else 1
    finally:
        # The node (slave server, data server, any remaining
        # subscriptions) must go down on every exit path -- early count
        # completion, timeout and Ctrl-C alike.
        node.shutdown()
    raise SystemExit(f"unknown topic action {args.action!r}")


def _print_link_errors(link_errors: dict) -> None:
    """Surface per-publisher handshake failures on stderr."""
    for uri, error in sorted(link_errors.items()):
        print(f"warning: connection to {uri} failed: {error}",
              file=sys.stderr)


def cmd_param(args) -> int:
    from repro.ros.master import MasterProxy

    proxy = MasterProxy(args.master)
    if args.action == "list":
        for key in proxy.get_param_names("/rossf_tools"):
            print(key)
        return 0
    if args.action == "get":
        print(json.dumps(proxy.get_param("/rossf_tools", args.key)))
        return 0
    if args.action == "set":
        try:
            value = json.loads(args.value)
        except json.JSONDecodeError:
            value = args.value
        proxy.set_param("/rossf_tools", args.key, value)
        return 0
    raise SystemExit(f"unknown param action {args.action!r}")


def cmd_bag_info(args) -> int:
    from repro.ros.bag import BagReader

    reader = BagReader(args.path)
    print(f"path:     {args.path}")
    print(f"messages: {len(reader)}")
    print(f"topics:   {len(reader.topics())}")
    for topic, connection in sorted(reader.topics().items()):
        count = len(reader.messages(topic))
        print(f"  {topic:<30} {count:>6} msgs  {connection.type_name} "
              f"[{connection.format_name}] md5={connection.md5sum[:8]}")
    return 0


def _parse_topic_specs(specs: list) -> list:
    """``TOPIC=TYPE`` pairs -> ``[(topic, msg_class), ...]``."""
    out = []
    for spec in specs:
        topic, sep, spelling = spec.partition("=")
        if not sep or not topic or not spelling:
            raise SystemExit(
                f"bad topic spec {spec!r} (expected TOPIC=TYPE, e.g. "
                "/camera/image=sensor_msgs/Image@sfm)"
            )
        out.append((topic, _resolve_class(spelling)))
    return out


def cmd_bag_record(args) -> int:
    import time

    from repro.ros.bag import BagRecorder, BagWriter

    subscriptions = _parse_topic_specs(args.topics)
    node = _make_node(args.master)
    writer = BagWriter(args.out)
    recorder = BagRecorder(node, writer)
    try:
        for topic, msg_class in subscriptions:
            recorder.record(topic, msg_class)
        print(f"recording {len(subscriptions)} topic(s) to {args.out} "
              f"for {args.duration:.1f}s", flush=True)
        time.sleep(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        recorder.stop()
        writer.close()
        node.shutdown()
    print(f"recorded {writer.message_count} message(s)")
    return 0


def cmd_bag_play(args) -> int:
    import time

    from repro.ros.bag import BagReader, play

    reader = BagReader(args.path)
    node = _make_node(args.master)
    try:
        published = play(
            reader, node, rate=args.rate,
            wait_for_subscribers=args.wait_subs,
        )
        # Let the per-link send queues drain before tearing the node
        # down, or the tail of a fast (rate=0) replay never hits the
        # wire.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            depth = sum(
                stats["queue_depth"]
                for stats in node.topic_stats()["publishers"]
            )
            if depth == 0:
                break
            time.sleep(0.02)
    finally:
        node.shutdown()
    print(f"played {published} message(s) from {args.path}")
    return 0


def cmd_top(args) -> int:
    """Live per-topic rate/bandwidth table plus SFM manager state."""
    from repro.obs.top import TopMonitor

    with TopMonitor(args.master, bridge=args.bridge) as monitor:
        monitor.run(iterations=args.count, interval=args.interval)
    return 0


def cmd_check(args) -> int:
    """The ROS-SF Converter front end: analyze sources, print guidance."""
    from repro.converter import analyze_source, conversion_guidance

    total_violations = 0
    for path in args.files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report = analyze_source(source, path=path)
        print(conversion_guidance(report))
        total_violations += len(report.violations)
    return 1 if total_violations else 0


def cmd_msg(args) -> int:
    if args.action == "list":
        for name in default_registry.names():
            print(name)
        return 0
    if args.action == "show":
        spec = default_registry.get(args.type)
        print(f"# {spec.full_name}  md5={default_registry.md5sum(spec.full_name)}")
        for const in spec.constants:
            print(f"{const.type.name} {const.name}={const.raw_value}")
        for field in spec.fields:
            optional = "optional " if field.optional else ""
            print(f"{optional}{field.type.name} {field.name}")
        if spec.sfm_capacity:
            print(f"# sfm_capacity: {spec.sfm_capacity}")
        return 0
    raise SystemExit(f"unknown msg action {args.action!r}")


def cmd_sfm(args) -> int:
    from repro.rossf.diagnostics import report

    print(report().render())
    return 0


def cmd_config(args) -> int:
    """Dump every REPRO_* switch resolved against this environment."""
    from repro import config

    rows = config.describe()
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        value = "on " if row["value"] else "off"
        source = (
            f"env={row['env']!r}" if row["env"]
            else f"default={'1' if row['default'] else '0'}"
        )
        pinned = "  [read]" if row["pinned"] else ""
        print(f"{row['name']:<{width}}  {value}  ({source}){pinned}  "
              f"{row['description']}")
    return 0


def cmd_graph(args) -> int:
    """Graph-plane operations: launch, per-shard dump, replication lag,
    RouteD route tables."""
    import xmlrpc.client

    from repro.graphplane import parse_spec, shard_for

    if args.action == "launch":
        import time

        from repro.graphplane import GraphPlane

        plane = GraphPlane(shards=args.shards, replicas=not args.no_replicas)
        routed = None
        try:
            print(f"graph plane up: {plane.shard_count} shard(s)"
                  f"{'' if args.no_replicas else ' + replicas'}", flush=True)
            print(f"spec: {plane.spec}", flush=True)
            if args.routed:
                from repro.graphplane import RouteD

                routed = RouteD(name=args.routed_name)
                print(f"routed '{routed.name}' listening on "
                      f"{routed.listen_addr[0]}:{routed.listen_addr[1]} "
                      f"(admin {routed.admin_uri})", flush=True)
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            return 0
        finally:
            if routed is not None:
                routed.shutdown()
            plane.shutdown()
    if args.action in ("dump", "lag") and not args.master:
        raise SystemExit(f"graph {args.action} requires --master SPEC")
    if args.action == "routes" and not args.routed:
        raise SystemExit("graph routes requires --routed ADMIN_URI")
    if args.action == "dump":
        shards = parse_spec(args.master)
        for index, candidates in enumerate(shards):
            info = None
            for uri in candidates:
                try:
                    proxy = xmlrpc.client.ServerProxy(uri, allow_none=True)
                    code, _status, info = proxy.getShardInfo("/rossf_tools")
                    if code == 1:
                        break
                except OSError:
                    info = None
            if info is None:
                print(f"shard {index}: unreachable ({'|'.join(candidates)})")
                continue
            print(f"shard {index}: {info.get('role')} at {info.get('uri')}")
            for key in ("epoch", "log_seq", "applied_seq", "replica_uri",
                        "replica_acked", "replication_lag", "topics"):
                if key in info:
                    print(f"  {key}: {info[key]}")
        if args.name:
            owner = shard_for(args.name, len(shards))
            print(f"{args.name} -> shard {owner}")
        return 0
    if args.action == "lag":
        shards = parse_spec(args.master)
        worst = 0
        for index, candidates in enumerate(shards):
            lag = "?"
            try:
                proxy = xmlrpc.client.ServerProxy(
                    candidates[0], allow_none=True)
                code, _status, info = proxy.getShardInfo("/rossf_tools")
                if code == 1:
                    lag = info.get("replication_lag", 0)
                    worst = max(worst, int(lag))
            except OSError:
                pass
            print(f"shard {index}: replication lag {lag} record(s)")
        return 0 if worst == 0 else 1
    if args.action == "routes":
        proxy = xmlrpc.client.ServerProxy(args.routed, allow_none=True)
        status = proxy.getStatus()
        print(f"routed '{status['name']}' listening on {status['listen']}")
        print("routes:")
        for target, peer in sorted(status.get("routes", {}).items()):
            print(f"  {target} via {peer}")
        print("mux links:")
        for link in status.get("mux_links", []):
            channels = link.get("channels", [])
            print(f"  peer {link.get('peer')}: {len(channels)} channel(s) "
                  f"{channels}")
        return 0
    raise SystemExit(f"unknown graph action {args.action!r}")


def cmd_bridge(args) -> int:
    """Run the external-client gateway until interrupted."""
    import time

    from repro.bridge.server import BridgeServer

    server = BridgeServer(
        args.master, host=args.host, port=args.port, node_name=args.name
    )
    metrics = None
    try:
        if args.ws_port is not None:
            frontend = server.enable_ws(
                host=args.host, port=args.ws_port,
                auth_tokens=args.auth_token,
            )
            print(f"websocket front door at {frontend.url} "
                  f"(SSE fallback on /sse"
                  f"{', token auth on' if args.auth_token else ''})",
                  flush=True)
        if args.metrics_port is not None:
            from repro.obs.export import MetricsServer

            metrics = MetricsServer(host=args.host, port=args.metrics_port)
            print(f"metrics at {metrics.url}/metrics", flush=True)
        print(f"bridge listening on {server.host}:{server.port} "
              f"(graph master {args.master})", flush=True)
        while True:
            if args.stats_interval:
                from repro.obs.top import render_bridge_clients

                time.sleep(args.stats_interval)
                print(render_bridge_clients(server.stats_snapshot()),
                      flush=True)
            else:
                time.sleep(0.5)
    except KeyboardInterrupt:
        return 0
    finally:
        if metrics is not None:
            metrics.close()
        server.shutdown()


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.ros.tools", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topic = sub.add_parser("topic", help="topic introspection")
    topic.add_argument("action", choices=["list", "info", "hz", "echo"])
    topic.add_argument("topic", nargs="?", help="topic name")
    topic.add_argument("type", nargs="?", help="message type (for hz/echo)")
    topic.add_argument("--master", required=True)
    topic.add_argument("-n", "--count", type=int, default=10)
    topic.add_argument("--timeout", type=float, default=10.0)
    topic.set_defaults(func=cmd_topic)

    param = sub.add_parser("param", help="parameter server access")
    param.add_argument("action", choices=["get", "set", "list"])
    param.add_argument("key", nargs="?")
    param.add_argument("value", nargs="?")
    param.add_argument("--master", required=True)
    param.set_defaults(func=cmd_param)

    bag = sub.add_parser("bag", help="bag recording, playback, inspection")
    bag_sub = bag.add_subparsers(dest="action", required=True)

    bag_info = bag_sub.add_parser("info", help="summarize a bag file")
    bag_info.add_argument("path")
    bag_info.set_defaults(func=cmd_bag_info)

    bag_record = bag_sub.add_parser(
        "record", help="subscribe and record topics to a bag"
    )
    bag_record.add_argument(
        "topics", nargs="+", metavar="TOPIC=TYPE",
        help="e.g. /camera/image=sensor_msgs/Image@sfm",
    )
    bag_record.add_argument("--master", required=True)
    bag_record.add_argument("--out", "-o", required=True, help="bag path")
    bag_record.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds to record before stopping",
    )
    bag_record.set_defaults(func=cmd_bag_record)

    bag_play = bag_sub.add_parser(
        "play", help="republish a bag into a live graph"
    )
    bag_play.add_argument("path")
    bag_play.add_argument("--master", required=True)
    bag_play.add_argument(
        "--rate", type=float, default=1.0,
        help="time scale (0 = as fast as possible)",
    )
    bag_play.add_argument(
        "--wait-subs", type=float, default=0.0,
        help="seconds to wait for one subscriber per topic",
    )
    bag_play.set_defaults(func=cmd_bag_play)

    top = sub.add_parser(
        "top", help="live per-topic rate/bandwidth monitor (repro.obs)"
    )
    top.add_argument("--master", required=True)
    top.add_argument(
        "-n", "--count", type=int, default=0,
        help="iterations before exiting (0 = run until interrupted)",
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument(
        "--bridge", default=None, metavar="HOST:PORT",
        help="also show the per-client table of this bridge gateway",
    )
    top.set_defaults(func=cmd_top)

    check = sub.add_parser(
        "check", help="ROS-SF Converter: check sources for the three "
        "assumptions",
    )
    check.add_argument("files", nargs="+")
    check.set_defaults(func=cmd_check)

    msg = sub.add_parser("msg", help="message definitions")
    msg.add_argument("action", choices=["list", "show"])
    msg.add_argument("type", nargs="?")
    msg.set_defaults(func=cmd_msg)

    sfm = sub.add_parser("sfm", help="ROS-SF runtime diagnostics")
    sfm.add_argument("action", choices=["stats"])
    sfm.set_defaults(func=cmd_sfm)

    config_p = sub.add_parser(
        "config", help="dump every REPRO_* switch (repro.config)"
    )
    config_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    config_p.set_defaults(func=cmd_config)

    graph = sub.add_parser(
        "graph", help="graph-plane operations (repro.graphplane)"
    )
    graph.add_argument("action",
                       choices=["launch", "dump", "lag", "routes"])
    graph.add_argument(
        "name", nargs="?",
        help="for dump: also print which shard owns this graph name",
    )
    graph.add_argument(
        "--master", default=None,
        help="graph-plane spec (shards separated by ',', failover "
        "candidates by '|')",
    )
    graph.add_argument("--shards", type=int, default=2,
                       help="for launch: shard count")
    graph.add_argument("--no-replicas", action="store_true",
                       help="for launch: leaders only, no failover")
    graph.add_argument("--routed", nargs="?", const="start", default=None,
                       help="for launch: also start a RouteD daemon "
                       "(no value needed); for routes: the daemon's "
                       "admin URI")
    graph.add_argument("--routed-name", default="routed",
                       help="for launch: the RouteD daemon's name")
    graph.set_defaults(func=cmd_graph)

    bridge = sub.add_parser(
        "bridge", help="run the external-client gateway (repro.bridge)"
    )
    bridge.add_argument("--master", required=True)
    bridge.add_argument("--host", default="127.0.0.1")
    bridge.add_argument("--port", type=int, default=9090)
    bridge.add_argument("--name", default="rossf_bridge")
    bridge.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve Prometheus /metrics on this port",
    )
    bridge.add_argument(
        "--ws-port", type=int, default=None,
        help="open the WebSocket/SSE front door on this port",
    )
    bridge.add_argument(
        "--auth-token", action="append", default=None, metavar="TOKEN",
        help="require one of these tokens on ws/SSE connections "
        "(repeatable)",
    )
    bridge.add_argument(
        "--stats-interval", type=float, default=0.0,
        help="print the per-client table every N seconds",
    )
    bridge.set_defaults(func=cmd_bridge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
