"""Host calibration and provenance.

Five ``host.*`` numbers are taken before and after every run and stored
beside the results, so a host that drifted between two runs (another
tenant, a frequency change) is visible next to the numbers it moved.
None of them calls into the program.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import threading
import time
from pathlib import Path
from statistics import median

from spine.stats import percentile

ROOT = Path(__file__).resolve().parent.parent


def pin_to_one_cpu() -> int:
    """Pin the process to its highest-numbered allowed CPU; call before
    any thread exists.  Unpinned, a stop-and-wait trip on a 2-vCPU host
    flips between two latency modes (cross-vCPU wake-ups); pinned it
    does not, and the GIL serialises the path anyway."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _memcpy_gb_per_s() -> float:
    size = 4 << 20  # beyond L2, small enough not to set the peak RSS
    source = bytearray(size)
    target = bytearray(size)
    rates = []
    for _ in range(15):
        start = time.perf_counter()
        target[:] = source
        rates.append(size / (time.perf_counter() - start) / 1e9)
    return median(rates)


def _handoff_us(rounds: int = 1000) -> float:
    """One thread-to-thread wake-up: half a two-thread Event ping-pong."""
    ping, pong = threading.Event(), threading.Event()

    def partner() -> None:
        for _ in range(rounds):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=partner, name="spine-handoff")
    thread.start()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        ping.set()
        pong.wait()
        pong.clear()
        samples.append(time.perf_counter() - start)
    thread.join()
    return percentile(samples, 0.5) * 1e6 / 2.0


def loopback_pair() -> tuple[socket.socket, socket.socket]:
    """Two connected TCP sockets over 127.0.0.1 (Nagle off)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        near = socket.create_connection(listener.getsockname())
        far, _addr = listener.accept()
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return near, far


def _loopback_rtt_us(rounds: int = 1000) -> float:
    near, far = loopback_pair()

    def echo() -> None:
        for _ in range(rounds):
            far.sendall(far.recv(1))

    thread = threading.Thread(target=echo, name="spine-echo")
    thread.start()
    samples = []
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            near.sendall(b"x")
            near.recv(1)
            samples.append(time.perf_counter() - start)
        thread.join()
    finally:
        near.close()
        far.close()
    return percentile(samples, 0.5) * 1e6


def _perf_counter_ns(calls: int = 100_000) -> float:
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        clock()
    return (clock() - start) / calls * 1e9


def _pyloop_ms() -> float:
    """A fixed pure-Python loop: interpreter speed on this host."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


def calibrate() -> dict[str, float]:
    """The five ``host.*`` numbers (about 0.2 s)."""
    return {
        "host.memcpy_gb_per_s": _memcpy_gb_per_s(),
        "host.handoff_us": _handoff_us(),
        "host.loopback_rtt_us": _loopback_rtt_us(),
        "host.perf_counter_ns": _perf_counter_ns(),
        "host.pyloop_ms": _pyloop_ms(),
    }


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def provenance(seed: int, seconds: float) -> dict:
    """Where and on what these numbers were taken."""
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        # Only what a run executes: the program and the spine itself.
        "dirty": bool(_git("status", "--porcelain", "--", "src", "spine",
                           "BENCHMARK.json")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
