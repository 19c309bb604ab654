"""The daemon process and the closed-loop HTTP client that drives it.

Everything here is stdlib: the client is ``http.client`` over keep-alive
connections, one thread per connection, so the measurement does not go
through the repo's own client.  Times are ``time.monotonic()``, the
clock the traced daemon stamps its spans with.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

HOST = "127.0.0.1"

#: Longest wait for one reply; a daemon that stalls fails the request.
REQUEST_TIMEOUT_S = 60.0

#: Longest wait for a daemon to print its port, and to exit on shutdown.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def http_call(port: int, method: str, path: str,
              body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection."""
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    status, data = http_call(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return json.loads(data)


class Daemon:
    """One launcher process serving one deployment."""

    def __init__(self, launcher: str, workload: str, log: str,
                 spans: str = "") -> None:
        self.log_path = log
        args = [sys.executable, launcher, "--workload", workload]
        if spans:
            args += ["--spans", spans]
        self._log = open(log, "wb")
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            args + ["--spawned-at", repr(self.spawned_at)],
            stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        self.port = 0
        self.ready_s = float("nan")

    def wait_ready(self) -> float:
        """Seconds from spawn to the first successful ``GET /health``."""
        deadline = self.spawned_at + START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon did not report its port; see {self.log_path}"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    continue
                line += chunk
        self.port = int(line.split()[1])
        while True:
            try:
                if http_call(self.port, "GET", "/health")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never answered GET /health")
            time.sleep(0.005)
        self.ready_s = time.monotonic() - self.spawned_at
        return self.ready_s

    def pid_file(self, name: str) -> str:
        return f"/proc/{self.proc.pid}/{name}"

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not come."""
        if self.proc.poll() is None and self.port:
            try:
                http_call(self.port, "POST", "/shutdown", b"")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Sample:
    """One request of a closed loop."""

    index: int
    sent: float
    received: float
    status: int
    body: bytes = b""
    error: str = ""


@dataclass
class LoopResult:
    """What one closed-loop window produced."""

    start: float
    samples: List[Sample] = field(default_factory=list)

    @property
    def end(self) -> float:
        return max((s.received for s in self.samples), default=self.start)


def closed_loop(port: int, bodies: Sequence[bytes], order: Sequence[int],
                connections: int, seconds: float) -> LoopResult:
    """Send ``order`` (indices into ``bodies``) until ``seconds`` pass.

    Each connection sends its next request only after the previous reply;
    requests sent before the window closes are awaited.
    """
    lock = threading.Lock()
    position = [0]
    result = LoopResult(start=time.monotonic())
    stop_at = result.start + seconds
    per_thread: List[List[Sample]] = [[] for _ in range(connections)]

    def worker(out: List[Sample]) -> None:
        conn = None
        while True:
            with lock:
                if time.monotonic() >= stop_at or position[0] >= len(order):
                    break
                index = order[position[0]]
                position[0] += 1
            if conn is None:
                conn = http.client.HTTPConnection(
                    HOST, port, timeout=REQUEST_TIMEOUT_S
                )
            sent = time.monotonic()
            try:
                conn.request("POST", "/search", body=bodies[index],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                out.append(Sample(index, sent, time.monotonic(),
                                  response.status, data))
            except (OSError, http.client.HTTPException) as exc:
                out.append(Sample(index, sent, time.monotonic(), 0,
                                  error=f"{type(exc).__name__}: {exc}"))
                conn.close()
                conn = None
        if conn is not None:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(out,), daemon=True)
        for out in per_thread
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(min(seconds, 3600.0) + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client connection never finished")
    for out in per_thread:
        result.samples.extend(out)
    result.samples.sort(key=lambda s: s.sent)
    return result


def send_each(port: int, bodies: Sequence[bytes],
              indices: Sequence[int]) -> List[Sample]:
    """Send the given requests one after another (warm-up)."""
    return closed_loop(port, bodies, indices, 1, float("inf")).samples


# ---------------------------------------------------------------- /proc


def clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def process_cpu_s(stat_path: str) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(stat_path, encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / clock_ticks()


def self_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def peak_rss_mib(status_path: str) -> float:
    """``VmHWM`` of a process in MiB."""
    with open(status_path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status_path}")


def reset_peak_rss(clear_refs_path: str) -> None:
    """Reset a process's ``VmHWM`` to its current resident size."""
    with open(clear_refs_path, "w", encoding="ascii") as handle:
        handle.write("5")


def steal_s() -> float:
    """Host steal seconds so far, summed over CPUs (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / clock_ticks() if len(fields) > 8 else 0.0
