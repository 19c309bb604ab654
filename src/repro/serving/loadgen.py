"""Load generator for the serving front end.

Drives a running server with a configurable query mix over real HTTP
connections (one :class:`~repro.serving.client.ServingClient` per
worker thread) and reports latency percentiles, throughput, and
deadline-overshoot percentiles.  The serving benchmark
(``benchmarks/test_serving.py``) uses it to produce
``BENCH_serving.json`` and to gate the CI floors (single-flight
speedup on a duplicate-heavy mix, p99 deadline overshoot).

The mix model is a *hot-key* workload: ``duplicate_fraction`` of the
requests ask the first query (the stampede target), the remainder cycle
through the rest.  This is the shape single-flight dedup exists for —
a cache-missing hot query hammered by concurrent duplicates.

:class:`InProcessServer` runs a full daemon + TCP server on a private
event loop inside a background thread, so tests and benchmarks can
exercise the real network path without managing a subprocess.
"""

from __future__ import annotations

import asyncio
import logging
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Any, Dict, List, Optional, Sequence

from ..config import ServingParams
from ..obs.clock import get_clock
from ..system import CIRankSystem
from .client import ServingClient
from .daemon import CIRankDaemon
from .server import ServingServer

logger = logging.getLogger(__name__)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation.

    An empty sequence yields ``nan`` rather than raising: an all-failed
    load run must still produce a report (with its error-class counts),
    not die summarizing it.
    """
    if not values:
        return float("nan")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def build_mix(
    queries: Sequence[str],
    total: int,
    duplicate_fraction: float,
    seed: int = 0,
    connector_queries: Sequence[str] = (),
    free_connector_ratio: float = 0.0,
) -> List[str]:
    """Build a deterministic hot-key request mix.

    ``round(total * duplicate_fraction)`` requests are the first query;
    the remainder cycle through the rest (or the first again when only
    one query was given).  The order is shuffled with ``seed`` so
    duplicates interleave with distinct queries the way real traffic
    does, instead of arriving as one contiguous burst.

    ``free_connector_ratio`` carves that share of ``total`` out for
    ``connector_queries`` — queries whose keywords never co-occur in
    one node, so every answer needs free connector nodes.  This is the
    paper's AOL-mix vs synthetic-mix distinction (AOL queries mostly
    resolve within a node; synthetic multi-entity queries need
    connectors), and it lets benchmarks and planner tests synthesize
    both workload classes.  The connector requests cycle through
    ``connector_queries`` and the hot-key model applies to the
    remaining share.
    """
    if not queries:
        raise ValueError("build_mix needs at least one query")
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError(
            f"duplicate_fraction must be in [0, 1], got {duplicate_fraction}"
        )
    if not 0.0 <= free_connector_ratio <= 1.0:
        raise ValueError(
            f"free_connector_ratio must be in [0, 1], "
            f"got {free_connector_ratio}"
        )
    if free_connector_ratio > 0 and not connector_queries:
        raise ValueError(
            "free_connector_ratio > 0 needs connector_queries"
        )
    n_connector = round(total * free_connector_ratio)
    mix = [
        connector_queries[i % len(connector_queries)]
        for i in range(n_connector)
    ]
    remainder = total - n_connector
    hot = queries[0]
    others = list(queries[1:]) or [hot]
    n_hot = round(remainder * duplicate_fraction)
    mix.extend([hot] * n_hot)
    mix.extend(others[i % len(others)] for i in range(remainder - n_hot))
    random.Random(seed).shuffle(mix)
    return mix


@dataclass
class LoadgenReport:
    """One load run's measurements (JSON-friendly via :meth:`as_dict`)."""

    total_requests: int
    concurrency: int
    elapsed_seconds: float
    throughput_qps: float
    latency_ms: Dict[str, float]
    overshoot_ms: Dict[str, float]
    coalesced: int
    deadline_hit: int
    served_from_cache: int
    errors: int
    error_classes: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_requests": self.total_requests,
            "concurrency": self.concurrency,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
            "latency_ms": self.latency_ms,
            "overshoot_ms": self.overshoot_ms,
            "coalesced": self.coalesced,
            "deadline_hit": self.deadline_hit,
            "served_from_cache": self.served_from_cache,
            "errors": self.errors,
            "error_classes": dict(self.error_classes),
            "server_stats": self.server_stats,
        }


def run_load(
    host: str,
    port: int,
    mix: Sequence[str],
    concurrency: int = 8,
    k: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    timeout: float = 120.0,
) -> LoadgenReport:
    """Fire ``mix`` at the server from ``concurrency`` client threads.

    Every worker owns its own keep-alive connection and pulls the next
    request from a shared queue, so the offered concurrency stays at
    ``concurrency`` until the mix drains.  Latency is measured at the
    client (full round trip); deadline overshoot uses the *server's*
    per-execution ``elapsed_ms`` (client latency includes queueing and
    would overstate overshoot).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    clock = get_clock()
    work: SimpleQueue = SimpleQueue()
    for query in mix:
        work.put(query)
    records: List[Dict[str, Any]] = []
    records_lock = threading.Lock()

    def worker() -> None:
        with ServingClient(host, port, timeout=timeout) as client:
            while True:
                try:
                    query = work.get_nowait()
                except Empty:
                    return
                t0 = clock.now()
                try:
                    response = client.search(
                        query, k=k, deadline_ms=deadline_ms
                    )
                except Exception as exc:
                    record = {"error": type(exc).__name__}
                    logger.warning(
                        "request failed: %s: %s", type(exc).__name__, exc
                    )
                else:
                    record = {
                        "coalesced": response["coalesced"],
                        "deadline_hit": response["deadline_hit"],
                        "served_from_cache": response["served_from_cache"],
                        "elapsed_ms": response["elapsed_ms"],
                    }
                record["latency_ms"] = (clock.now() - t0) * 1000.0
                with records_lock:
                    records.append(record)

    started = clock.now()
    with ThreadPoolExecutor(
        max_workers=concurrency, thread_name_prefix="loadgen"
    ) as pool:
        futures = [pool.submit(worker) for _ in range(concurrency)]
        for future in futures:
            future.result()
    elapsed = clock.now() - started

    ok = [r for r in records if "error" not in r]
    error_classes: Dict[str, int] = {}
    for r in records:
        if "error" in r:
            error_classes[r["error"]] = error_classes.get(r["error"], 0) + 1
    latencies = [r["latency_ms"] for r in ok]
    overshoots = [
        max(0.0, r["elapsed_ms"] - deadline_ms)
        for r in ok
        if deadline_ms and r["deadline_hit"]
    ]
    try:
        server_stats = ServingClient(host, port, timeout=timeout).stats()
    except Exception:
        server_stats = {}
    return LoadgenReport(
        total_requests=len(mix),
        concurrency=concurrency,
        elapsed_seconds=elapsed,
        throughput_qps=len(ok) / elapsed if elapsed > 0 else 0.0,
        latency_ms=summarize(latencies),
        overshoot_ms=summarize(overshoots),
        coalesced=sum(1 for r in ok if r["coalesced"]),
        deadline_hit=sum(1 for r in ok if r["deadline_hit"]),
        served_from_cache=sum(1 for r in ok if r["served_from_cache"]),
        errors=len(records) - len(ok),
        error_classes=error_classes,
        server_stats=server_stats,
    )


def summarize(values: List[float]) -> Dict[str, float]:
    """count/mean/percentile summary (``{"count": 0}`` when empty)."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": max(values),
    }


class InProcessServer:
    """A daemon + server on a private event loop in a background thread.

    Context manager: entering starts the loop thread, the daemon, and
    the TCP listener (``port=0`` binds an ephemeral port — read
    :attr:`port` after entry); exiting drains gracefully and joins the
    thread.  Used by the serving tests and the loadgen benchmark so the
    real network path runs without a subprocess.
    """

    def __init__(
        self,
        system: CIRankSystem,
        params: Optional[ServingParams] = None,
    ) -> None:
        self.daemon = CIRankDaemon(system, params)
        self.server = ServingServer(self.daemon)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.daemon.params.host

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "InProcessServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        """Start the loop thread; returns once the server is listening."""
        self._thread = threading.Thread(
            target=self._run, name="cirank-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight requests, join the thread."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join()
        self._loop = None

    def run_on_loop(self, coro, timeout: float = 30.0):
        """Run ``coro`` on the server's loop; return its result."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            self._loop.run_until_complete(
                self.server.serve_until_shutdown()
            )
        finally:
            self._loop.close()
            asyncio.set_event_loop(None)
