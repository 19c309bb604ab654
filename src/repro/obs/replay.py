"""Workload replay: re-drive a captured query log against a server.

The replay harness takes raw capture records (from
:func:`repro.obs.workload.read_query_log`), reconstructs each request's
arrival offset relative to the first record, and fires the same
queries with the same parameters at ``rate``x the recorded pace from a
pool of client threads.  Three things come back:

* a latency/lag report in the load generator's summary shape, with
  **error-class counts** (exception class names) instead of a bare
  failure count;
* optional **gate violations** — latency-percentile and error-rate
  ceilings checked against the report, for CI smoke steps;
* the raw (record, response) pairs, so a differential leg can assert
  **tie-class parity**: replaying a capture with deadlines stripped
  must produce top-k tie-class-identical to calling
  :meth:`CIRankSystem.search` directly for every logged query.

Tie classes are the repo's standard equality for ranked results: group
answers by score, compare the *set* of (nodes, edges) trees per score
class, so any legal tie-break permutation compares equal.  The wire
and direct helpers here are the canonical copies of the comparison the
serving benchmark uses.

Imports from ``repro.serving`` happen lazily inside functions:
``serving`` modules import ``repro.obs`` at module scope, and the
package would otherwise be circular.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .clock import Clock, get_clock

logger = logging.getLogger(__name__)


def tie_classes_wire(answers: Sequence[Dict[str, Any]]) -> List[Tuple]:
    """Tie classes of a wire-format answer list (JSON documents)."""
    classes: List[Tuple[float, set]] = []
    for answer in answers:
        key = (
            tuple(answer["nodes"]),
            tuple(tuple(edge) for edge in answer["edges"]),
        )
        if classes and classes[-1][0] == answer["score"]:
            classes[-1][1].add(key)
        else:
            classes.append((answer["score"], {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


def tie_classes_direct(answers: Sequence[Any]) -> List[Tuple]:
    """Tie classes of direct :meth:`CIRankSystem.search` answers."""
    classes: List[Tuple[float, set]] = []
    for answer in answers:
        key = (
            tuple(sorted(answer.tree.nodes)),
            tuple(sorted(tuple(e) for e in answer.tree.edges)),
        )
        if classes and classes[-1][0] == answer.score:
            classes[-1][1].add(key)
        else:
            classes.append((answer.score, {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


@dataclass
class ReplayResult:
    """One replayed request: the source record plus what came back."""

    record: Dict[str, Any]
    offset_seconds: float
    lag_ms: float = 0.0
    latency_ms: float = 0.0
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass
class ReplayReport:
    """A replay run's measurements and gate verdicts."""

    total_requests: int
    rate: float
    concurrency: int
    elapsed_seconds: float
    throughput_qps: float
    latency_ms: Dict[str, float]
    lag_ms: Dict[str, float]
    error_classes: Dict[str, int]
    deadline_hit: int
    served_from_cache: int
    coalesced: int
    gate_violations: List[str] = field(default_factory=list)
    results: List[ReplayResult] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(self.error_classes.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_requests": self.total_requests,
            "rate": self.rate,
            "concurrency": self.concurrency,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
            "latency_ms": self.latency_ms,
            "lag_ms": self.lag_ms,
            "error_classes": dict(self.error_classes),
            "errors": self.errors,
            "deadline_hit": self.deadline_hit,
            "served_from_cache": self.served_from_cache,
            "coalesced": self.coalesced,
            "gate_violations": list(self.gate_violations),
        }


def _check_gates(
    gates: Dict[str, float],
    latency: Dict[str, float],
    error_classes: Dict[str, int],
    total: int,
) -> List[str]:
    """Evaluate ``{"p50_ms": x, "p99_ms": y, "error_rate": z}`` gates."""
    violations: List[str] = []
    for key, ceiling in gates.items():
        if key.endswith("_ms"):
            quantile = key[: -len("_ms")]
            measured = latency.get(quantile)
            if measured is None:
                violations.append(f"{key}: no successful requests to measure")
            elif measured > ceiling:
                violations.append(
                    f"{key}: {measured:.1f}ms > {ceiling:.1f}ms"
                )
        elif key == "error_rate":
            failed = sum(error_classes.values())
            rate = failed / total if total else 0.0
            if rate > ceiling:
                violations.append(
                    f"error_rate: {rate:.3f} > {ceiling:.3f} "
                    f"({dict(error_classes)})"
                )
        else:
            violations.append(f"unknown gate {key!r}")
    return violations


def replay(
    host: str,
    port: int,
    records: Sequence[Dict[str, Any]],
    rate: float = 1.0,
    concurrency: int = 8,
    honor_deadlines: bool = True,
    gates: Optional[Dict[str, float]] = None,
    timeout: float = 120.0,
    clock: Optional[Clock] = None,
) -> ReplayReport:
    """Re-drive captured ``records`` against a running server.

    Requests are scheduled at ``(ts_i - ts_0) / rate`` seconds after
    the replay starts (``rate=2.0`` replays twice as fast); a worker
    that falls behind fires immediately and the slip is reported in the
    ``lag_ms`` summary.  ``honor_deadlines=False`` strips the recorded
    deadline so every answer is proven — the configuration the parity
    leg needs (:func:`verify_parity`).
    """
    from ..serving.client import ServingClient
    from ..serving.loadgen import summarize

    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if not records:
        raise ValueError("nothing to replay: the capture is empty")
    clk = clock if clock is not None else get_clock()

    ordered = sorted(records, key=lambda r: float(r.get("ts", 0.0)))
    base_ts = float(ordered[0].get("ts", 0.0))
    work: SimpleQueue = SimpleQueue()
    for record in ordered:
        offset = (float(record.get("ts", base_ts)) - base_ts) / rate
        work.put(ReplayResult(record=record, offset_seconds=offset))
    results: List[ReplayResult] = []
    results_lock = threading.Lock()
    start = clk.now()

    def worker() -> None:
        with ServingClient(host, port, timeout=timeout) as client:
            while True:
                try:
                    item = work.get_nowait()
                except Empty:
                    return
                due = start + item.offset_seconds
                delay = due - clk.now()
                if delay > 0:
                    time.sleep(delay)
                item.lag_ms = max(0.0, (clk.now() - due) * 1000.0)
                record = item.record
                deadline = record.get("deadline_ms") or None
                t0 = clk.now()
                try:
                    item.response = client.search(
                        record.get("query", ""),
                        k=record.get("k"),
                        diameter=record.get("diameter"),
                        deadline_ms=deadline if honor_deadlines else None,
                    )
                except Exception as exc:
                    item.error = type(exc).__name__
                    logger.warning(
                        "replay request failed: %s: %s",
                        type(exc).__name__, exc,
                    )
                item.latency_ms = (clk.now() - t0) * 1000.0
                with results_lock:
                    results.append(item)

    threads = [
        threading.Thread(target=worker, name=f"replay-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = clk.now() - start

    ok = [r for r in results if r.error is None]
    error_classes: Dict[str, int] = {}
    for r in results:
        if r.error is not None:
            error_classes[r.error] = error_classes.get(r.error, 0) + 1
    latency = summarize([r.latency_ms for r in ok])
    report = ReplayReport(
        total_requests=len(ordered),
        rate=rate,
        concurrency=concurrency,
        elapsed_seconds=elapsed,
        throughput_qps=len(ok) / elapsed if elapsed > 0 else 0.0,
        latency_ms=latency,
        lag_ms=summarize([r.lag_ms for r in results]),
        error_classes=error_classes,
        deadline_hit=sum(
            1 for r in ok if r.response and r.response.get("deadline_hit")
        ),
        served_from_cache=sum(
            1
            for r in ok
            if r.response and r.response.get("served_from_cache")
        ),
        coalesced=sum(
            1 for r in ok if r.response and r.response.get("coalesced")
        ),
        results=results,
    )
    if gates:
        report.gate_violations = _check_gates(
            gates, latency, error_classes, len(ordered)
        )
    return report


def verify_parity(system: Any, report: ReplayReport) -> int:
    """Assert tie-class parity of every replayed answer vs direct search.

    For each successfully replayed proven response, runs the same query
    directly through ``system.search`` and compares tie classes.
    Returns the number of queries checked; raises ``AssertionError`` on
    the first divergence.  Run the replay with
    ``honor_deadlines=False`` first — anytime (unproven) responses are
    legitimately partial and are skipped here.
    """
    checked = 0
    verified: Dict[Tuple, bool] = {}
    for item in report.results:
        response = item.response
        if response is None or not response.get("proven"):
            continue
        record = item.record
        key = (
            record.get("query", ""),
            record.get("k"),
            record.get("diameter"),
        )
        if key in verified:
            checked += 1
            continue
        kwargs: Dict[str, Any] = {}
        if record.get("k") is not None:
            kwargs["k"] = int(record["k"])
        if record.get("diameter") is not None:
            kwargs["diameter"] = int(record["diameter"])
        direct = system.search(record.get("query", ""), **kwargs)
        assert tie_classes_wire(response["answers"]) == (
            tie_classes_direct(direct)
        ), f"replayed ranking diverged for {record.get('query')!r}"
        verified[key] = True
        checked += 1
    return checked
