"""The long-lived serving daemon owning one :class:`CIRankSystem`.

The daemon/front-end split mirrors production keyword-search services:
:class:`CIRankDaemon` owns the heavyweight state — the data graph, the
compiled CSR, any attached pairs/star index, and the versioned answer
cache — and exposes one coroutine, :meth:`handle_search`, that the
network layer (:mod:`repro.serving.server`) calls per request.  The
daemon never touches sockets; the server never touches the system.

A request flows through three stages:

1. **single-flight dedup** (:mod:`repro.serving.dedup`) — identical
   in-flight queries (same canonical answer-cache key *and* deadline)
   collapse into one execution whose result every waiter shares;
2. **batching** (:mod:`repro.serving.batching`) — flight leaders are
   grouped and dispatched to the bounded executor pool, so the event
   loop never blocks on a search;
3. **deadline-bounded execution** (:mod:`repro.serving.deadline`) — the
   worker drives the anytime search and stops at the wall-clock budget,
   reporting the snapshot ``gap`` as the SLA field.

Counters land in one :class:`~repro.serving.stats.ServingStats` block
(the ``/stats`` payload), with ``received == executed + coalesced`` as
the audit invariant.

The daemon is also where observability (:mod:`repro.obs`) attaches:

* every request gets a root **span** (``serve.search``) whose children
  — ``flight`` on the event loop, ``execute`` and ``search`` on the
  worker thread — cross the batcher boundary by explicit passing, and
  whose trace id rides in the response document;
* the **metrics registry** mirrors the serving counters as
  function-backed Prometheus series and owns the latency /
  gap-at-deadline / batch-size / arena-bytes histograms plus the
  per-phase search-time totals;
* with ``capture_path`` set, every accepted request appends one record
  to the rotating **workload log**, extending the audit invariant to
  ``logged == received``.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Optional

from ..config import ServingParams
from ..exceptions import BadRequestError
from ..model.answer import RankedAnswer
from ..obs.clock import get_clock
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..obs.trace import NullTracer, Tracer
from ..obs.workload import QueryLogWriter, capture_record
from ..system import CIRankSystem
from .batching import QueryBatcher
from .deadline import DeadlineOutcome, run_with_deadline
from .dedup import SingleFlight
from .stats import COUNTER_FIELDS, ServingStats

logger = logging.getLogger(__name__)

#: Span-attribute / metric label per SearchStats phase timer.  The
#: search phases are disjoint self times (see ``SearchStats``), so the
#: per-phase counters add up to the attributed search time.
_PHASE_FIELDS = (
    ("bound", "bound_seconds"),
    ("cheap_bound", "cheap_bound_seconds"),
    ("tighten", "tighten_seconds"),
    ("expand", "expand_seconds"),
    ("score", "score_seconds"),
    ("cache_lookup", "cache_lookup_seconds"),
)

#: Gap-at-deadline buckets: RWMP scores live well below 1.0, so the
#: scale runs from "effectively converged" to "barely started".
_GAP_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0)

#: Arena peak-bytes buckets (64 KiB .. 256 MiB, powers of four).
_ARENA_BUCKETS = tuple(float(1 << s) for s in range(16, 29, 2))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequestError(message)


class CIRankDaemon:
    """Owns the system and the serving machinery (no network I/O).

    Args:
        system: the ready-to-query deployment (graph, indexes, caches).
        params: serving knobs; defaults to :class:`ServingParams`.
    """

    def __init__(
        self,
        system: CIRankSystem,
        params: Optional[ServingParams] = None,
    ) -> None:
        self.system = system
        self.params = params or ServingParams()
        self.stats = ServingStats()
        self.clock = get_clock()
        if self.params.trace:
            self.tracer: Tracer = Tracer(
                clock=self.clock,
                slow_ms=self.params.slow_query_ms,
                ring_size=self.params.slow_log_size,
                sample=self.params.trace_sample,
            )
        else:
            self.tracer = NullTracer(clock=self.clock)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.params.metrics else None
        )
        self.capture: Optional[QueryLogWriter] = None
        if self.params.capture_path:
            self.capture = QueryLogWriter(
                self.params.capture_path,
                max_bytes=self.params.capture_max_bytes,
                backups=self.params.capture_backups,
            )
        if self.registry is not None:
            self._register_metrics()
        self.flights = SingleFlight()
        self.batcher = QueryBatcher(
            workers=self.params.workers,
            max_batch_size=self.params.max_batch_size,
            max_wait_ms=self.params.max_wait_ms,
            stats=self.stats,
            observe_batch=self._observe_batch,
        )
        self._draining = False

    @property
    def draining(self) -> bool:
        """True once shutdown started (new searches are refused)."""
        return self._draining

    async def start(self) -> None:
        """Start the worker pool and warm shared read-only state.

        The compiled CSR view and the dampening-rate memo are built once
        here, on the loop thread, so the executor threads only ever
        *read* them (their lazy builders are idempotent but warming
        avoids duplicated work on the first request burst).
        """
        compiled = self.system.graph.compiled()
        del compiled
        await self.batcher.start()
        logger.info(
            "daemon started: workers=%d batch=%d/%.1fms dedup=%s "
            "deadline_ms=%.0f trace=%s metrics=%s capture=%s",
            self.params.workers, self.params.max_batch_size,
            self.params.max_wait_ms, self.params.dedup,
            self.params.deadline_ms, self.params.trace,
            self.params.metrics, self.params.capture_path or "off",
        )

    def begin_drain(self) -> None:
        """Stop accepting new searches (in-flight ones keep running)."""
        if not self._draining:
            logger.info("drain started: refusing new searches")
        self._draining = True

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight flights, stop the pools."""
        self.begin_drain()
        await self.flights.drain()
        await self.batcher.stop()
        if self.capture is not None:
            self.capture.close()
        logger.info(
            "daemon stopped: received=%d executed=%d coalesced=%d "
            "rejected=%d logged=%d",
            self.stats.get("received"), self.stats.get("executed"),
            self.stats.get("coalesced"), self.stats.get("rejected"),
            self.stats.get("logged"),
        )

    # ------------------------------------------------------------ requests

    async def handle_search(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one search request (already-parsed JSON payload).

        Payload fields: ``query`` (required string), ``k``,
        ``diameter`` (ints), ``deadline_ms`` (number; overrides the
        configured default; 0 forces no deadline).

        Raises:
            BadRequestError: on an invalid payload (counted as
                ``rejected``, never ``received``).
        """
        span = self.tracer.start_span("serve.search")
        trace_id = span.trace_id if span is not None else None
        arrival_wall = self.clock.wall()
        accepted_at = self.clock.now()
        try:
            try:
                query, k, diameter, deadline_ms = self._validate(payload)
            except BadRequestError as exc:
                if span is not None:
                    span.set_attribute("rejected", str(exc))
                logger.debug("rejected trace_id=%s: %s", trace_id, exc)
                raise
            if self._draining:
                if span is not None:
                    span.set_attribute("rejected", "draining")
                logger.info(
                    "rejected while draining trace_id=%s query=%r",
                    trace_id, query,
                )
                raise DrainingError(
                    "daemon is draining; not accepting queries"
                )
            if span is not None:
                span.set_attributes({
                    "query": query,
                    "k": k,
                    "diameter": diameter,
                    "deadline_ms": deadline_ms,
                })
            self.stats.inc("received")

            async def fly() -> DeadlineOutcome:
                # The flight span lives on the event loop; the execute
                # span is its child *created on the worker thread* —
                # trace propagation across the batcher boundary is
                # explicit span passing, not ambient context.
                flight_span = (
                    span.child("flight") if span is not None else None
                )

                def execute() -> DeadlineOutcome:
                    exec_span = (
                        flight_span.child("execute")
                        if flight_span is not None else None
                    )
                    try:
                        return run_with_deadline(
                            self.system, query, k=k, diameter=diameter,
                            deadline_ms=deadline_ms,
                            heartbeat=self.params.heartbeat,
                            span=exec_span,
                            clock=self.clock,
                        )
                    finally:
                        if exec_span is not None:
                            exec_span.finish()

                self.stats.flight_started()
                try:
                    return await self.batcher.submit(execute)
                finally:
                    self.stats.flight_finished()
                    if flight_span is not None:
                        flight_span.finish()

            if self.params.dedup:
                # Identical query + identical SLA = one execution; the
                # deadline is part of the key so a tight-budget request
                # never inherits (or donates) a different budget's
                # flight.
                key = (
                    self.system.answer_key(query, k=k, diameter=diameter),
                    deadline_ms,
                )
                outcome, coalesced = await self.flights.run(key, fly)
            else:
                outcome, coalesced = await fly(), False

            if coalesced:
                self.stats.inc("coalesced")
            else:
                self.stats.inc("executed")
                # Execution-scoped outcomes are counted once per flight,
                # not once per waiter.
                if outcome.served_from_cache:
                    self.stats.inc("cache_served")
                if outcome.deadline_hit:
                    self.stats.inc("deadline_expired")
            if span is not None:
                span.set_attributes({
                    "coalesced": coalesced,
                    "served_from_cache": outcome.served_from_cache,
                    "deadline_hit": outcome.deadline_hit,
                })
            latency_ms = (self.clock.now() - accepted_at) * 1000.0
            self._observe_outcome(outcome, coalesced, latency_ms)
            if self.capture is not None:
                self._capture(
                    arrival_wall, query, k, diameter, deadline_ms,
                    outcome, coalesced, latency_ms, trace_id,
                )
            return self._response(query, outcome, coalesced, trace_id)
        finally:
            if span is not None:
                span.finish()

    def stats_payload(self) -> Dict[str, Any]:
        """The ``/stats`` document."""
        payload = self.stats.as_dict()
        payload["draining"] = self._draining
        payload["answer_cache"] = self.system.answer_cache.stats().as_dict()
        payload["tracer"] = self.tracer.counters()
        if self.params.plan:
            payload["plan"] = {
                "path": self.params.plan,
                "diameter": self.system.search_params.diameter,
                "answer_cache_size": (
                    self.system.answer_cache.stats().maxsize
                ),
            }
        if self.capture is not None:
            payload["capture"] = {
                "path": self.capture.path,
                "records_written": self.capture.records_written,
                "rotations": self.capture.rotations,
            }
        return payload

    def health_payload(self) -> Dict[str, Any]:
        """The ``/health`` document."""
        return {
            "status": "draining" if self._draining else "ok",
            "graph_version": self.system.graph.version,
            "nodes": self.system.graph.node_count,
            "edges": self.system.graph.edge_count,
            "index": type(self.system.graph_index).__name__
            if self.system.graph_index is not None else None,
        }

    def metrics_text(self) -> Optional[str]:
        """The Prometheus exposition, or None when metrics are off."""
        if self.registry is None:
            return None
        return self.registry.render()

    def slow_queries_payload(self) -> Dict[str, Any]:
        """The ``/slow`` document: recent slow-query span trees."""
        return {
            "slow_query_ms": self.params.slow_query_ms,
            "slow_queries": self.tracer.slow_queries(),
        }

    # --------------------------------------------------------------- obs

    def _register_metrics(self) -> None:
        """Build the daemon's metric catalog (``docs/OBSERVABILITY.md``).

        Serving/cache/tracer counters are *function-backed* — read from
        their one source of truth at scrape time, never double-counted.
        Only the distributions (histograms) and the per-phase totals
        are pushed by the request path.
        """
        reg = self.registry
        assert reg is not None
        stats = self.stats
        for name in COUNTER_FIELDS:
            reg.counter(
                f"cirank_{name}_total",
                f"Serving counter '{name}' (see repro.serving.stats).",
                fn=(lambda n=name: stats.get(n)),
            )
        reg.gauge(
            "cirank_in_flight",
            "Flights currently executing.",
            fn=lambda: stats.as_dict()["in_flight"],
        )
        reg.gauge(
            "cirank_peak_in_flight",
            "High-water mark of concurrently executing flights.",
            fn=lambda: stats.as_dict()["peak_in_flight"],
        )
        cache = self.system.answer_cache
        for name in ("hits", "misses", "invalidations", "evictions"):
            reg.counter(
                f"cirank_answer_cache_{name}_total",
                f"Answer cache '{name}' counter.",
                fn=(lambda n=name: getattr(cache.stats(), n)),
            )
        reg.gauge(
            "cirank_answer_cache_size",
            "Entries currently in the answer cache.",
            fn=lambda: cache.stats().size,
        )
        reg.gauge(
            "cirank_answer_cache_hit_ratio",
            "Fraction of answer-cache lookups served from cache.",
            fn=lambda: cache.stats().hit_rate,
        )
        tracer = self.tracer
        reg.counter(
            "cirank_traces_total",
            "Root spans started (sampled requests).",
            fn=lambda: tracer.counters()["spans_started"],
        )
        reg.counter(
            "cirank_slow_queries_total",
            "Requests over the slow-query threshold.",
            fn=lambda: tracer.counters()["slow_queries"],
        )
        params = self.params
        reg.gauge(
            "cirank_plan_applied",
            "1 when this deployment adopted a planner report at "
            "startup (cirank serve --plan), else 0.",
            fn=lambda: 1.0 if params.plan else 0.0,
        )
        graph = self.system.graph
        reg.gauge(
            "cirank_graph_nodes", "Data-graph node count.",
            fn=lambda: graph.node_count,
        )
        reg.gauge(
            "cirank_graph_edges", "Data-graph edge count.",
            fn=lambda: graph.edge_count,
        )
        self._latency_hist = reg.histogram(
            "cirank_request_latency_ms",
            "Served request latency (accept to response shaping).",
        )
        self._gap_hist = reg.histogram(
            "cirank_gap_at_deadline",
            "Anytime gap certificate of deadline-hit executions.",
            buckets=_GAP_BUCKETS,
        )
        self._batch_hist = reg.histogram(
            "cirank_batch_size",
            "Queries per batch dispatched to the worker pool.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._arena_hist = reg.histogram(
            "cirank_arena_peak_bytes",
            "Arena storage high-water mark per execution.",
            buckets=_ARENA_BUCKETS,
        )
        self._phase_seconds = reg.counter(
            "cirank_search_phase_seconds_total",
            "Cumulative seconds per search phase across executions.",
            labelnames=("phase",),
        )

    def _observe_batch(self, size: int) -> None:
        """Batcher hook: record one dispatched batch's size."""
        if self.registry is not None:
            self._batch_hist.observe(size)

    def _observe_outcome(
        self,
        outcome: DeadlineOutcome,
        coalesced: bool,
        latency_ms: float,
    ) -> None:
        """Record one served request in the histograms and phase totals."""
        if self.registry is None:
            return
        self._latency_hist.observe(latency_ms)
        if coalesced:
            return
        # Execution-scoped measurements: once per flight, like the
        # execution counters.
        if outcome.deadline_hit and outcome.gap is not None:
            self._gap_hist.observe(outcome.gap)
        stats = outcome.stats
        if stats is None:
            return
        for phase, field in _PHASE_FIELDS:
            seconds = getattr(stats, field)
            if seconds > 0:
                self._phase_seconds.labels(phase).inc(seconds)
        if stats.arena_peak_bytes > 0:
            self._arena_hist.observe(stats.arena_peak_bytes)

    def _capture(
        self,
        arrival_wall: float,
        query: str,
        k: Optional[int],
        diameter: Optional[int],
        deadline_ms: float,
        outcome: DeadlineOutcome,
        coalesced: bool,
        latency_ms: float,
        trace_id: Optional[str],
    ) -> None:
        """Append one workload record (``logged`` tracks ``received``)."""
        assert self.capture is not None
        if coalesced:
            origin = "coalesced"
        elif outcome.served_from_cache:
            origin = "cache"
        else:
            origin = "search"
        self.capture.write(capture_record(
            ts=arrival_wall,
            query=query,
            k=k if k is not None else self.system.search_params.k,
            diameter=diameter,
            deadline_ms=deadline_ms,
            fingerprint=self._params_fingerprint(k, diameter, deadline_ms),
            origin=origin,
            latency_ms=latency_ms,
            gap=outcome.gap,
            proven=outcome.proven,
            deadline_hit=outcome.deadline_hit,
            trace_id=trace_id,
        ))
        self.stats.inc("logged")

    def _params_fingerprint(
        self,
        k: Optional[int],
        diameter: Optional[int],
        deadline_ms: float,
    ) -> str:
        """Stable request-parameter identity for workload aggregation."""
        return (
            f"k={k if k is not None else self.system.search_params.k}"
            f",d={diameter if diameter is not None else ''}"
            f",dl={deadline_ms:g}"
        )

    # ------------------------------------------------------------ internal

    def _validate(self, payload):
        _require(isinstance(payload, dict), "request body must be an object")
        query = payload.get("query")
        _require(
            isinstance(query, str) and query.strip() != "",
            "'query' must be a non-empty string",
        )
        k = payload.get("k")
        _require(
            k is None or (isinstance(k, int) and not isinstance(k, bool)
                          and k >= 1),
            "'k' must be an integer >= 1",
        )
        diameter = payload.get("diameter")
        _require(
            diameter is None
            or (isinstance(diameter, int) and not isinstance(diameter, bool)
                and diameter >= 0),
            "'diameter' must be an integer >= 0",
        )
        deadline_ms = payload.get("deadline_ms")
        _require(
            deadline_ms is None
            or (isinstance(deadline_ms, (int, float))
                and not isinstance(deadline_ms, bool) and deadline_ms >= 0),
            "'deadline_ms' must be a number >= 0",
        )
        if deadline_ms is None:
            deadline_ms = self.params.deadline_ms
        unknown = set(payload) - {"query", "k", "diameter", "deadline_ms"}
        _require(not unknown, f"unknown fields: {sorted(unknown)}")
        return query, k, diameter, float(deadline_ms)

    def _response(
        self,
        query: str,
        outcome: DeadlineOutcome,
        coalesced: bool,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        return {
            "query": query,
            "answers": [self._answer(a) for a in outcome.answers],
            "proven": outcome.proven,
            "gap": outcome.gap,
            "deadline_hit": outcome.deadline_hit,
            "served_from_cache": outcome.served_from_cache,
            "coalesced": coalesced,
            "elapsed_ms": outcome.elapsed_seconds * 1000.0,
            "trace_id": trace_id,
        }

    def _answer(self, answer: RankedAnswer) -> Dict[str, Any]:
        tree = answer.tree
        return {
            "score": answer.score,
            "nodes": sorted(tree.nodes),
            "edges": sorted(tuple(edge) for edge in tree.edges),
            "text": answer.describe(self.system.graph),
        }


class DrainingError(BadRequestError):
    """The daemon is shutting down; mapped to HTTP 503 by the server."""
