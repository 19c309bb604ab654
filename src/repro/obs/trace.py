"""Query tracing: trace-id'd span trees with a slow-query ring buffer.

A request entering the daemon opens a **root span**; each layer it
crosses (single-flight, worker pool, deadline loop, the search itself)
opens a **child span** under whatever span it was handed.  Spans carry
attributes — the resolved deadline, the coalesced/cache-served verdict,
every ``SearchStats`` phase timer — so one slow-query dump answers
"where did the time go" without re-running anything.

Design constraints, in order:

1. **Cheap when off.**  ``Tracer.start_span`` returns ``None`` when the
   request is not sampled (or tracing is disabled), and every call site
   guards with ``if span is not None`` — the disabled path is one
   comparison, no allocation.  The serving benchmarks gate the enabled
   path too (p50 regression < 5%, ``benchmarks/test_serving.py``).
2. **Explicit propagation.**  There is no thread-local "current span":
   the serving stack hops from the event loop to a worker thread, and
   the tracer does not count on ambient context surviving the hop
   (the daemon does copy the caller's ``contextvars`` across it, as
   ``asyncio.to_thread`` does, for wrappers outside this module).  The
   daemon passes the span into the closures it builds; a child created
   on a worker thread appends to its parent's ``children`` list, which
   is a single ``list.append`` (atomic under the GIL — the only
   concurrent mutation pattern we use).
3. **Bounded memory.**  Finished traces are dropped unless slow; slow
   ones are serialized into a ``deque(maxlen=ring_size)``, so the
   slow-query log can run for weeks without growing.

Timestamps come from the injectable :mod:`repro.obs.clock` — monotonic
for durations, wall for the ``start_wall`` field that makes a dumped
trace correlatable with the workload capture log.
"""

from __future__ import annotations

import logging
import os
import random
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from .clock import Clock, get_clock

logger = logging.getLogger(__name__)


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class Span:
    """One timed operation in a trace tree.

    Spans are created through :meth:`Tracer.start_span` (roots) or
    :meth:`Span.child` and closed with :meth:`finish`; ``finish`` on a
    root hands the whole tree to the tracer for slow-query triage.
    Attribute values must be JSON-able (the slow log serializes them).
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "start_wall",
        "end",
        "attributes",
        "children",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_id(8)
        self.parent_id = parent_id
        self.name = name
        self.start = tracer.clock.now()
        self.start_wall = tracer.clock.wall()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []

    def child(self, name: str) -> "Span":
        """Open a child span; safe to call from a different thread."""
        span = Span(self.tracer, name, self.trace_id, self.span_id)
        self.children.append(span)
        return span

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, values: Dict[str, Any]) -> None:
        self.attributes.update(values)

    def finish(self) -> None:
        """Close the span (idempotent); roots report to the tracer."""
        if self.end is not None:
            return
        self.end = self.tracer.clock.now()
        self.tracer._finished(self)

    @property
    def duration_seconds(self) -> float:
        end = self.end if self.end is not None else self.tracer.clock.now()
        return end - self.start

    def as_dict(self) -> Dict[str, Any]:
        """The nested JSON-able tree rooted at this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_wall": self.start_wall,
            "duration_ms": self.duration_seconds * 1000.0,
            "attributes": dict(self.attributes),
            "children": [c.as_dict() for c in self.children],
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()


class Tracer:
    """Allocates trace ids, samples, and keeps the slow-query ring.

    ``sample`` is the fraction of roots that get traced (1.0 = all);
    an unsampled request costs one RNG draw and nothing else.  A root
    whose duration reaches ``slow_ms`` has its full tree serialized
    into the ring and logged at WARNING with its trace id — the id is
    also in the client response, so a slow client report can be joined
    to the dump directly.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        slow_ms: float = 500.0,
        ring_size: int = 64,
        sample: float = 1.0,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if ring_size < 0:
            raise ValueError(f"ring_size must be >= 0, got {ring_size}")
        self.clock = clock if clock is not None else get_clock()
        self.slow_ms = float(slow_ms)
        self.sample = float(sample)
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._slow: deque = deque(maxlen=ring_size if ring_size else 1)
        self._ring_enabled = ring_size > 0
        self.spans_started = 0
        self.spans_finished = 0
        self.slow_count = 0

    def start_span(self, name: str) -> Optional[Span]:
        """Open a root span, or ``None`` when the request is unsampled."""
        if self.sample <= 0.0:
            return None
        if self.sample < 1.0 and self._rng.random() >= self.sample:
            return None
        with self._lock:
            self.spans_started += 1
        return Span(self, name, _new_id(16))

    def _finished(self, span: Span) -> None:
        if span.parent_id is not None:
            return
        duration_ms = span.duration_seconds * 1000.0
        with self._lock:
            self.spans_finished += 1
            if duration_ms >= self.slow_ms:
                self.slow_count += 1
                if self._ring_enabled:
                    self._slow.append(span.as_dict())
                slow = True
            else:
                slow = False
        if slow:
            logger.warning(
                "slow query trace_id=%s name=%s duration_ms=%.1f",
                span.trace_id,
                span.name,
                duration_ms,
            )

    def slow_queries(self) -> List[Dict[str, Any]]:
        """Serialized span trees of recent slow queries, oldest first."""
        with self._lock:
            return list(self._slow)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "spans_started": self.spans_started,
                "spans_finished": self.spans_finished,
                "slow_queries": self.slow_count,
            }


class NullTracer(Tracer):
    """A tracer that never samples — the ``trace=False`` fast path."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        super().__init__(clock=clock, sample=0.0, ring_size=0)

    def start_span(self, name: str) -> Optional[Span]:
        return None
