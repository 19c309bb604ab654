"""``repro.obs`` — observability for the CI-Rank serving stack.

Four small, independently usable pieces:

* :mod:`~repro.obs.clock` — the injectable monotonic timebase shared
  by traces, deadlines, and benchmarks;
* :mod:`~repro.obs.trace` — trace-id'd span trees with a ring-buffered
  slow-query log;
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms with Prometheus text exposition (``GET /metrics``);
* :mod:`~repro.obs.workload` + :mod:`~repro.obs.replay` — rotating
  JSONL query capture, the deduplicating :class:`Workload` aggregator,
  and the Nx-rate replay harness with tie-class parity checks.

See ``docs/OBSERVABILITY.md`` for the span model, the metric catalog,
and the capture → replay workflow.
"""

from .clock import Clock, ManualClock, SystemClock, get_clock, set_clock
from .logconfig import configure_logging, parse_level
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .replay import (
    ReplayReport,
    ReplayResult,
    replay,
    tie_classes_direct,
    tie_classes_wire,
    verify_parity,
)
from .trace import NullTracer, Span, Tracer
from .workload import (
    QueryLogWriter,
    Workload,
    WorkloadEntry,
    capture_record,
    read_query_log,
)

__all__ = [
    "Clock",
    "ManualClock",
    "SystemClock",
    "get_clock",
    "set_clock",
    "configure_logging",
    "parse_level",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReplayReport",
    "ReplayResult",
    "replay",
    "tie_classes_direct",
    "tie_classes_wire",
    "verify_parity",
    "NullTracer",
    "Span",
    "Tracer",
    "QueryLogWriter",
    "Workload",
    "WorkloadEntry",
    "capture_record",
    "read_query_log",
]
