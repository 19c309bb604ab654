"""Asyncio serving front end for a long-lived CI-Rank deployment.

Layers (each its own module, composable without the ones above it):

* :mod:`~repro.serving.stats` — thread-safe serving counters;
* :mod:`~repro.serving.dedup` — single-flight coalescing of identical
  in-flight queries;
* :mod:`~repro.serving.deadline` — deadline-bounded anytime execution
  returning the best snapshot with its optimality ``gap``;
* :mod:`~repro.serving.daemon` — the request pipeline owning one
  :class:`~repro.system.CIRankSystem` and the worker pool its
  searches run on;
* :mod:`~repro.serving.server` / :mod:`~repro.serving.client` — the
  minimal HTTP/1.1 JSON protocol (stdlib only);
* :mod:`~repro.serving.loadgen` — load generator + in-process server
  harness backing ``BENCH_serving.json``.

Observability (:mod:`repro.obs`) threads through every layer: request
spans with trace ids, the ``/metrics`` registry, and the rotating
workload capture log — see ``docs/OBSERVABILITY.md``.

See ``docs/SERVING.md`` for the architecture narrative and
``cirank serve`` / ``cirank client`` for the CLI entry points.
"""

from .client import ServingClient, ServingRequestFailed
from .daemon import CIRankDaemon, DrainingError
from .deadline import DeadlineOutcome, run_with_deadline
from .dedup import SingleFlight
from .loadgen import (
    InProcessServer,
    LoadgenReport,
    build_mix,
    percentile,
    run_load,
    summarize,
)
from .server import ServingServer, serve
from .stats import ServingStats

__all__ = [
    "CIRankDaemon",
    "DeadlineOutcome",
    "DrainingError",
    "InProcessServer",
    "LoadgenReport",
    "ServingClient",
    "ServingRequestFailed",
    "ServingServer",
    "ServingStats",
    "SingleFlight",
    "build_mix",
    "percentile",
    "run_load",
    "run_with_deadline",
    "serve",
    "summarize",
]
