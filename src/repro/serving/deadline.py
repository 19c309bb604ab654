"""Deadline-bounded anytime query execution (the worker-thread body).

The branch-and-bound search is naturally *anytime*
(:meth:`repro.search.branch_and_bound.BranchAndBoundSearch.snapshots`):
at every point the kept answers are the best found so far, and the
frontier bound admissibly caps everything undiscovered.
:func:`run_with_deadline` drives
:meth:`repro.system.CIRankSystem.search_anytime` on a worker thread and
stops at the wall-clock deadline, returning the best snapshot seen with
its ``gap`` as the SLA field: no unseen answer can beat the reported
k-th score by more than ``gap``.

Labeling discipline (pinned by ``tests/test_serving_deadline.py``):

* a result is reported ``proven`` **iff** the search terminated through
  the bound test or queue exhaustion (Theorem 1) — deadline expiry can
  only make a result *unproven*, never the reverse, and a proven result
  that lands exactly at the deadline is still proven (never mislabeled
  as approximate);
* ``gap`` is ``0.0`` for proven results, the last snapshot's frontier
  gap for anytime results, and ``None`` when no answer was found yet
  (the frontier cap is then vacuous — ``inf`` has no JSON encoding and
  no information).

Overshoot is bounded by the snapshot cadence: with ``heartbeat`` set,
the search yields every ``heartbeat`` queue pops, so the deadline check
runs at a bounded interval (the loadgen benchmark gates p99 overshoot
in ``BENCH_serving.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..model.answer import RankedAnswer
from ..obs.clock import Clock, get_clock
from ..obs.trace import Span
from ..search.branch_and_bound import SearchStats
from ..system import CIRankSystem

#: Default snapshot cadence for deadline-bounded runs (queue pops).
DEFAULT_HEARTBEAT = 16


class SearchObserver:
    """Mutable per-request stats hook for ``search_anytime``.

    Concurrent serving threads cannot read the system's
    last-writer-wins ``last_search_stats``; the observer receives each
    run's own :class:`SearchStats` instead.
    """

    stats: Optional[SearchStats] = None


@dataclass
class DeadlineOutcome:
    """What one deadline-bounded execution produced.

    Attributes:
        answers: best answers at stop time, best first.
        proven: True when the answers carry the Theorem-1 optimality
            certificate (the search finished before the deadline, or
            the result came from the answer cache).
        gap: SLA field — how far above the k-th answer's score an
            undiscovered answer could still reach (0.0 when proven,
            None when nothing was found before the deadline).
        deadline_hit: True when the deadline cut the search short.
        elapsed_seconds: wall-clock of this execution.
        served_from_cache: answered by the cross-query answer cache.
        stats: the run's :class:`SearchStats` (None only if the
            generator produced nothing, which does not happen).
    """

    answers: List[RankedAnswer]
    proven: bool
    gap: Optional[float]
    deadline_hit: bool
    elapsed_seconds: float
    served_from_cache: bool
    stats: Optional[SearchStats]


def run_with_deadline(
    system: CIRankSystem,
    query_text: str,
    k: Optional[int] = None,
    diameter: Optional[int] = None,
    deadline_ms: float = 0.0,
    heartbeat: int = DEFAULT_HEARTBEAT,
    span: Optional[Span] = None,
    clock: Optional[Clock] = None,
) -> DeadlineOutcome:
    """Search with a wall-clock budget; return the best anytime answer.

    ``deadline_ms <= 0`` runs to proven completion (no budget).  Runs
    synchronously — callers put it on an executor thread.  ``span``, if
    given, is the execution's trace span: the outcome's verdict fields
    land on it and the search opens its own child under it.  The
    deadline is measured on the injectable obs ``clock`` — the same
    timebase traces and benchmarks use.
    """
    observer = SearchObserver()
    budget = deadline_ms / 1000.0 if deadline_ms > 0 else None
    clk = clock if clock is not None else get_clock()
    start = clk.now()
    generator = system.search_anytime(
        query_text, k=k, diameter=diameter,
        heartbeat=heartbeat if budget is not None else 0,
        observer=observer, span=span,
    )
    last = None
    deadline_hit = False
    try:
        for snapshot in generator:
            last = snapshot
            if snapshot.proven_optimal:
                # Proven beats the deadline check on purpose: a result
                # that finished at (or just past) the budget still
                # carries its certificate.
                break
            if budget is not None and clk.now() - start >= budget:
                deadline_hit = True
                break
    finally:
        generator.close()
    elapsed = clk.now() - start
    assert last is not None, "search_anytime always yields a final snapshot"
    if last.proven_optimal:
        gap: Optional[float] = 0.0
    elif last.answers:
        gap = last.gap
    else:
        gap = None
    stats = observer.stats
    if span is not None:
        span.set_attributes({
            "deadline_ms": deadline_ms,
            "heartbeat": heartbeat,
            "deadline_hit": deadline_hit,
            "proven": last.proven_optimal,
            "gap": gap,
            "answers": len(last.answers),
        })
    return DeadlineOutcome(
        answers=list(last.answers),
        proven=last.proven_optimal,
        gap=gap,
        deadline_hit=deadline_hit,
        elapsed_seconds=elapsed,
        served_from_cache=bool(stats.served_from_cache) if stats else False,
        stats=stats,
    )
