"""Serving-side counters (the ``/stats`` endpoint's payload).

One :class:`ServingStats` block per daemon, mutated from the event loop
*and* from executor threads, so every update goes through one lock.  The
counters are chosen so consumers can audit the front end's bookkeeping
with closed-form invariants (checked by ``tests/test_serving_server.py``):

* ``received == executed + coalesced`` — every accepted search request
  either led a flight or joined one;
* ``logged == received`` when workload capture is enabled — every
  accepted request produced exactly one capture record (coalesced
  waiters included); ``logged`` stays 0 with capture off;
* ``cache_served <= executed`` — cache service is a property of an
  execution, counted once per flight, not per waiter;
* ``in_flight == 0`` at rest.

``rejected`` (malformed/oversized/draining requests) is deliberately
*outside* ``received``: a request that never reached the search path
does not participate in the dedup arithmetic.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

#: The monotonically-increasing counters, in display order.
COUNTER_FIELDS = (
    "received",
    "executed",
    "coalesced",
    "cache_served",
    "deadline_expired",
    "rejected",
    "errors",
    "logged",
)


class ServingStats:
    """Thread-safe counter block of the serving front end.

    Counters (see the module docstring for the invariants):

    * ``received`` — well-formed search requests accepted for execution.
    * ``executed`` — searches actually run (flight leaders), including
      those answered by the cross-query answer cache.
    * ``coalesced`` — requests that joined an identical in-flight query
      (single-flight dedup) instead of executing.
    * ``cache_served`` — executions answered by the answer cache without
      running branch-and-bound.
    * ``deadline_expired`` — executions cut short by their deadline
      (anytime answer returned).
    * ``rejected`` — requests refused before the search path (malformed,
      oversized, draining).
    * ``errors`` — requests that failed with an internal error.
    * ``logged`` — capture records written to the workload log (equals
      ``received`` when capture is on, 0 when off).

    Gauges: ``in_flight`` (flights currently executing) and its
    high-water mark ``peak_in_flight``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {f: 0 for f in COUNTER_FIELDS}
        self.in_flight = 0
        self.peak_in_flight = 0

    def inc(self, field: str, amount: int = 1) -> None:
        """Increment one named counter."""
        with self._lock:
            self._counters[field] += amount

    def flight_started(self) -> None:
        """A flight entered execution (in-flight gauge up)."""
        with self._lock:
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def flight_finished(self) -> None:
        """A flight left execution (in-flight gauge down)."""
        with self._lock:
            self.in_flight -= 1

    def get(self, field: str) -> int:
        """Read one counter."""
        with self._lock:
            return self._counters[field]

    def as_dict(self) -> Dict[str, Any]:
        """One consistent snapshot of every counter and gauge."""
        with self._lock:
            payload: Dict[str, Any] = dict(self._counters)
            payload["in_flight"] = self.in_flight
            payload["peak_in_flight"] = self.peak_in_flight
        return payload
