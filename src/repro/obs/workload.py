"""Workload capture: a rotating JSONL query log and its aggregator.

The daemon appends one JSON line per *accepted* request — coalesced
waiters included, so the capture satisfies the audit invariant
``logged == received`` (rejected requests never reach the log, exactly
as they never reach the serving pipeline).  Each record carries what a
replay or a planner needs:

``ts``           wall-clock arrival (epoch seconds)
``query``        the raw query text
``k/diameter/deadline_ms``  the request's resolved parameters
``fingerprint``  the params fingerprint (dedup key component)
``origin``       how it was served: ``cache`` / ``coalesced`` / ``search``
``latency_ms``   served latency
``gap``          the anytime gap certificate (0.0 when proven)
``proven``/``deadline_hit``/``trace_id``  triage fields

:class:`QueryLogWriter` rotates at ``max_bytes`` (``log`` →
``log.1`` → … → ``log.N``, oldest dropped) so capture can run
indefinitely; :func:`read_query_log` reads the backups oldest-first so
records come back in arrival order.  Logs written while requests could
still choose a search engine carry an ``engine`` key (and an ``e=`` part
in the fingerprint); it is ignored.

:class:`Workload` turns a capture into a replayable description: it
dedups records on (query text, params fingerprint) into
**arrival-count** entries over the observed period, following the
workload-forecasting shape where a logged workload is a bag of
(query, count) pairs linearly rescalable to any target period —
``rescale`` multiplies counts by ``target/observed`` with a floor of
one arrival per observed query, so scaling down never silently drops a
query class.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)


class QueryLogWriter:
    """Append-only rotating JSONL writer (thread-safe).

    Rotation happens *before* a write that would push the active file
    past ``max_bytes``: ``path`` shifts to ``path.1``, existing
    ``path.i`` to ``path.(i+1)``, and ``path.(backups)`` is dropped.
    With ``backups=0`` the active file is simply truncated.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 16 << 20,
        backups: int = 3,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")
        self.records_written = 0
        self.rotations = 0

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        data = line + "\n"
        with self._lock:
            if self._fh.tell() + len(data) > self.max_bytes:
                self._rotate()
            self._fh.write(data)
            self._fh.flush()
            self.records_written += 1

    def _rotate(self) -> None:
        self._fh.close()
        if self.backups > 0:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
        self.rotations += 1
        logger.info("rotated query log %s (rotation #%d)", self.path, self.rotations)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_query_log(path: str) -> List[Dict[str, Any]]:
    """All records for ``path`` including rotated backups, oldest first.

    Backups are read highest-numbered first (``.N`` holds the oldest
    records), then the active file; malformed lines (a crash mid-write)
    are skipped with a warning rather than poisoning the whole capture.
    """
    files: List[str] = []
    suffix = 1
    while os.path.exists(f"{path}.{suffix}"):
        files.append(f"{path}.{suffix}")
        suffix += 1
    files.reverse()
    if os.path.exists(path):
        files.append(path)
    records: List[Dict[str, Any]] = []
    skipped = 0
    for name in files:
        with open(name, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    skipped += 1
    if skipped:
        logger.warning("skipped %d malformed lines reading %s", skipped, path)
    return records


def _record_key(record: Dict[str, Any]) -> Tuple[str, str]:
    return (str(record.get("query", "")), str(record.get("fingerprint", "")))


@dataclass
class WorkloadEntry:
    """One deduplicated query class with its observed arrival count."""

    query: str
    arrival_count: int
    k: int = 5
    diameter: Optional[int] = None
    deadline_ms: float = 0.0
    fingerprint: str = ""

    def request(self) -> Dict[str, Any]:
        """The replayable request payload for this query class."""
        payload: Dict[str, Any] = {"query": self.query, "k": self.k}
        if self.diameter is not None:
            payload["diameter"] = self.diameter
        if self.deadline_ms:
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass
class Workload:
    """A deduplicated, rescalable description of captured traffic."""

    entries: List[WorkloadEntry] = field(default_factory=list)
    period_seconds: float = 0.0

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "Workload":
        """Aggregate raw capture records into arrival-count entries.

        The observed period is last-arrival minus first-arrival; a
        single-record capture has period 0 and rescaling it treats the
        capture as one instant (counts scale by the requested period
        directly being meaningless, so they are left unchanged).
        """
        counts: Dict[Tuple[str, str], WorkloadEntry] = {}
        first_ts: Optional[float] = None
        last_ts: Optional[float] = None
        for record in records:
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                first_ts = ts if first_ts is None else min(first_ts, ts)
                last_ts = ts if last_ts is None else max(last_ts, ts)
            key = _record_key(record)
            entry = counts.get(key)
            if entry is None:
                diameter = record.get("diameter")
                counts[key] = WorkloadEntry(
                    query=str(record.get("query", "")),
                    arrival_count=1,
                    k=int(record.get("k", 5)),
                    diameter=int(diameter) if diameter is not None else None,
                    deadline_ms=float(record.get("deadline_ms", 0.0) or 0.0),
                    fingerprint=str(record.get("fingerprint", "")),
                )
            else:
                entry.arrival_count += 1
        period = 0.0
        if first_ts is not None and last_ts is not None:
            period = max(0.0, last_ts - first_ts)
        return cls(entries=list(counts.values()), period_seconds=period)

    @property
    def total_arrivals(self) -> int:
        return sum(e.arrival_count for e in self.entries)

    def duplicate_fraction(self) -> float:
        """Fraction of arrivals that repeat an earlier query class."""
        total = self.total_arrivals
        if total == 0:
            return 0.0
        return (total - len(self.entries)) / total

    def rescale(self, period_seconds: float) -> "Workload":
        """A copy scaled linearly to a new period.

        Counts multiply by ``period_seconds / observed_period`` with a
        floor of one arrival per entry — every observed query class
        survives any downscale.  When the requested period is so small
        that *every* class would land on the floor, a naive multiply
        would flatten a 40:20:4 capture into 1:1:1 and silently erase
        the relative arrival rates; the multiplier is clamped instead so
        the smallest class scales to exactly one arrival and the ratio
        ordering survives (40:20:4 → 10:5:1).
        """
        if period_seconds <= 0:
            raise ValueError(
                f"period_seconds must be > 0, got {period_seconds}"
            )
        if self.period_seconds <= 0:
            multiplier = 1.0
        else:
            multiplier = period_seconds / self.period_seconds
            counts = [e.arrival_count for e in self.entries]
            if counts and max(counts) * multiplier < 1.0:
                multiplier = 1.0 / min(counts)
        entries = [
            WorkloadEntry(
                query=e.query,
                arrival_count=max(int(e.arrival_count * multiplier), 1),
                k=e.k,
                diameter=e.diameter,
                deadline_ms=e.deadline_ms,
                fingerprint=e.fingerprint,
            )
            for e in self.entries
        ]
        return Workload(entries=entries, period_seconds=period_seconds)

    def to_mix(self, seed: int = 0) -> List[Dict[str, Any]]:
        """Expand to a shuffled flat request list for the load generator."""
        import random

        mix: List[Dict[str, Any]] = []
        for entry in self.entries:
            mix.extend(entry.request() for _ in range(entry.arrival_count))
        random.Random(seed).shuffle(mix)
        return mix

    def as_dict(self) -> Dict[str, Any]:
        return {
            "period_seconds": self.period_seconds,
            "total_arrivals": self.total_arrivals,
            "unique_queries": len(self.entries),
            "duplicate_fraction": self.duplicate_fraction(),
            "entries": [
                {
                    "query": e.query,
                    "arrival_count": e.arrival_count,
                    "k": e.k,
                    "diameter": e.diameter,
                    "deadline_ms": e.deadline_ms,
                }
                for e in sorted(
                    self.entries,
                    key=lambda e: (-e.arrival_count, e.query),
                )
            ],
        }


def capture_record(
    *,
    ts: float,
    query: str,
    k: int,
    diameter: Optional[int],
    deadline_ms: float,
    fingerprint: str,
    origin: str,
    latency_ms: float,
    gap: Optional[float],
    proven: bool,
    deadline_hit: bool,
    trace_id: Optional[str],
) -> Dict[str, Any]:
    """The canonical capture-record shape (one place, one schema)."""
    return {
        "ts": ts,
        "query": query,
        "k": k,
        "diameter": diameter,
        "deadline_ms": deadline_ms,
        "fingerprint": fingerprint,
        "origin": origin,
        "latency_ms": latency_ms,
        "gap": gap,
        "proven": proven,
        "deadline_hit": deadline_hit,
        "trace_id": trace_id,
    }
