"""A versioned cross-query answer cache for proven-optimal top-k results.

Serving workloads repeat queries: the same keyword sets arrive again and
again while the underlying graph changes rarely.  Once Algorithm 1 has
*proven* a top-k optimal (Theorem 1 — the search terminated through the
bound test or queue exhaustion), that result stays correct until either
the graph mutates (nodes/edges/weights change node reachability and
importance) or the ranking itself changes (feedback re-weights the
random walk).  This module caches such proven results across queries in
a bounded LRU (:class:`repro.utils.lru.LRUCache`) so repeated queries
skip the branch-and-bound loop entirely.

Versioning works exactly like the index staleness checks
(:mod:`repro.indexing`): entries are stored under a *structural* key —
``(normalized query, k, SearchParams, index fingerprint)`` — and carry
the ``(graph version, ranking epoch)`` they were proven against.  A
lookup whose stored versions no longer match the live system counts as
an **invalidation** (not a plain miss) and drops the entry, so stale
answers can never be served and the ``--stats`` counters distinguish
"never seen" from "seen but outdated".

Only *proven* results are cacheable; anytime/aborted searches
(``max_candidates`` hit) are not, because their answers carry no
optimality certificate.  Proven empty results are cached too — "no
answer exists" is just as expensive to re-derive.

The cache is **thread-safe**: the serving front end
(:mod:`repro.serving`) probes and populates it from a pool of executor
threads, and the underlying ``OrderedDict`` recency moves and evictions
are not atomic, so every public method takes one internal lock.  The
critical sections are dict operations only (never a search), so
contention is negligible next to a cache miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..model.answer import RankedAnswer
from ..utils.lru import LRUCache


@dataclass(frozen=True)
class AnswerCacheStats:
    """A point-in-time snapshot of the answer cache's counters.

    Attributes:
        hits: lookups served from cache (fresh entry, versions matched).
        misses: lookups for keys never stored (or evicted).
        invalidations: lookups that found an entry proven against an
            older graph version or ranking epoch; the entry is dropped
            and the search re-runs.
        evictions: entries dropped to respect ``maxsize``.
        size: current entry count.
        maxsize: configured capacity (0 = disabled).
    """

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses + self.invalidations
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by ``--stats`` output)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class AnswerCache:
    """Bounded LRU over proven top-k results with version guards.

    Args:
        maxsize: capacity; ``0`` (or negative) disables the cache —
            every lookup is a counted miss and stores are no-ops, so
            callers keep one code path.
    """

    __slots__ = ("_lru", "invalidations", "_lock")

    def __init__(self, maxsize: int) -> None:
        self._lru = LRUCache(maxsize)
        self.invalidations = 0
        # Serving hammers lookup/store from executor threads; the LRU's
        # OrderedDict mutations (move_to_end, popitem) must not
        # interleave.
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._lru.maxsize > 0

    def lookup(
        self,
        key: Hashable,
        graph_version: int,
        epoch: int,
    ) -> Optional[List[RankedAnswer]]:
        """Return the cached answers for ``key`` if still fresh.

        A stored entry proven against a different ``(graph_version,
        epoch)`` is dropped and counted as an invalidation; the caller
        re-runs the search (and typically re-stores the fresh result).
        """
        with self._lock:
            entry = self._lru.peek(key)
            if entry is None:
                self._lru.misses += 1
                return None
            stored_version, stored_epoch, answers = entry
            if stored_version != graph_version or stored_epoch != epoch:
                # The graph or the ranking moved on since this result
                # was proven; the optimality certificate no longer
                # applies.
                self.invalidations += 1
                self._lru.pop(key)
                return None
            self._lru.get(key)  # refresh recency and count the hit
            return list(answers)

    def store(
        self,
        key: Hashable,
        graph_version: int,
        epoch: int,
        answers: List[RankedAnswer],
    ) -> None:
        """Record a *proven-optimal* result for ``key``.

        The caller is responsible for only passing results carrying an
        optimality certificate (``proven_optimal`` final snapshots).
        """
        with self._lock:
            self._lru.put(key, (graph_version, epoch, tuple(answers)))

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._lru.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def stats(self) -> AnswerCacheStats:
        """Snapshot the counters (one consistent view)."""
        with self._lock:
            inner = self._lru.stats()
            invalidations = self.invalidations
        return AnswerCacheStats(
            hits=inner.hits,
            misses=inner.misses,
            invalidations=invalidations,
            evictions=inner.evictions,
            size=inner.size,
            maxsize=inner.maxsize,
        )


def answer_cache_key(
    query_tokens: Tuple[str, ...],
    params: Any,
    index_fingerprint: Optional[Tuple],
) -> Tuple:
    """Build the structural cache key for one search invocation.

    Args:
        query_tokens: the *analyzed* query keywords, in analyzer order —
            two raw strings that normalize identically share an entry.
        params: the resolved :class:`~repro.config.SearchParams`
            (hashable frozen dataclass; includes k, diameter, merge
            mode, the candidate cap and semantics).
        index_fingerprint: a structural identifier of the attached graph
            index (or None when searching unindexed) — results proven
            with different pruning indexes are kept apart even though
            they agree, so enabling an index can never serve a result
            whose provenance is ambiguous.
    """
    return (query_tokens, params, index_fingerprint)
