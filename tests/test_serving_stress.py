"""Multi-thread stress: the shared state the serving pool leans on.

The serving front end runs searches on executor threads against one
shared :class:`CIRankSystem`.  These tests pound the pieces that are
shared across threads — the versioned answer cache, the (query, graph
version) match-set memo, and the serving counters — and assert the
invariants that make concurrent serving correct:

* concurrent searches return exactly the single-thread reference
  ranking (tie-class identical), whatever the interleaving;
* answer-cache counters reconcile with the number of lookups issued
  and the cache never exceeds its capacity;
* the match memo computes one object per (query, version) and every
  thread observes that same object;
* :class:`ServingStats` counters are exact under contention and the
  in-flight gauge returns to zero.
"""

from __future__ import annotations

import random
import threading

from repro.serving.stats import COUNTER_FIELDS, ServingStats


def _tie_classes(answers):
    classes = []
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


def _pick_queries(system, count=6):
    """Deterministic matchable queries with varied keyword mixes."""
    tokens = [
        token for token in sorted(system.index.vocabulary())
        if len(system.index.matching_nodes(token)) >= 2
    ]
    assert len(tokens) >= 4, "fixture vocabulary unexpectedly thin"
    queries = []
    for i in range(count):
        a = tokens[i % len(tokens)]
        b = tokens[(i * 3 + 1) % len(tokens)]
        queries.append(a if a == b else f"{a} {b}")
    return queries


def _run_threads(worker, count):
    """Start ``count`` copies of ``worker(i)``; re-raise any failure."""
    errors = []

    def guarded(i):
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentSearch:
    def test_results_match_single_thread_reference(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        queries = _pick_queries(system)
        reference = {
            query: _tie_classes(system.search(query, k=3))
            for query in queries
        }
        observed_lock = threading.Lock()
        mismatches = []

        def worker(i):
            order = list(queries)
            random.Random(i).shuffle(order)
            for _ in range(3):
                for query in order:
                    got = _tie_classes(system.search(query, k=3))
                    if got != reference[query]:
                        with observed_lock:
                            mismatches.append((query, got))

        _run_threads(worker, count=8)
        assert not mismatches, (
            f"{len(mismatches)} divergent rankings under threads; "
            f"first: {mismatches[0][0]!r}"
        )

    def test_answer_cache_counters_reconcile(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        baseline = system.answer_cache.stats()
        queries = _pick_queries(system, count=4)
        threads, rounds = 6, 4

        def worker(i):
            for _ in range(rounds):
                for query in queries:
                    system.search(query, k=3)

        _run_threads(worker, count=threads)
        stats = system.answer_cache.stats()
        lookups = threads * rounds * len(queries)
        hits = stats.hits - baseline.hits
        misses = stats.misses - baseline.misses
        # Every search() with the cache enabled does exactly one
        # lookup; under contention several threads may miss the same
        # key concurrently (and store idempotently), but no lookup may
        # be lost or double-counted.
        assert hits + misses == lookups
        assert misses >= len(queries)
        assert hits > 0, "repeat queries must hit the cache"
        assert len(system.answer_cache) <= len(queries)

    def test_match_memo_is_compute_once(self, tiny_dblp_system):
        system = tiny_dblp_system
        query = _pick_queries(system, count=1)[0]
        key = (query, system.graph.version)
        with system._match_lock:
            system._match_cache.pop(key)
        seen = []
        seen_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()  # maximize the racing window
            for _ in range(50):
                match = system._match_for(query)
                with seen_lock:
                    seen.append(match)

        _run_threads(worker, count=8)
        # One computation, observed by everyone: identity, not just
        # equality (a duplicate insert would hand out two objects).
        assert len({id(match) for match in seen}) == 1


class TestServingStatsUnderContention:
    def test_counters_are_exact(self):
        stats = ServingStats()
        threads, per_thread = 16, 1000

        def worker(i):
            for _ in range(per_thread):
                stats.inc("received")
                stats.inc("executed")

        _run_threads(worker, count=threads)
        assert stats.get("received") == threads * per_thread
        assert stats.get("executed") == threads * per_thread

    def test_in_flight_gauge_balances(self):
        stats = ServingStats()
        threads, per_thread = 12, 400

        def worker(i):
            for _ in range(per_thread):
                stats.flight_started()
                stats.flight_finished()

        _run_threads(worker, count=threads)
        snapshot = stats.as_dict()
        assert snapshot["in_flight"] == 0
        assert 1 <= snapshot["peak_in_flight"] <= threads

    def test_as_dict_covers_every_counter(self):
        snapshot = ServingStats().as_dict()
        for field in COUNTER_FIELDS:
            assert field in snapshot
            assert snapshot[field] == 0
