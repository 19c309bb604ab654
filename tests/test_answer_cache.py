"""Tests for the versioned cross-query answer cache.

Unit-level coverage of :class:`repro.storage.AnswerCache` (store/lookup,
version and epoch invalidation accounting, LRU eviction, the disabled
configuration) plus system-level behavior through
:class:`repro.system.CIRankSystem`: warm hits serve the proven result
without re-searching, graph mutation and feedback re-ranks invalidate,
and the CLI renders the cache counters under ``--stats``.
"""

from __future__ import annotations

import pytest

from repro import (
    CIRankSystem,
    FeedbackModel,
    ImdbConfig,
    generate_imdb,
)
from repro.cli import main
from repro.model.answer import RankedAnswer
from repro.model.jtt import JoinedTupleTree
from repro.storage import AnswerCache, answer_cache_key


def _answer(node: int, score: float) -> RankedAnswer:
    return RankedAnswer(JoinedTupleTree.single(node), score)


class TestAnswerCacheUnit:
    def test_store_then_lookup_hit(self):
        cache = AnswerCache(maxsize=4)
        answers = [_answer(0, 0.5), _answer(1, 0.25)]
        cache.store("key", 3, 0, answers)
        got = cache.lookup("key", 3, 0)
        assert got == answers
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (1, 0, 0)
        assert stats.hit_rate == 1.0

    def test_lookup_returns_a_copy(self):
        cache = AnswerCache(maxsize=4)
        cache.store("key", 1, 0, [_answer(0, 0.5)])
        got = cache.lookup("key", 1, 0)
        got.append(_answer(1, 0.1))
        assert len(cache.lookup("key", 1, 0)) == 1

    def test_absent_key_is_a_miss(self):
        cache = AnswerCache(maxsize=4)
        assert cache.lookup("nope", 0, 0) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 1, 0)

    def test_graph_version_mismatch_invalidates(self):
        cache = AnswerCache(maxsize=4)
        cache.store("key", 1, 0, [_answer(0, 0.5)])
        assert cache.lookup("key", 2, 0) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 1)
        # the stale entry is gone: the next lookup is a plain miss
        assert cache.lookup("key", 2, 0) is None
        assert cache.stats().misses == 1

    def test_epoch_mismatch_invalidates(self):
        cache = AnswerCache(maxsize=4)
        cache.store("key", 1, 0, [_answer(0, 0.5)])
        assert cache.lookup("key", 1, 1) is None
        assert cache.stats().invalidations == 1

    def test_eviction_respects_maxsize_and_recency(self):
        cache = AnswerCache(maxsize=2)
        cache.store("a", 0, 0, [])
        cache.store("b", 0, 0, [])
        cache.lookup("a", 0, 0)  # refresh "a"
        cache.store("c", 0, 0, [])  # evicts "b", the least recent
        assert cache.lookup("b", 0, 0) is None
        assert cache.lookup("a", 0, 0) is not None
        assert cache.lookup("c", 0, 0) is not None
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == stats.maxsize == 2

    def test_disabled_cache_never_stores(self):
        cache = AnswerCache(maxsize=0)
        assert not cache.enabled
        cache.store("key", 0, 0, [_answer(0, 0.5)])
        assert cache.lookup("key", 0, 0) is None
        assert len(cache) == 0

    def test_clear_drops_entries_keeps_counters(self):
        cache = AnswerCache(maxsize=4)
        cache.store("key", 0, 0, [])
        cache.lookup("key", 0, 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_cache_key_separates_params_and_index(self):
        from repro import SearchParams

        base = answer_cache_key(("a", "b"), SearchParams(k=3), None)
        assert base == answer_cache_key(("a", "b"), SearchParams(k=3), None)
        assert base != answer_cache_key(("b", "a"), SearchParams(k=3), None)
        assert base != answer_cache_key(("a", "b"), SearchParams(k=5), None)
        assert base != answer_cache_key(
            ("a", "b"), SearchParams(k=3), ("StarIndex", 3)
        )


@pytest.fixture()
def small_system() -> CIRankSystem:
    """A fresh (function-scoped) system safe to mutate."""
    db = generate_imdb(ImdbConfig(
        movies=20, actors=20, actresses=10, directors=6, producers=4,
        companies=4, seed=11,
    ))
    return CIRankSystem.from_database(db)


def _some_query(system: CIRankSystem) -> str:
    return next(
        t for t in system.index.vocabulary()
        if len(system.index.matching_nodes(t)) >= 1
    )


class TestSystemIntegration:
    def test_repeated_query_served_from_cache(self, small_system):
        system = small_system
        query = _some_query(system)
        cold = system.search(query)
        assert not system.last_search_stats.served_from_cache
        warm = system.search(query)
        assert system.last_search_stats.served_from_cache
        assert system.last_search_stats.answers_found == len(warm)
        assert [(a.tree, a.score) for a in warm] == [
            (a.tree, a.score) for a in cold
        ]
        stats = system.answer_cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_k_change_is_a_different_entry(self, small_system):
        system = small_system
        query = _some_query(system)
        system.search(query, k=2)
        system.search(query, k=3)
        assert not system.last_search_stats.served_from_cache
        assert system.answer_cache.stats().misses == 2

    def test_graph_mutation_invalidates(self, small_system):
        system = small_system
        query = _some_query(system)
        system.search(query)
        nodes = list(system.graph.nodes())
        system.graph.add_edge(nodes[0], nodes[-1], 0.5)
        system.search(query)
        stats = system.answer_cache.stats()
        assert stats.invalidations == 1
        assert not system.last_search_stats.served_from_cache

    def test_feedback_rerank_invalidates(self, small_system):
        system = small_system
        query = _some_query(system)
        system.search(query)
        feedback = FeedbackModel(system.graph)
        feedback.record_click(0, weight=10.0)
        system.apply_feedback(feedback)
        system.search(query)
        assert system.answer_cache.stats().invalidations == 1
        # the re-proven result is re-cached under the new epoch
        system.search(query)
        assert system.last_search_stats.served_from_cache

    def test_rerank_mid_search_is_not_cached_as_fresh(
        self, small_system, monkeypatch
    ):
        # A feedback re-rank landing while a search runs must leave the
        # result stored under the epoch it was ranked in, so a lookup
        # under the new epoch misses.
        from repro.search.branch_and_bound import BranchAndBoundSearch

        system = small_system
        query = _some_query(system)
        feedback = FeedbackModel(system.graph)
        feedback.record_click(0, weight=10.0)
        original = BranchAndBoundSearch.snapshots

        def rerank_before_the_proof(search, heartbeat=0):
            for snapshot in original(search, heartbeat):
                if snapshot.proven_optimal:
                    system.apply_feedback(feedback)
                yield snapshot

        monkeypatch.setattr(
            BranchAndBoundSearch, "snapshots", rerank_before_the_proof
        )
        system.search(query)
        monkeypatch.undo()
        system.search(query)
        assert not system.last_search_stats.served_from_cache
        assert system.answer_cache.stats().invalidations == 1

    def test_naive_algorithm_bypasses_cache(self, small_system):
        system = small_system
        query = _some_query(system)
        system.search(query, algorithm="naive")
        stats = system.answer_cache.stats()
        assert stats.hits == stats.misses == 0 and len(system.answer_cache) == 0

    def test_disabled_cache_still_searches(self):
        db = generate_imdb(ImdbConfig(
            movies=12, actors=12, actresses=6, directors=4, producers=3,
            companies=3, seed=11,
        ))
        system = CIRankSystem.from_database(db, answer_cache_size=0)
        query = _some_query(system)
        first = system.search(query)
        second = system.search(query)
        assert not system.last_search_stats.served_from_cache
        assert [(a.tree, a.score) for a in first] == [
            (a.tree, a.score) for a in second
        ]

    def test_unproven_results_are_not_cached(self, small_system):
        import dataclasses

        system = small_system
        query = _some_query(system)
        system.search_params = dataclasses.replace(
            system.search_params, max_candidates=1
        )
        system.search(query)
        assert system.last_search_stats.expanded <= 1
        # aborted searches carry no optimality certificate
        assert len(system.answer_cache) == 0
        system.search(query)
        assert not system.last_search_stats.served_from_cache


class TestCliStats:
    def test_stats_renders_answer_cache_section(self, capsys):
        from repro import DblpConfig, generate_dblp

        system = CIRankSystem.from_database(
            generate_dblp(DblpConfig(seed=3))
        )
        # A 1-match token at k 1: its one answer fills the top-k at
        # once, so Lemma 1 prunes the rest of the search.
        token = next(
            t for t in sorted(system.index.vocabulary())
            if len(system.index.matching_nodes(t)) == 1
        )
        code = main([
            "search", "--dataset", "dblp", "--seed", "3",
            "--query", token, "--k", "1", "--stats",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "answer cache (hits/misses/invalidations/evictions):" in printed
        assert "phase timers:" in printed
        assert "bound evals:" in printed
