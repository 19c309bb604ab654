"""The end-to-end CI-Rank system facade.

:class:`CIRankSystem` wires the whole stack together: database -> data
graph (with entity merging) -> inverted index -> importance vector ->
optional star/pairs index -> per-query scorer and branch-and-bound
search.  It is the one-stop entry point the examples and the CLI use::

    from repro import CIRankSystem, generate_imdb

    system = CIRankSystem.from_database(generate_imdb(), merge_tables=(
        "actor", "actress", "director", "producer"))
    for answer in system.search("halloran winmont", k=5):
        print(system.describe(answer))

Concurrency: :meth:`CIRankSystem.search` and
:meth:`CIRankSystem.search_anytime` are safe to call from multiple
threads against an *unchanging* graph — the shared mutable state on the
query path (the match-set memo and the cross-query answer cache) is
lock-guarded, per-query scorer/search state is thread-local, and the
remaining shared memos (dampening rates, compiled CSR) are idempotent
single-writes.  The observability attributes (``last_search_stats``,
``last_cache_stats``) are last-writer-wins; concurrent callers should
read per-request stats through the ``observer`` hook of
:meth:`search_anytime` instead.  Graph *mutations* are not synchronized
with in-flight searches — the serving daemon (:mod:`repro.serving`)
owns that discipline.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from .config import EdgeWeights, RWMPParams, SearchParams
from .db.database import Database
from .exceptions import ReproError
from .graph.builder import GraphBuilder
from .graph.datagraph import DataGraph
from .importance.feedback import FeedbackModel
from .importance.pagerank import ImportanceVector, pagerank
from .indexing.pairs import PairsIndex
from .indexing.star import StarIndex
from .model.answer import RankedAnswer
from .rwmp.dampening import DampeningModel
from .rwmp.scoring import RWMPScorer
from .search.branch_and_bound import (
    AnytimeSnapshot,
    BranchAndBoundSearch,
    SearchStats,
)
from .search.naive import NaiveSearch
from .utils.lru import CacheStats, LRUCache
from .text.inverted_index import InvertedIndex
from .text.matcher import KeywordMatcher, MatchSets

#: Distinct (query, graph version) match sets kept hot per system.
MATCH_CACHE_SIZE = 256


def _finish_search_span(span, stats: "SearchStats", outcome: str) -> None:
    """Attach a run's full ``SearchStats`` to its trace span and close it.

    Every field of the stats dataclass — phase timers included — becomes
    a span attribute, so a slow-query dump answers "where did the time
    go" without a re-run.  No-op when tracing is off (``span is None``).
    """
    if span is None:
        return
    span.set_attribute("outcome", outcome)
    span.set_attributes(dataclasses.asdict(stats))
    span.finish()

#: Default capacity of the cross-query answer cache (proven top-k
#: results reused across repeated searches; 0 disables).
ANSWER_CACHE_SIZE = 256


class CIRankSystem:
    """A ready-to-query CI-Rank deployment over one database graph."""

    def __init__(
        self,
        graph: DataGraph,
        index: InvertedIndex,
        importance: ImportanceVector,
        params: Optional[RWMPParams] = None,
        search_params: Optional[SearchParams] = None,
        answer_cache_size: int = ANSWER_CACHE_SIZE,
    ) -> None:
        self.graph = graph
        self.index = index
        self.importance = importance
        self.params = params or RWMPParams()
        self.search_params = search_params or SearchParams()
        self.dampening = DampeningModel(self.importance, self.params)
        self.matcher = KeywordMatcher(index)
        self.graph_index: Optional[object] = None
        # Match-set lookups repeat verbatim across searches (pagination,
        # stats re-runs, benchmark loops); key on the graph version so a
        # mutation invalidates naturally.  The serving front end calls
        # :meth:`search`/:meth:`search_anytime` from a pool of executor
        # threads, and the LRU's recency moves are not atomic, so the
        # memo is guarded by a lock (the answer cache carries its own).
        self._match_cache = LRUCache(MATCH_CACHE_SIZE)
        self._match_lock = threading.Lock()
        # Cross-query cache of proven-optimal top-k results, versioned
        # by (graph version, ranking epoch) — see
        # repro.storage.answer_cache.  Local import: repro.storage pulls
        # in serialize, which imports this module.
        from .storage.answer_cache import AnswerCache
        self._answer_cache = AnswerCache(answer_cache_size)
        # Bumped whenever the ranking itself changes (feedback re-rank);
        # pairs with graph.version to guard cached answers.
        self._ranking_epoch = 0
        #: Observability of the most recent :meth:`search` call (the
        #: CLI's ``--stats`` flag reads these).
        self.last_search_stats: Optional[SearchStats] = None
        self.last_cache_stats: Optional[Dict[str, CacheStats]] = None
        #: Counters of the most recent index build through
        #: :meth:`attach_index` (None when the index was warm-started).
        self.last_index_build = None
        #: Whether :meth:`attach_index` served the persisted index
        #: instead of rebuilding.
        self.index_warm_started = False

    @property
    def answer_cache(self):
        """The versioned cross-query answer cache (read-mostly accessor)."""
        return self._answer_cache

    # ------------------------------------------------------------ assembly

    @classmethod
    def from_database(
        cls,
        db: Database,
        merge_tables: Iterable[str] = (),
        weights: Optional[EdgeWeights] = None,
        params: Optional[RWMPParams] = None,
        search_params: Optional[SearchParams] = None,
        teleport_vector: Optional[np.ndarray] = None,
        index_kind: Optional[str] = None,
        index_path=None,
        index_workers: int = 1,
        answer_cache_size: int = ANSWER_CACHE_SIZE,
    ) -> "CIRankSystem":
        """Build the full stack from a database.

        Args:
            db: the source database.
            merge_tables: tables subject to entity merging (Section VI-A).
            weights: edge weight table (defaults to Table II).
            params: RWMP parameters.
            search_params: top-k search parameters.
            teleport_vector: optional biased teleport vector (user
                feedback, Section VI-A).
            index_kind: ``"star"`` or ``"pairs"`` to attach a graph
                index immediately (None leaves the system index-free).
            index_path: optional persistence directory for the index;
                a fresh one stored there warm-starts this deployment,
                and a rebuild (stale or absent) is saved back.
            index_workers: process count for index construction.
            answer_cache_size: capacity of the cross-query answer cache
                (0 disables it).
        """
        params = params or RWMPParams()
        graph = GraphBuilder(weights, merge_tables).build(db)
        index = InvertedIndex.build(graph)
        importance = pagerank(
            graph, teleport=params.teleport, teleport_vector=teleport_vector
        )
        system = cls(
            graph, index, importance, params, search_params,
            answer_cache_size=answer_cache_size,
        )
        if index_kind is not None:
            system.attach_index(
                index_kind, path=index_path, workers=index_workers
            )
        elif index_path is not None:
            raise ReproError(
                "index_path given without index_kind; pass "
                "index_kind='star' or 'pairs'"
            )
        return system

    @classmethod
    def from_csv_directory(
        cls,
        schema,
        directory,
        merge_tables: Iterable[str] = (),
        weights: Optional[EdgeWeights] = None,
        params: Optional[RWMPParams] = None,
        search_params: Optional[SearchParams] = None,
    ) -> "CIRankSystem":
        """Build the full stack from a CSV dump directory.

        See :func:`repro.db.load_csv_directory` for the expected layout
        (one ``<table>.csv`` per table plus an optional ``links.csv``).
        """
        from .db.csv_loader import load_csv_directory
        db = load_csv_directory(schema, directory)
        return cls.from_database(
            db, merge_tables=merge_tables, weights=weights,
            params=params, search_params=search_params,
        )

    def build_star_index(self, **kwargs) -> StarIndex:
        """Attach a star index (Section V-B) used by subsequent searches."""
        self.graph_index = StarIndex(self.graph, self.dampening, **kwargs)
        self.last_index_build = self.graph_index.build_stats
        self.index_warm_started = False
        return self.graph_index

    def build_pairs_index(self, **kwargs) -> PairsIndex:
        """Attach the naive all-pairs index (Section V-A)."""
        self.graph_index = PairsIndex(self.graph, self.dampening, **kwargs)
        self.last_index_build = self.graph_index.build_stats
        self.index_warm_started = False
        return self.graph_index

    def attach_index(self, kind: str, path=None, workers: int = 1, **kwargs):
        """Attach a graph index, warm-starting from ``path`` when possible.

        With ``path`` set, a fresh persisted index there is loaded
        instead of rebuilt (:attr:`index_warm_started` reports which
        happened); a stale or absent one triggers a kernel build whose
        result is saved back, so the *next* start is warm.  Without
        ``path`` this is a plain build.

        Args:
            kind: ``"star"`` or ``"pairs"``.
            path: optional index directory (see
                :mod:`repro.storage.index_store`).
            workers: process count for the kernel builder.
            **kwargs: forwarded to the index constructor on a rebuild
                (``horizon``, ``max_ball``, ``star_relations``...).

        Returns:
            The attached index.
        """
        if kind not in ("star", "pairs"):
            raise ReproError(f"unknown index kind {kind!r}")
        # Local import: repro.storage.serialize imports this module.
        from .exceptions import StaleIndexError
        from .storage.index_store import load_index, save_index
        if path is not None:
            try:
                self.graph_index = load_index(
                    path, self.graph, self.dampening, kind=kind
                )
                self.last_index_build = None
                self.index_warm_started = True
                return self.graph_index
            except StaleIndexError:
                pass  # rebuild and overwrite below
            except ReproError:
                pass  # nothing persisted yet; build and save below
        builder = (
            self.build_star_index if kind == "star" else
            self.build_pairs_index
        )
        index = builder(workers=workers, **kwargs)
        if path is not None:
            save_index(index, path)
        return index

    def apply_feedback(self, feedback: FeedbackModel) -> None:
        """Re-rank importance under a feedback-biased teleport vector."""
        self.importance = pagerank(
            self.graph,
            teleport=self.params.teleport,
            teleport_vector=feedback.teleport_vector(),
        )
        self.dampening = DampeningModel(self.importance, self.params)
        # Cached answers were proven under the old ranking; the epoch
        # bump invalidates them lazily at their next lookup.
        self._ranking_epoch += 1
        if self.graph_index is not None:
            raise ReproError(
                "feedback changes dampening rates; rebuild the graph index "
                "(build_star_index / build_pairs_index) after apply_feedback"
            )

    def apply_plan(self, plan) -> "CIRankSystem":
        """Adopt a planner recommendation (:mod:`repro.planner`).

        Accepts a :class:`~repro.planner.cost.PlanCandidate`, a
        :class:`~repro.planner.plan.PlanReport` (its chosen candidate is
        applied), or a plain dict in either shape (a serialized report
        is recognized by its ``chosen_config`` key).  Applies the
        diameter cap, resizes the answer cache when the capacity
        changed, and attaches or detaches the graph index to match the
        plan.  Returns ``self`` for chaining.

        Serving-side knobs (workers, batching) live on
        :class:`~repro.config.ServingParams`; the daemon applies those
        itself — see ``cirank serve --plan``.
        """
        # Local import: the planner imports config/obs, never this
        # module at import time, but keeping it lazy makes the facade
        # importable without the planner package in degraded trees.
        from .planner.cost import PlanCandidate
        from .planner.plan import PlanReport
        if isinstance(plan, PlanReport):
            candidate = plan.chosen_candidate
        elif isinstance(plan, PlanCandidate):
            candidate = plan
        elif isinstance(plan, dict):
            payload = plan.get("chosen_config", plan)
            # Plans written while the engine was a knob name one; the
            # two that existed ran the same search, so the name is
            # ignored.  Any other engine was never runnable here.
            if payload.get("engine") not in (None, "arena", "object"):
                raise ReproError(
                    f"plan chooses engine {payload['engine']!r}, "
                    "which this build does not have"
                )
            candidate = PlanCandidate.from_dict(payload)
        else:
            raise ReproError(
                f"cannot apply a plan of type {type(plan).__name__}"
            )
        self.search_params = candidate.search_params(self.search_params)
        if candidate.answer_cache_size != self._answer_cache.stats().maxsize:
            from .storage.answer_cache import AnswerCache
            self._answer_cache = AnswerCache(candidate.answer_cache_size)
        if candidate.index_kind is None:
            self.graph_index = None
        elif self._index_fingerprint() != (
            {"star": "StarIndex", "pairs": "PairsIndex"}[
                candidate.index_kind
            ],
            candidate.index_horizon,
        ):
            self.attach_index(
                candidate.index_kind,
                workers=candidate.index_workers,
                horizon=candidate.index_horizon,
            )
        return self

    # -------------------------------------------------------------- search

    def scorer_for(self, match: MatchSets) -> RWMPScorer:
        """The RWMP scorer for one query's match sets."""
        return RWMPScorer(self.graph, self.index, match, self.dampening)

    def search(
        self,
        query_text: str,
        k: Optional[int] = None,
        diameter: Optional[int] = None,
        algorithm: str = "branch-and-bound",
    ) -> List[RankedAnswer]:
        """Top-k keyword search.

        Branch-and-bound drains :meth:`search_anytime` and returns its
        final snapshot's answers, so both entry points share matching,
        the answer cache and its proven-only store.  An unmatchable
        query returns ``[]`` and leaves an all-zero
        :attr:`last_search_stats`.

        Args:
            query_text: whitespace-separated keywords (AND semantics).
            k: number of answers (defaults to the configured k).
            diameter: answer diameter cap (defaults to configured D).
            algorithm: ``"branch-and-bound"`` (default) or ``"naive"``.

        Returns:
            Ranked answers, best first (possibly fewer than k).
        """
        if algorithm not in ("branch-and-bound", "naive"):
            raise ReproError(f"unknown algorithm {algorithm!r}")
        self.last_search_stats = None
        self.last_cache_stats = None
        if algorithm == "naive":
            return self._search_naive(query_text, k, diameter)
        snapshot = None
        for snapshot in self.search_anytime(query_text, k, diameter):
            pass
        return snapshot.answers

    def _search_naive(
        self,
        query_text: str,
        k: Optional[int],
        diameter: Optional[int],
    ) -> List[RankedAnswer]:
        """The naive strawman: no answer cache, no search stats."""
        match = self._match_for(query_text)
        if not self._matchable(match):
            return []
        scorer = self.scorer_for(match)
        params = self._resolve_params(k, diameter)
        answers = NaiveSearch(self.graph, scorer, match, params).run()
        self._publish_cache_stats(scorer)
        return answers

    def search_anytime(
        self,
        query_text: str,
        k: Optional[int] = None,
        diameter: Optional[int] = None,
        heartbeat: int = 0,
        observer: Optional[object] = None,
        span: Optional[object] = None,
    ):
        """Anytime top-k search: a generator of :class:`AnytimeSnapshot`.

        The deadline-bounded serving path (:mod:`repro.serving.deadline`)
        drives this instead of :meth:`search`: each yielded snapshot
        carries the best answers so far plus the frontier bound, so a
        consumer can stop at any wall-clock deadline and report the
        snapshot's ``gap`` as the SLA field.  :meth:`search` is this
        generator fully consumed: proven results enter the cross-query
        answer cache, and cache hits and unmatchable queries yield a
        single already-proven snapshot.

        Args:
            query_text: whitespace-separated keywords.
            k: number of answers (defaults to the configured k).
            diameter: answer diameter cap (defaults to configured D).
            heartbeat: yield a snapshot every ``heartbeat`` queue pops
                even without top-k improvement (0 = improvements only);
                deadline consumers use this to bound overshoot.
            observer: optional mutable object; when given, its ``stats``
                attribute is set to the run's :class:`SearchStats` as
                soon as it exists.  Concurrent serving threads read
                per-request stats through this instead of the
                last-writer-wins :attr:`last_search_stats`.
            span: optional parent trace span
                (:class:`repro.obs.trace.Span`); a ``search`` child is
                opened under it and the run's :class:`SearchStats` —
                phase timers included — land on that child as
                attributes when the generator closes.
        """
        search_span = span.child("search") if span is not None else None
        # The versions a stored result is proven against, captured
        # before any input is read: a graph mutation or feedback re-rank
        # landing mid-search leaves a stale entry, never one labeled
        # fresh under the new ranking.
        version = self.graph.version
        epoch = self._ranking_epoch
        params = self._resolve_params(k, diameter)
        match = self._match_for(query_text)
        if not self._matchable(match):
            # Provably no answer exists: a single, already-final
            # snapshot, without probing or populating the answer cache.
            stats = SearchStats()
            if observer is not None:
                observer.stats = stats
            self.last_search_stats = stats
            self._publish_cache_stats()
            _finish_search_span(search_span, stats, "unmatchable")
            yield AnytimeSnapshot(
                answers=[], frontier_bound=float("-inf"),
                proven_optimal=True,
            )
            return
        cache_key = None
        lookup_seconds = 0.0
        if self._answer_cache.enabled:
            # Cross-query answer cache: key on the *analyzed* keywords
            # (two raw strings normalizing identically share an entry),
            # the resolved params, and the index provenance; the stored
            # (graph version, ranking epoch) guard is checked inside
            # lookup, which counts stale entries as invalidations.
            from .storage.answer_cache import answer_cache_key
            start = time.perf_counter()
            cache_key = answer_cache_key(
                tuple(match.keywords), params, self._index_fingerprint()
            )
            cached = self._answer_cache.lookup(
                cache_key, self.graph.version, self._ranking_epoch
            )
            lookup_seconds = time.perf_counter() - start
            if cached is not None:
                stats = SearchStats()
                stats.served_from_cache = True
                stats.cache_lookup_seconds = lookup_seconds
                stats.answers_found = len(cached)
                if observer is not None:
                    observer.stats = stats
                self.last_search_stats = stats
                self._publish_cache_stats()
                _finish_search_span(search_span, stats, "cache_hit")
                yield AnytimeSnapshot(
                    answers=cached, frontier_bound=float("-inf"),
                    proven_optimal=True,
                )
                return
        scorer = self.scorer_for(match)
        search = BranchAndBoundSearch(
            self.graph, scorer, match, params, index=self.graph_index
        )
        if observer is not None:
            observer.stats = search.stats
        try:
            for snapshot in search.snapshots(heartbeat=heartbeat):
                if (
                    snapshot.proven_optimal
                    and search.last_proven
                    and cache_key is not None
                ):
                    # Only proven-optimal results are reusable; anytime
                    # aborts (max_candidates) carry no certificate.
                    # Proven *empty* results are cached too.
                    self._answer_cache.store(
                        cache_key, version, epoch, list(snapshot.answers)
                    )
                yield snapshot
        finally:
            # Runs both on normal exhaustion and when a deadline-bounded
            # consumer abandons the generator mid-search.
            search.stats.cache_lookup_seconds += lookup_seconds
            self.last_search_stats = search.stats
            self._publish_cache_stats(scorer)
            _finish_search_span(search_span, search.stats, "search")

    def answer_key(
        self,
        query_text: str,
        k: Optional[int] = None,
        diameter: Optional[int] = None,
    ):
        """The canonical answer-cache key for one search invocation.

        Two raw query strings that analyze to the same keyword sequence
        under the same resolved parameters and index provenance share a
        key; the serving front end uses it for single-flight dedup of
        identical in-flight queries.
        """
        from .storage.answer_cache import answer_cache_key
        match = self._match_for(query_text)
        params = self._resolve_params(k, diameter)
        return answer_cache_key(
            tuple(match.keywords), params, self._index_fingerprint()
        )

    def _resolve_params(
        self,
        k: Optional[int],
        diameter: Optional[int],
    ) -> SearchParams:
        """The configured SearchParams with per-call overrides applied.

        ``dataclasses.replace`` keeps every configured field (including
        any added later) instead of re-listing them by hand.
        """
        overrides = {}
        if k is not None:
            overrides["k"] = k
        if diameter is not None:
            overrides["diameter"] = diameter
        return dataclasses.replace(self.search_params, **overrides)

    def _matchable(self, match: MatchSets) -> bool:
        """Whether any answer can exist: under AND every keyword must
        match a node, under OR one."""
        if self.search_params.semantics == "or":
            return any(match.per_keyword.values())
        return match.matchable

    def _index_fingerprint(self):
        """Structural identity of the attached graph index (or None)."""
        index = self.graph_index
        if index is None:
            return None
        return (type(index).__name__, getattr(index, "horizon", None))

    def _publish_cache_stats(self, scorer: Optional[RWMPScorer] = None):
        """Refresh :attr:`last_cache_stats` after a search."""
        stats: Dict[str, CacheStats] = (
            dict(scorer.cache_stats()) if scorer is not None else {}
        )
        stats["match"] = self._match_cache.stats()
        stats["answers"] = self._answer_cache.stats()
        self.last_cache_stats = stats

    def _match_for(self, query_text: str) -> MatchSets:
        """Match sets for a query, memoized per (query, graph version).

        Thread-safe: concurrent searches from the serving executor pool
        share the memo, and the lock covers the whole get-compute-put
        sequence (matching is cheap — inverted-index lookups — so
        serializing it is preferable to racing duplicate inserts).
        """
        key = (query_text, self.graph.version)
        with self._match_lock:
            match = self._match_cache.get(key)
            if match is None:
                match = self.matcher.match(query_text)
                self._match_cache.put(key, match)
            return match

    # ------------------------------------------------------------- display

    def describe(self, answer: RankedAnswer) -> str:
        """One-line description of an answer."""
        return answer.describe(self.graph)

    def explain(self, query_text: str, answer: RankedAnswer) -> str:
        """The full message-flow breakdown of one answer's score.

        Renders per-source generation counts, per-hop splits/dampening,
        the binding (minimum) source at each keyword node, and the
        weakest link pulling the average down (see
        :mod:`repro.rwmp.explain`).
        """
        from .rwmp.explain import explain_tree, render_explanation
        match = self._match_for(query_text)
        scorer = self.scorer_for(match)
        explanation = explain_tree(scorer, answer.tree)
        return render_explanation(self.graph, explanation)
