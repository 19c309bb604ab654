"""The branch-and-bound top-k search (Algorithm 1).

Candidate trees live in a max-priority queue keyed by their upper bound;
the head is repeatedly expanded (grow + merge), complete answers are
offered to the top-k list, and the search stops as soon as the head's
upper bound cannot beat the worst kept answer — at which point the kept
answers are provably optimal (Theorem 1).

Implementation notes:

* every candidate whose *tight* bound beats the kept top-k is registered
  per root so later candidates with the same root can merge against it
  (the paper's Line 16); under lazy evaluation registration waits until
  the tight bound is known — a cheaply-admitted candidate that never
  reaches tightening is bounded below the kept top-k, so skipping its
  merges is the same Lemma-1 prune that drops it, and every pair whose
  members both survive tightening still merges (the later-registered one
  sweeps the full partner list when it expands);
* candidates are deduplicated by (root, tree) signature;
* a candidate pruned because ``ub <= minscore`` is safe to drop entirely:
  any answer expandable from it is bounded by that same ``ub`` (see the
  correctness argument in DESIGN.md);
* the diameter cap prunes structurally (``diameter > D``) and — when an
  index is available — via distance lower bounds
  (:meth:`UpperBoundEstimator.completion_impossible`).

Lazy bound tightening (``SearchParams.lazy_bounds``, the default):

* at admit time a child candidate inherits the cheapest admissible bound
  available — its parent's latest bound for a grow, the minimum of both
  operands' for a merge.  Every answer expandable from the child is
  expandable from each parent (grow/merge only shrink the reachable
  answer set), so the inherited value stays admissible and both the
  admit-time prune and the global stop rule remain sound;
* the full ``ce/pe`` bound is computed only when a cheaply-bounded
  candidate reaches the heap head and its inherited bound still beats
  the kept top-k.  If tightening drops it below the next head it is
  re-pushed with the tight key instead of expanded — classic lazy
  best-first evaluation.  Expansion order can differ from the eager
  configuration but remains a pure function of the input (the heap key
  is a structural total order), and the returned top-k is identical up
  to tie classes (pinned by the differential oracle).

See docs/ALGORITHMS.md §2.6 for the soundness argument.

Engines (``SearchParams.engine``): the lazy loop runs either over flat
columnar candidate rows (``"arena"``, the default — see
:mod:`repro.search.arena`) or over per-object :class:`CandidateTree`
candidates (``"object"``, the reference implementation both engines are
differentially pinned against).  Eager evaluation always runs the
object path.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..config import SearchParams
from ..exceptions import SearchError
from ..graph.datagraph import DataGraph
from ..model.answer import RankedAnswer, RankedList
from ..rwmp.scoring import RWMPScorer
from ..text.matcher import MatchSets
from .bounds import UpperBoundEstimator
from .candidate import CandidateTree, Signature, TransferContext


def _heap_key(ub: float, cand: CandidateTree):
    """Deterministic priority: bound first, then a structural total order.

    Ties on the upper bound are broken by (node count, node-id tuple,
    root, edge tuple) — a total order over admitted candidates (the
    signature dedup guarantees no two share root *and* tree), so the
    expansion order is a pure function of the input and never depends on
    insertion order.  Smaller trees expand first within a tie, matching
    the enumeration order of the exhaustive oracle.  The node/edge
    tuples are memoized on the candidate and maintained incrementally
    by grow/merge, so building a key allocates nothing but the tuple
    itself.
    """
    return (
        -ub,
        len(cand.tree.nodes),
        cand.sorted_nodes,
        cand.root,
        cand.sorted_edges,
    )


@dataclass
class SearchStats:
    """Counters describing one search run (used by the efficiency benches).

    Attributes:
        expanded: candidates dequeued and expanded.
        generated: candidates created (before dedup/pruning).
        enqueued: candidates that entered the priority queue.
        pruned_bound: candidates dropped because ``ub <= minscore``.
        pruned_diameter: candidates dropped by the diameter cap.
        pruned_distance: candidates dropped by index distance pruning.
        answers_found: complete answers offered to the top-k list.
        stopped_early: True when the bound test ended the search before
            the queue drained.
        bound_evals: full ``ce/pe`` upper-bound evaluations.
        cheap_admissions: candidates admitted on an inherited
            (parent-derived) bound instead of a full evaluation.
        tightened: cheaply-bounded candidates whose full bound was
            computed at the heap head.
        repushed: tightened candidates re-enqueued because the tight
            bound fell below the next head.
        admit_capped: cheap admissions whose bound was lowered by the
            index-assisted admit cap (arena engine, AND semantics).
        bound_seconds: wall-clock spent in full bound evaluations at
            admission (the initial candidates, and every admission in
            eager mode); head tightening is booked separately.
        cheap_bound_seconds: wall-clock spent computing admit-time
            cheap bounds (inherited value plus the admit cap).
        tighten_seconds: wall-clock spent in full bound evaluations of
            cheaply-admitted candidates at the heap head.
        expand_seconds: self time of generating grows/merges: the
            expansion's wall-clock minus the bound, cheap-bound and
            scoring time of the admissions it triggers.
        score_seconds: wall-clock spent scoring complete answers.

        The five phase timers above are disjoint, so their sum never
        exceeds the search's wall-clock time; the remainder is
        unattributed loop overhead (heap operations, dedup, pruning
        outside an expansion, snapshot yields).
        cache_lookup_seconds: wall-clock the system spent probing the
            cross-query answer cache for this search.
        served_from_cache: True when the system answered from the
            cross-query cache without running the search at all (every
            other counter is then zero).
        snapshots_yielded: anytime snapshots the generator produced
            (improvements + heartbeats + the final one); the serving
            layer reads it off slow-query span dumps to judge whether a
            deadline overshoot came from a too-sparse heartbeat.
        engine: candidate representation that ran — ``"arena"`` or
            ``"object"`` (eager evaluation always reports "object").
        arena_candidates: candidate rows live in the arena at the end
            of the run (arena engine only).
        arena_peak_bytes: high-water mark of the arena's column/pool
            storage across the run (arena engine only).
        arena_rollbacks: rows appended and then reclaimed by arena
            rollback — only initial candidates, whose tight admission
            bound needs a stored row, and then only when Lemma 1 prunes
            them; every other admission decides before appending (arena
            engine only).
    """

    expanded: int = 0
    generated: int = 0
    enqueued: int = 0
    pruned_bound: int = 0
    pruned_diameter: int = 0
    pruned_distance: int = 0
    answers_found: int = 0
    stopped_early: bool = False
    bound_evals: int = 0
    cheap_admissions: int = 0
    tightened: int = 0
    repushed: int = 0
    admit_capped: int = 0
    bound_seconds: float = 0.0
    cheap_bound_seconds: float = 0.0
    tighten_seconds: float = 0.0
    expand_seconds: float = 0.0
    score_seconds: float = 0.0
    cache_lookup_seconds: float = 0.0
    served_from_cache: bool = False
    snapshots_yielded: int = 0
    engine: str = "object"
    arena_candidates: int = 0
    arena_peak_bytes: int = 0
    arena_rollbacks: int = 0

    def admission_seconds(self) -> float:
        """Timed admission work: full and cheap bounds plus scoring."""
        return self.bound_seconds + self.cheap_bound_seconds + self.score_seconds


@dataclass(frozen=True)
class AnytimeSnapshot:
    """One anytime progress report of the branch-and-bound search.

    Attributes:
        answers: the best answers found so far, best first.
        frontier_bound: upper bound on the score of every answer not yet
            discovered (``-inf`` once the queue is exhausted).
        proven_optimal: True on the final snapshot when the search
            terminated through the bound test or queue exhaustion —
            the answers are then the true top-k (Theorem 1).
        arena_mark: O(1) high-water version stamp of the candidate
            arena at snapshot time (the number of live candidate rows)
            under the arena engine; None on the object path.
    """

    answers: List[RankedAnswer]
    frontier_bound: float
    proven_optimal: bool
    arena_mark: Optional[int] = None

    @property
    def gap(self) -> float:
        """How far above the current k-th answer the frontier reaches
        (0 when nothing unseen can change the list)."""
        if not self.answers:
            return float("inf")
        kth = self.answers[-1].score
        return max(0.0, self.frontier_bound - kth)


class BranchAndBoundSearch:
    """Top-k answer search for one query.

    Args:
        graph: the data graph.
        scorer: the query's RWMP scorer.
        match: the query's match sets (must be the scorer's).
        params: search parameters (k, diameter cap, merge mode, lazy
            bound evaluation).
        index: optional pairs/star index for bound tightening and
            distance pruning.
    """

    #: Whether the arena engine applies the index-assisted admit cap
    #: (:meth:`UpperBoundEstimator.admit_cap`) on top of the inherited
    #: cheap bound.  A class default so benchmarks can disable it per
    #: instance to measure the representation change in isolation.
    use_admit_cap = True

    #: When set (tests), the arena engine asserts after every rollback
    #: that no live heap entry or merge-partner id references the
    #: reclaimed region.
    _debug_validate = False

    def __init__(
        self,
        graph: DataGraph,
        scorer: RWMPScorer,
        match: MatchSets,
        params: Optional[SearchParams] = None,
        index: Optional[object] = None,
    ) -> None:
        if scorer.match is not match:
            raise SearchError("scorer and search must share the match sets")
        self.graph = graph
        self.scorer = scorer
        self.match = match
        self.params = params or SearchParams()
        self.bounds = UpperBoundEstimator(
            graph, scorer, index, semantics=self.params.semantics
        )
        self.stats = SearchStats()
        #: Whether the last finished run proved its top-k optimal
        #: (Theorem 1) — the system's answer cache only stores proven
        #: results.
        self.last_proven = False
        # Compiled CSR view: pre-sorted neighbor tuples for the
        # expansion loop (replaces sorted(graph.neighbors(...)) per
        # expansion).
        self._compiled = graph.compiled()
        # Incremental transfer maintenance for grow/merge (see
        # repro.search.candidate); the bound estimator consumes the
        # per-candidate factors instead of rebuilding them.
        self._ctx = TransferContext(graph, scorer.dampening.rate)
        #: The flat candidate arena of the most recent arena-engine run
        #: (None before the first run or on the object path) — the
        #: CLI's ``--stats`` arena section and the tests read it.
        self.last_arena = None

    # --------------------------------------------------------------- public

    def run(self) -> List[RankedAnswer]:
        """Execute Algorithm 1 and return the top-k answers, best first."""
        snapshot = None
        for snapshot in self.snapshots():
            pass
        return snapshot.answers if snapshot is not None else []

    def _tight_bound(self, cand: CandidateTree) -> float:
        """One full bound evaluation, cached on the candidate.

        Untimed: the caller books it as ``bound_seconds`` (admission)
        or ``tighten_seconds`` (heap head).
        """
        ub = self.bounds.upper_bound(cand)
        self.stats.bound_evals += 1
        cand.cached_ub = ub
        return ub

    def _cheap_bound(self, inherited: float, cand: CandidateTree) -> float:
        """The admit-time bound for a candidate with known parents.

        ``inherited`` is the minimum of the parents' latest admissible
        bounds; any answer expandable from ``cand`` is expandable from
        each parent, so the value is admissible for ``cand`` too.
        Factored out so the mutation tests can break it on purpose.
        """
        del cand  # the inherited value alone bounds every completion
        return inherited

    def snapshots(self, heartbeat: int = 0):
        """Anytime execution: yield progress snapshots during the search.

        The branch-and-bound loop is naturally *anytime*: at every point
        the kept answers are the best found so far and the queue head's
        upper bound caps everything undiscovered.  This generator yields
        an :class:`AnytimeSnapshot` whenever the kept top-k improves, and
        one final snapshot when the search terminates — with
        ``proven_optimal=True`` if termination came from the bound test
        or queue exhaustion (a ``max_candidates`` abort stays unproven).

        Consumers can stop iterating at any time; the last snapshot's
        ``frontier_bound`` is the quality certificate: no unseen answer
        can score above it (cheap inherited bounds are admissible, so
        the certificate holds in lazy mode too).

        Args:
            heartbeat: when > 0, additionally yield a snapshot every
                ``heartbeat`` queue pops even if the top-k did not
                improve.  Deadline-bounded consumers (the serving front
                end) rely on this to observe the wall clock at a bounded
                cadence; 0 (the default) keeps the improvement-only
                cadence.  The yielded sequence of *improvements* is
                identical either way.
        """
        params = self.params
        lazy = params.lazy_bounds
        if lazy and params.engine == "arena":
            # The flat-arena engine (repro.search.arena): identical
            # control flow over columnar candidate rows.  Local import —
            # arena.py imports AnytimeSnapshot from this module.
            from .arena import arena_snapshots
            yield from arena_snapshots(self, heartbeat)
            return
        stats = self.stats
        stats.engine = "object"
        self.last_proven = False
        top_k = RankedList(params.k)
        heap: List = []
        seen: Set[Signature] = set()
        by_root: Dict[int, List[CandidateTree]] = {}

        def admit(
            cand: CandidateTree, inherited: Optional[float] = None
        ) -> bool:
            """Register, score-if-complete, bound, and enqueue a candidate.

            Returns True when the candidate was new (not a duplicate), so
            the merge cascade knows whether to continue through it.
            """
            stats.generated += 1
            if cand.diameter > params.diameter:
                stats.pruned_diameter += 1
                return False
            signature = cand.signature()
            if signature in seen:
                return False
            seen.add(signature)
            if cand.is_answer(self.match, params.diameter, params.semantics):
                start = time.perf_counter()
                answer = RankedAnswer(cand.tree, self.scorer.score(cand.tree))
                stats.score_seconds += time.perf_counter() - start
                stats.answers_found += 1
                top_k.offer(answer)
            if self.bounds.completion_impossible(cand, params.diameter):
                # No completion can exist through any future root or merge,
                # so expanding (or merging through) this candidate is futile.
                stats.pruned_distance += 1
                return False
            if lazy and inherited is not None:
                start = time.perf_counter()
                ub = self._cheap_bound(inherited, cand)
                stats.cheap_bound_seconds += time.perf_counter() - start
                cand.cached_ub = ub
                tight = False
                stats.cheap_admissions += 1
            else:
                start = time.perf_counter()
                ub = self._tight_bound(cand)
                stats.bound_seconds += time.perf_counter() - start
                tight = True
            if top_k.full and ub <= top_k.min_score():
                # Lemma 1: every answer expandable from this candidate —
                # via grows or merges — scores at most `ub`, which cannot
                # beat the kept top-k; safe to drop the whole subtree of
                # the search space.
                stats.pruned_bound += 1
                return False
            if tight:
                # Merge-partner registration waits for a surviving tight
                # bound (see the module docstring); cheap admissions
                # register at head-tightening instead.
                by_root.setdefault(cand.root, []).append(cand)
            heapq.heappush(heap, (_heap_key(ub, cand), tight, cand))
            stats.enqueued += 1
            return True

        for node in sorted(self.match.all_nodes):
            admit(CandidateTree.initial(node, self.match))

        last_revision = -1
        proven = True
        frontier = float("-inf")
        ticks = 0
        while heap:
            key, tight, cand = heapq.heappop(heap)
            ub = -key[0]
            if top_k.full and ub <= top_k.min_score():
                # everything unexplored (this candidate included) is
                # bounded by its ub — the stop rule's certificate
                # (admissible whether the head's bound is cheap or tight)
                stats.stopped_early = True
                frontier = ub
                break
            if (
                params.max_candidates
                and stats.expanded >= params.max_candidates
            ):
                proven = False
                frontier = ub
                break
            ticks += 1
            if heartbeat and ticks % heartbeat == 0:
                # Heartbeat snapshot: the head's bound is an admissible
                # cap on everything undiscovered, so the gap certificate
                # is valid mid-search too.
                stats.snapshots_yielded += 1
                yield AnytimeSnapshot(
                    answers=top_k.as_list(),
                    frontier_bound=ub,
                    proven_optimal=False,
                )
            if not tight:
                # Lazy tightening: pay for the full bound only now that
                # the candidate leads the frontier and still beats the
                # kept top-k.
                start = time.perf_counter()
                ub = self._tight_bound(cand)
                stats.tighten_seconds += time.perf_counter() - start
                stats.tightened += 1
                if top_k.full and ub <= top_k.min_score():
                    stats.pruned_bound += 1
                    continue
                # The tight bound survived: the candidate becomes a
                # merge partner (exactly once — re-pushed entries carry
                # tight=True).
                by_root.setdefault(cand.root, []).append(cand)
                if heap and ub < -heap[0][0][0]:
                    heapq.heappush(heap, (_heap_key(ub, cand), True, cand))
                    stats.repushed += 1
                    continue
            if top_k.revision != last_revision:
                last_revision = top_k.revision
                stats.snapshots_yielded += 1
                yield AnytimeSnapshot(
                    answers=top_k.as_list(),
                    frontier_bound=ub,
                    proven_optimal=False,
                )
            stats.expanded += 1
            # Self time: the admissions _expand triggers book their own
            # timers (bound, cheap bound, scoring), subtracted here so
            # the phase timers stay disjoint.
            nested = stats.admission_seconds()
            start = time.perf_counter()
            self._expand(cand, admit, by_root)
            stats.expand_seconds += time.perf_counter() - start - (
                stats.admission_seconds() - nested
            )

        self.last_proven = proven
        stats.snapshots_yielded += 1
        yield AnytimeSnapshot(
            answers=top_k.as_list(),
            frontier_bound=frontier,
            proven_optimal=proven,
        )

    # -------------------------------------------------------------- expand

    def _expand(self, cand: CandidateTree, admit, by_root) -> None:
        """Generate ``cand``'s grows and merges.

        The two evaluation modes expand differently:

        * eager — the seed behavior: newly admitted candidates are merged
          against all registered same-root candidates immediately, and
          merge results re-enter the cascade.  Sound because eager admit
          bound-prunes before registering, which cuts the cascade;
        * lazy — merges happen at *pop* time only: ``cand`` (just
          registered with a surviving tight bound) merges against the
          registered same-root partners, and children enqueue without
          cascading.  Deferring the merge work to tightening keeps the
          loose cheap bounds from breeding merge products that the tight
          bound would have pruned.  Pair completeness holds because
          whichever partner expands later sweeps the full registered
          list.
        """
        if self.params.lazy_bounds:
            self._expand_lazy(cand, admit, by_root)
        else:
            self._expand_eager(cand, admit, by_root)

    def _expand_lazy(self, cand: CandidateTree, admit, by_root) -> None:
        parent_ub = cand.cached_ub
        if cand.depth + 1 <= self.params.diameter:
            for neighbor in self._compiled.neighbors(cand.root):
                if neighbor not in cand.tree.nodes:
                    admit(
                        cand.grow(neighbor, self.match, self._ctx),
                        parent_ub,
                    )
        for partner in list(by_root.get(cand.root, ())):
            if partner is cand:
                continue
            if cand.depth + partner.depth > self.params.diameter:
                # the merged tree would break the cap; skip before
                # paying for the union construction
                self.stats.generated += 1
                self.stats.pruned_diameter += 1
                continue
            merged = cand.merge(partner, strict=self.params.strict_merge)
            if merged is not None:
                partner_ub = partner.cached_ub
                if parent_ub is not None and partner_ub is not None:
                    admit(merged, min(parent_ub, partner_ub))
                else:
                    admit(merged)

    def _expand_eager(self, cand: CandidateTree, admit, by_root) -> None:
        work: List[CandidateTree] = []
        if cand.depth + 1 <= self.params.diameter:
            for neighbor in self._compiled.neighbors(cand.root):
                if neighbor not in cand.tree.nodes:
                    work.append(cand.grow(neighbor, self.match, self._ctx))
        while work:
            current = work.pop()
            if not admit(current):
                continue
            # `admit` registered `current`; snapshot partners so the
            # iteration is stable while the cascade appends new ones.
            for partner in list(by_root.get(current.root, ())):
                if current.depth + partner.depth > self.params.diameter:
                    # the merged tree would break the cap; skip before
                    # paying for the union construction
                    self.stats.generated += 1
                    self.stats.pruned_diameter += 1
                    continue
                merged = current.merge(partner, strict=self.params.strict_merge)
                if merged is not None:
                    work.append(merged)
