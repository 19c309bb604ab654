"""The branch-and-bound top-k search (Algorithm 1).

Candidate trees live in a max-priority queue keyed by their upper bound;
the head is repeatedly expanded (grow + merge), complete answers are
offered to the top-k list, and the search stops as soon as the head's
upper bound cannot beat the worst kept answer — at which point the kept
answers are provably optimal (Theorem 1).

Implementation notes:

* every candidate whose *tight* bound beats the kept top-k is registered
  per root so later candidates with the same root can merge against it
  (the paper's Line 16); registration waits until the tight bound is
  known — a cheaply-admitted candidate that never reaches tightening is
  bounded below the kept top-k, so skipping its merges is the same
  Lemma-1 prune that drops it, and every pair whose members both
  survive tightening still merges (the later-registered one sweeps the
  full partner list when it expands);
* candidates are deduplicated by (root, tree) signature;
* a candidate pruned because ``ub <= minscore`` is safe to drop entirely:
  any answer expandable from it is bounded by that same ``ub`` (see the
  correctness argument in DESIGN.md);
* the diameter cap prunes structurally (``diameter > D``) and — when an
  index is available — via distance lower bounds
  (:meth:`UpperBoundEstimator.completion_impossible`).

Lazy bound tightening:

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
  best-first evaluation.  The expansion order is a pure function of the
  input (the heap key is a structural total order), and the returned
  top-k equals the exhaustive oracle's up to tie classes.

See docs/ALGORITHMS.md §2.6 for the soundness argument.  The loop runs
over flat columnar candidate rows (:mod:`repro.search.arena`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import SearchParams
from ..exceptions import SearchError
from ..graph.datagraph import DataGraph
from ..model.answer import RankedAnswer
from ..rwmp.scoring import RWMPScorer
from ..text.matcher import MatchSets
from .bounds import UpperBoundEstimator


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
            index-assisted admit cap (AND semantics).
        bound_seconds: wall-clock spent in full bound evaluations at
            admission (the initial candidates); head tightening is
            booked separately.
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
        arena_candidates: candidate rows live in the arena at the end
            of the run.
        arena_peak_bytes: high-water mark of the arena's column/pool
            storage across the run.
        arena_rollbacks: rows appended and then reclaimed by arena
            rollback — only initial candidates, whose tight admission
            bound needs a stored row, and then only when Lemma 1 prunes
            them; every other admission decides before appending.
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
    """

    answers: List[RankedAnswer]
    frontier_bound: float
    proven_optimal: bool

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
        params: search parameters (k, diameter cap, merge mode).
        index: optional pairs/star index for bound tightening and
            distance pruning.
    """

    #: When set (tests), the engine asserts after every rollback that
    #: no live heap entry or merge-partner id references the reclaimed
    #: region.
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
        # expansion loop.
        self._compiled = graph.compiled()
        #: The flat candidate arena of the most recent run (None before
        #: the first), kept for inspection after the run.
        self.last_arena = None

    # --------------------------------------------------------------- public

    def run(self) -> List[RankedAnswer]:
        """Execute Algorithm 1 and return the top-k answers, best first."""
        snapshot = None
        for snapshot in self.snapshots():
            pass
        return snapshot.answers if snapshot is not None else []

    def _cheap_bound(self, inherited: float) -> float:
        """The admit-time bound for a candidate with known parents.

        ``inherited`` is the minimum of the parents' latest admissible
        bounds; any answer expandable from the candidate is expandable
        from each parent, so the value is admissible for it too.
        Factored out so the mutation tests can break it on purpose.
        """
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
        the certificate holds before tightening too).

        Args:
            heartbeat: when > 0, additionally yield a snapshot every
                ``heartbeat`` queue pops even if the top-k did not
                improve.  Deadline-bounded consumers (the serving front
                end) rely on this to observe the wall clock at a bounded
                cadence; 0 (the default) keeps the improvement-only
                cadence.  The yielded sequence of *improvements* is
                identical either way.
        """
        # Local import: arena.py imports AnytimeSnapshot from here.
        from .arena import arena_snapshots
        yield from arena_snapshots(self, heartbeat)
