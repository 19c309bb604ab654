"""The flat candidate arena: unit, parity, and mutation coverage.

Three layers of the search's candidate arena get falsifiable contracts
here, on top of the ``branch-and-bound`` leg already wired into
:func:`repro.testing.differential_check`:

* **storage semantics** — append/mark/rollback reclaim exactly the
  region added since the mark, shared pools stay consistent, and
  ``column()`` exposes real zero-copy numpy views;
* **bound parity** — for every *tightened* arena row, rebuilding the
  candidate as an object tree (``CandidateTree.from_arena``) and
  running the from-scratch reference bound reproduces the arena's
  ``ub`` column bitwise — same float operations in the same order;
* **mutation sensitivity** — a corrupted cover slice and a deflated
  (inadmissible) admit cap are each caught by the differential oracle
  within a bounded seed sweep, while an inflated (loose but
  admissible) cap stays sound.  Soundness must come from
  admissibility, never from the cap's tightness.

The rollback-reachability invariant (no live heap entry or
merge-partner id points into a reclaimed region) is asserted inside
the engine whenever ``BranchAndBoundSearch._debug_validate`` is set;
the sweep here runs with it enabled.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import CIRankSystem
from repro.search import arena as arena_module
from repro.search.arena import (
    NO_ID,
    CandidateArena,
    _merge_sorted,
    pack_edge,
    unpack_edge,
)
from repro.search.bounds import UpperBoundEstimator
from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.search.candidate import CandidateTree
from repro.testing import DifferentialFailure, check_case, random_case
from repro.utils.lru import LRUCache

#: Seeds to try before concluding a mutation went unnoticed (mirrors
#: ``TestMutationsAreCaught`` in test_properties_differential.py).
SWEEP = 80

#: Seeds for the deterministic rollback sweep.
ROLLBACK_SEEDS = 25

#: Per-search cap on tightened rows re-checked against the reference
#: bound (the reference recomputes transfer state from scratch).
RECHECK_CAP = 120

#: A tiny-IMDB query whose search tightens at the heap head, expands
#: with merges and scores answers, so every phase timer runs.
PHASE_QUERY = "crimson electric"


def _search_for_seed(seed: int):
    """Build one search (plus its match) for a generated case.

    Returns None when the case is trivial (unanalyzable or unmatchable
    query) — there is nothing to run.
    """
    case = random_case(seed)
    params = dataclasses.replace(case.params, strict_merge=False)
    system = CIRankSystem.from_database(
        case.db, weights=case.weights, search_params=params
    )
    try:
        match = system.matcher.match(case.query)
    except Exception:
        return None
    if params.semantics == "or":
        if not any(match.per_keyword.values()):
            return None
    elif not match.matchable:
        return None
    scorer = system.scorer_for(match)
    return BranchAndBoundSearch(system.graph, scorer, match, params), match


# -------------------------------------------------------------- storage


def test_pack_edge_orders_like_canonical_tuples():
    """Sorting packed codes equals sorting canonical (min, max) tuples."""
    edges = [(5, 2), (2, 3), (7, 7), (0, 9), (3, 2), (9, 1)]
    canonical = [tuple(sorted(e)) for e in edges]
    codes = [pack_edge(a, b) for a, b in edges]
    assert [unpack_edge(c) for c in codes] == canonical
    assert [unpack_edge(c) for c in sorted(codes)] == sorted(canonical)


def test_merge_sorted_counts_shared_values():
    merged, shared = _merge_sorted([1, 3, 5], [2, 3, 6], dedup=True)
    assert merged == [1, 2, 3, 5, 6]
    assert shared == 1
    merged, shared = _merge_sorted([1, 3], [3, 4])
    assert merged == [1, 3, 3, 4]  # no dedup: both copies kept
    assert shared == 1
    merged, shared = _merge_sorted([], [7, 8], dedup=True)
    assert merged == [7, 8] and shared == 0


def test_arena_append_mark_rollback():
    """Rollback reclaims exactly the region appended since the mark."""
    arena = CandidateArena()
    a = arena.append_candidate(3, 0, 0, [3], [], [3], cover=1)
    arena.set_fmap(a, [arena.add_flist((), ())])
    mark = arena.mark()
    before_bytes = arena.nbytes()
    b = arena.append_candidate(
        5, 1, 1, [3, 5], [pack_edge(5, 3)], [3, 5], cover=3,
        parent=a,
    )
    arena.set_fmap(b, [
        arena.add_flist((5,), (0.5,)), arena.add_flist((3,), (0.25,)),
    ])
    assert len(arena) == 2
    assert list(arena.nodes_of(b)) == [3, 5]
    assert list(arena.edges_of(b)) == [pack_edge(3, 5)]
    assert list(arena.sources_of(b)) == [3, 5]
    assert arena.fmap_of(b) == {3: 1, 5: 2}
    peak = arena.peak_bytes
    assert peak > before_bytes

    arena.rollback(mark)
    assert len(arena) == 1
    assert arena.rollbacks == 1
    assert arena.nbytes() == before_bytes
    assert arena.peak_bytes == peak  # high-water mark survives rollback
    # The surviving prefix is untouched.
    assert list(arena.nodes_of(a)) == [3]
    assert arena.cover[a] == 1
    assert arena.fmap_start[a] != NO_ID
    assert len(arena.flist_start) == 1
    assert len(arena.fmap_pool) == 1


def test_arena_column_views_are_zero_copy():
    np = pytest.importorskip("numpy")
    arena = CandidateArena()
    arena.append_candidate(9, 0, 0, [9], [], [9], cover=1)
    arena.ub[0] = 2.5
    roots = arena.column("root")
    ubs = arena.column("ub")
    assert roots.dtype == np.int64 and list(roots) == [9]
    assert ubs.dtype == np.float64 and list(ubs) == [2.5]
    # Zero-copy: mutating the backing array shows through the view.
    arena.ub[0] = 4.0
    assert ubs[0] == 4.0
    assert len(arena.column("flist_nbr")) == 0
    with pytest.raises(TypeError):
        arena.column("cover")  # Python-list side column, not an array


# ---------------------------------------------------------- search runs


def test_abandoned_run_publishes_arena_counters(tiny_dblp_system):
    """A deadline consumer closes the generator at a heartbeat yield;
    the arena's size counters must be published all the same."""
    system = tiny_dblp_system
    system.answer_cache.clear()
    query = " ".join([
        token for token in sorted(system.index.vocabulary())
        if len(system.index.matching_nodes(token)) >= 2
    ][:2])
    generator = system.search_anytime(query, k=5, heartbeat=1)
    snapshot = next(generator)
    assert not snapshot.proven_optimal
    generator.close()
    stats = system.last_search_stats
    assert not stats.served_from_cache
    assert stats.arena_candidates > 0
    assert stats.arena_peak_bytes > 0


def test_phase_timers_are_disjoint(tiny_imdb_system):
    """The five ``SearchStats`` phase timers never overlap.

    On a query that tightens candidates at the heap head and scores
    answers, their sum cannot exceed the wall time around ``run()``.
    A timer nested inside another — head tightening inside the bound
    timer, or the cheap bounds and scoring of admissions inside the
    expansion timer — would count the same seconds twice.
    """
    system = tiny_imdb_system
    match = system.matcher.match(PHASE_QUERY)
    params = dataclasses.replace(system.search_params, k=5, diameter=4)
    search = BranchAndBoundSearch(
        system.graph, system.scorer_for(match), match, params
    )
    start = time.perf_counter()
    search.run()
    wall = time.perf_counter() - start
    stats = search.stats
    assert stats.tightened > 0 and stats.answers_found > 0
    phases = (
        stats.bound_seconds, stats.cheap_bound_seconds,
        stats.tighten_seconds, stats.expand_seconds, stats.score_seconds,
    )
    assert all(seconds > 0.0 for seconds in phases), phases
    assert sum(phases) <= wall, (phases, wall)


def test_rollback_regions_never_reachable():
    """With ``_debug_validate`` the engine asserts, after every
    rollback, that no live heap entry or merge-partner id points into
    the reclaimed region — run a sweep with the checks armed."""
    rolled_back = 0
    ran = 0
    for seed in range(ROLLBACK_SEEDS):
        built = _search_for_seed(seed)
        if built is None:
            continue
        search, _ = built
        search._debug_validate = True
        search.run()
        ran += 1
        arena = search.last_arena
        assert search.stats.arena_candidates == len(arena)
        assert search.stats.arena_rollbacks == arena.rollbacks
        assert search.stats.arena_peak_bytes == arena.peak_bytes
        rolled_back += arena.rollbacks
    assert ran > 0
    assert rolled_back > 0, (
        "no rollback ever happened — the invariant was never exercised"
    )


def test_tightened_ub_matches_reference_bound_bitwise():
    """``arena.ub[cid]`` equals the from-scratch reference bound.

    For every tightened row (``fmap_start != NO_ID``) the candidate is
    rebuilt through the *validating* ``CandidateTree.from_arena`` and
    re-bounded by ``UpperBoundEstimator.upper_bound`` on a fresh
    estimator, so no factor list or bound memo is shared with the search.
    ``arena_bound`` performs the same float operations in the same
    order, so equality is exact — any drift means the arena changed
    the math, not just the bookkeeping.
    """
    checked = 0
    for seed in range(12):
        built = _search_for_seed(seed)
        if built is None:
            continue
        search, match = built
        search.run()
        arena = search.last_arena
        reference_bounds = UpperBoundEstimator(
            search.graph, search.scorer, semantics=search.params.semantics
        )
        rechecked = 0
        for cid in range(len(arena)):
            if arena.fmap_start[cid] == NO_ID:
                continue  # never tightened: ub is the cheap bound
            tree = CandidateTree.from_arena(arena, cid, match)
            reference = reference_bounds.upper_bound(tree)
            assert reference == arena.ub[cid], (
                f"tight bound drifts from the reference "
                f"(seed={seed} cid={cid})"
            )
            rechecked += 1
            if rechecked >= RECHECK_CAP:
                break
        checked += rechecked
    assert checked > 0


# ------------------------------------------------------------- mutations


class TestArenaMutationsAreCaught:
    """Intentionally corrupted arena state must fail the oracle."""

    def test_corrupted_cover_slice_is_caught(self, monkeypatch):
        """A damaged keyword-coverage mask produces bogus answers.

        ``_keyword_mask`` feeds both the per-candidate cover bitmask
        and the reduced-tree answer test; forcing bit 0 on makes
        incomplete trees look complete, and the differential oracle
        must notice within the sweep.
        """
        monkeypatch.setattr(
            arena_module,
            "_keyword_mask",
            lambda node_masks, node: node_masks.get(node, 0) | 1,
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(SWEEP):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )

    def test_deflated_admit_cap_is_caught(self, monkeypatch):
        """An inadmissible (too small) admit cap prunes real answers.

        A deflated cap only changes the result when the bound test
        stops the search while capped candidates still hold needed
        answers — rarer than a broken full bound, hence the longer
        sweep (the 0.01x deflation first trips at seed 141).
        """
        real = UpperBoundEstimator.admit_cap
        monkeypatch.setattr(
            UpperBoundEstimator,
            "admit_cap",
            lambda self, root, missing, sources:
                0.01 * real(self, root, missing, sources),
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(2 * SWEEP):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )

    def test_inflated_admit_cap_stays_sound(self, monkeypatch):
        """A loose cap may admit more but can never change the top-k."""
        real = UpperBoundEstimator.admit_cap
        monkeypatch.setattr(
            UpperBoundEstimator,
            "admit_cap",
            lambda self, root, missing, sources:
                4.0 * real(self, root, missing, sources),
        )
        for seed in range(30):
            check_case(
                random_case(seed),
                check_indexes=False,
                check_naive=False,
                check_strict=False,
            )


# ----------------------------------------------------------- LRU contains


def test_lru_contains_does_not_touch_counters():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert "a" in cache and "b" in cache
    assert "c" not in cache
    # Membership is pure: no hit/miss accounting, no recency refresh.
    assert cache.hits == 0 and cache.misses == 0
    cache.put("c", 3)  # evicts "a" — `in` above must not have bumped it
    assert "a" not in cache and "b" in cache and "c" in cache
