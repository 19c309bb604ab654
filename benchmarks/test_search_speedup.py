"""Benchmarks of the search-phase overhaul (lazy bounds + answer cache).

Three measurements on the synthetic IMDB workload stack, recorded to
``BENCH_search.json`` at the repository root:

* **bound-evaluation throughput** — the factor-list fast bound
  (:meth:`~repro.search.bounds.UpperBoundEstimator.upper_bound`,
  consuming the candidates' structurally shared transfer factors and
  the per-root potential-estimate tables) versus
  ``upper_bound_reference`` (the seed's per-candidate dict rebuild),
  over a corpus of candidates harvested from real searches;
* **candidate-admission throughput** — end-to-end lazy search versus
  the eager per-candidate reference-bound path (the seed behavior),
  measured as admitted candidates per wall-second;
* **warm-cache latency** — a repeated identical query served by the
  versioned answer cache versus the cold proven search.

A fourth measurement covers the flat candidate arena
(:mod:`repro.search.arena`):

* **arena admission throughput** — the admission *operation* (child
  component construction, columnar append, signature dedup) replayed
  from real searches' admission logs, arena rows versus the object
  path's ``CandidateTree`` construction with its incremental transfer
  maintenance and memoized tuples — the exact per-admission cost the
  arena replaces;
* **peak candidate memory** — tracemalloc peak growth of one full
  search under each engine (identical workload, both traced, so the
  instrumentation overhead cancels in the ratio).

Every timed comparison carries an exactness gate: the lazy/fast and
eager/reference searches must return identical score-tie classes, the
arena and object engines must agree the same way, and the warm-cache
result must equal the cold result answer-for-answer.  (The
oracle-backed confirmation that both modes — and the cache — agree
with brute force lives in ``tests/test_properties_search_cache.py``,
``tests/test_search_arena.py``, and the differential legs of
``repro.testing.differential_check``; graphs this size cannot be
enumerated exhaustively.  ``test_differential_arena_leg_runs`` below
fails — not skips — this smoke step if the arena leg ever drops out
of the differential harness.)

Floors asserted here (the ISSUEs' acceptance criteria): ≥3x bound
evaluation, ≥3x candidate admission, ≥5x warm-cache latency, ≥3x
arena admission throughput, arena peak candidate memory ≤0.5x the
object path's.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from bisect import insort
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest
from common import imdb_bench

from repro.search.arena import (
    NO_ID,
    CandidateArena,
    _merge_sorted,
    pack_edge,
)
from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.search.candidate import CandidateTree, TransferContext
from repro.testing import check_case, random_case

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"

#: Required speedup floors (the ISSUEs' acceptance criteria).
MIN_BOUND_EVAL_SPEEDUP = 3.0
MIN_ADMISSION_SPEEDUP = 3.0
MIN_WARM_CACHE_SPEEDUP = 5.0
MIN_ARENA_ADMISSION_SPEEDUP = 3.0

#: Ceiling on arena peak search memory relative to the object path.
MAX_ARENA_MEMORY_RATIO = 0.5

#: Queries drawn from the synthetic workload (pairs first — the paper's
#: complex queries — matching benchmarks/common.efficiency_queries).
QUERY_COUNT = 5

#: Cap on the harvested bound-evaluation corpus.
CORPUS_CAP = 400


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Wall-clock of the best of ``repeats`` runs (noise suppression)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _tie_classes(answers) -> List[Tuple[float, frozenset]]:
    """Collapse a ranked list into (score, {trees}) tie classes."""
    classes: List[Tuple[float, set]] = []
    for answer in answers:
        key = (
            tuple(sorted(answer.tree.nodes)),
            tuple(sorted(answer.tree.edges)),
        )
        if classes and classes[-1][0] == answer.score:
            classes[-1][1].add(key)
        else:
            classes.append((answer.score, {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


def _bench_queries(bench) -> List[str]:
    ordered = sorted(
        bench.synthetic_queries,
        key=lambda q: (q.kind != "distant_pair", q.kind != "adjacent_pair"),
    )
    texts: List[str] = []
    for query in ordered:
        match = bench.system.matcher.match(query.text)
        if match.matchable and len(match.keywords) >= 2:
            texts.append(query.text)
        if len(texts) >= QUERY_COUNT:
            break
    assert texts, "workload produced no matchable multi-keyword queries"
    return texts


def _make_search(
    system, query: str, lazy: bool, reference_bound: bool,
    engine: str = "object",
):
    match = system.matcher.match(query)
    scorer = system.scorer_for(match)
    params = dataclasses.replace(
        system.search_params, strict_merge=False, lazy_bounds=lazy,
        engine=engine,
    )
    search = BranchAndBoundSearch(system.graph, scorer, match, params)
    if reference_bound:
        # the seed's per-candidate bound path: rebuild transfer state
        # from the tree on every evaluation
        search.bounds.upper_bound = search.bounds.upper_bound_reference
    return search


def _bench_admission(system, queries: List[str]) -> Dict[str, object]:
    """End-to-end lazy/fast vs eager/reference, with the exactness gate."""
    modes = {
        "lazy_fast": dict(lazy=True, reference_bound=False),
        "eager_reference": dict(lazy=False, reference_bound=True),
    }
    results: Dict[str, Dict[str, float]] = {}
    answers: Dict[str, List] = {}
    for name, options in modes.items():
        wall = 0.0
        admitted = 0
        bound_evals = 0
        bound_seconds = 0.0
        answers[name] = []
        for query in queries:
            best = float("inf")
            for _ in range(2):
                search = _make_search(system, query, **options)
                start = time.perf_counter()
                result = search.run()
                elapsed = time.perf_counter() - start
                if elapsed < best:
                    best = elapsed
                    stats = search.stats
            assert search.last_proven
            wall += best
            admitted += stats.enqueued
            bound_evals += stats.bound_evals
            # full bounds at admission plus at the heap head (the two
            # disjoint timers that together cover every full bound)
            bound_seconds += stats.bound_seconds + stats.tighten_seconds
            answers[name].append(result)
        results[name] = {
            "wall_seconds": wall,
            "admitted": admitted,
            "admission_throughput": admitted / wall,
            "bound_evals": bound_evals,
            "bound_seconds": bound_seconds,
        }
    for got, want in zip(answers["lazy_fast"], answers["eager_reference"]):
        assert _tie_classes(got) == _tie_classes(want), (
            "lazy/fast and eager/reference searches disagree"
        )
    fast, ref = results["lazy_fast"], results["eager_reference"]
    return {
        "queries": len(queries),
        "lazy_fast": fast,
        "eager_reference": ref,
        "admission_speedup": (
            fast["admission_throughput"] / ref["admission_throughput"]
        ),
        "wall_speedup": ref["wall_seconds"] / fast["wall_seconds"],
    }


def _harvest_candidates(
    system, queries: List[str]
) -> List[Tuple[str, CandidateTree]]:
    """Candidates a real lazy search tight-bounds, tagged by query."""
    corpus: List[Tuple[str, CandidateTree]] = []
    per_query = max(1, CORPUS_CAP // len(queries))
    for query in queries:
        search = _make_search(
            system, query, lazy=True, reference_bound=False
        )
        recorded: List[CandidateTree] = []
        original = search._tight_bound

        def wrapped(cand, original=original, recorded=recorded):
            recorded.append(cand)
            return original(cand)

        search._tight_bound = wrapped
        search.run()
        step = max(1, len(recorded) // per_query)
        corpus.extend(
            (query, cand) for cand in recorded[::step][:per_query]
        )
    assert corpus, "searches evaluated no bounds"
    return corpus


def _bench_bound_eval(system, queries: List[str]) -> Dict[str, object]:
    """Per-evaluation cost of the fast bound vs the reference."""
    bounds_by_query = {
        query: _make_search(
            system, query, lazy=True, reference_bound=False
        ).bounds
        for query in queries
    }
    # candidates must be evaluated by their own query's estimator
    tagged = [
        (bounds_by_query[query], cand)
        for query, cand in _harvest_candidates(system, queries)
    ]
    reps = 20

    def run_fast() -> None:
        for estimator, cand in tagged:
            estimator.upper_bound(cand)

    def run_reference() -> None:
        for estimator, cand in tagged:
            estimator.upper_bound_reference(cand)

    for estimator, cand in tagged:  # exactness: bitwise parity
        assert estimator.upper_bound(cand) == (
            estimator.upper_bound_reference(cand)
        ), "fast and reference bounds diverge"
    run_fast()  # warm the per-root PE tables and generation caches
    ref_time = _best_of(lambda: [run_reference() for _ in range(reps)])
    fast_time = _best_of(lambda: [run_fast() for _ in range(reps)])
    return {
        "candidates": len(tagged),
        "repetitions": reps,
        "reference_seconds": ref_time,
        "fast_seconds": fast_time,
        "reference_throughput": len(tagged) * reps / ref_time,
        "fast_throughput": len(tagged) * reps / fast_time,
        "speedup": ref_time / fast_time,
    }


def _bench_warm_cache(system, queries: List[str]) -> Dict[str, object]:
    """Cold proven search vs the versioned answer cache, per query."""
    speedups: List[float] = []
    cold_total = warm_total = 0.0
    for query in queries:
        system.answer_cache.clear()
        system.matcher.match(query)  # charge match memoization up front
        start = time.perf_counter()
        cold_answers = system.search(query)
        cold = time.perf_counter() - start
        assert not system.last_search_stats.served_from_cache

        def run_warm() -> None:
            system.search(query)

        warm = _best_of(run_warm) or 1e-9
        warm_answers = system.search(query)
        assert system.last_search_stats.served_from_cache
        assert [(a.tree, a.score) for a in warm_answers] == [
            (a.tree, a.score) for a in cold_answers
        ], "warm-cache result differs from the cold search"
        speedups.append(cold / warm)
        cold_total += cold
        warm_total += warm
    system.answer_cache.clear()
    return {
        "queries": len(queries),
        "cold_seconds_total": cold_total,
        "warm_seconds_total": warm_total,
        "min_speedup": min(speedups),
        "median_speedup": sorted(speedups)[len(speedups) // 2],
    }


def _admission_log(arena) -> List[Tuple[int, int, int, int, int, int, int]]:
    """The surviving admissions of one arena run, in admission order.

    Each row carries everything a replay needs: the scalar columns plus
    the source-slice length (to tell covering grows from free ones).
    Rolled-back rows are gone, which is exactly right — the replay
    measures the cost of the admissions the search kept.
    """
    return [
        (
            arena.root[cid], arena.depth[cid], arena.diameter[cid],
            arena.parent[cid], arena.partner[cid], arena.cover[cid],
            arena.src_len[cid],
        )
        for cid in range(len(arena))
    ]


def _replay_arena(rows) -> CandidateArena:
    """Replay an admission log through the arena representation.

    Mirrors the engine's per-admission storage work: child component
    lists built from the parent's slices (insort for grows, linear
    merges for merges), the columnar append, and the signature dedup.
    """
    arena = CandidateArena()
    seen = set()
    for root, depth, diameter, parent, partner, cover, src_len in rows:
        if parent == NO_ID:
            nodes, edges, srcs = [root], [], [root]
        elif partner == NO_ID:
            nodes = list(arena.nodes_of(parent))
            insort(nodes, root)
            edges = list(arena.edges_of(parent))
            insort(edges, pack_edge(arena.root[parent], root))
            srcs = list(arena.sources_of(parent))
            if src_len > arena.src_len[parent]:
                insort(srcs, root)
        else:
            nodes, _ = _merge_sorted(
                arena.nodes_of(parent), arena.nodes_of(partner), dedup=True
            )
            edges, _ = _merge_sorted(
                arena.edges_of(parent), arena.edges_of(partner)
            )
            srcs, _ = _merge_sorted(
                arena.sources_of(parent), arena.sources_of(partner),
                dedup=True,
            )
        cid = arena.append_candidate(
            root, depth, diameter, nodes, edges, srcs, cover,
            parent, partner,
        )
        sig = (root, arena.node_bytes[cid], arena.edge_bytes[cid])
        assert sig not in seen
        seen.add(sig)
    return arena


def _replay_object(rows, match, scorer, graph) -> List[CandidateTree]:
    """Replay the same admission log through ``CandidateTree`` objects.

    The PR 5 per-admission cost: grow/merge construction (tree with
    frozen adjacency, incremental transfer maintenance, memoized sorted
    tuples and source lists) plus the signature dedup — everything the
    object path materializes before a candidate reaches the heap.
    """
    ctx = TransferContext(graph, scorer.dampening.rate)
    objects: List[CandidateTree] = []
    seen = set()
    for root, depth, diameter, parent, partner, cover, src_len in rows:
        if parent == NO_ID:
            cand = CandidateTree.initial(root, match)
        elif partner == NO_ID:
            cand = objects[parent].grow(root, match, ctx)
        else:
            cand = objects[parent].merge(objects[partner])
        sig = cand.signature()
        assert sig not in seen
        seen.add(sig)
        # heap-key / registration state the object path builds at admit
        cand.sorted_nodes
        cand.sorted_edges
        cand.sources(match)
        objects.append(cand)
    return objects


def _bench_arena(system, queries: List[str]) -> Dict[str, object]:
    """Arena vs object engine: memory, wall, and admission replay."""
    per_engine: Dict[str, Dict[str, object]] = {}
    answers: Dict[str, List] = {}
    logs = []
    # Pass 1, untraced: honest wall clocks (and the admission logs).
    for engine in ("object", "arena"):
        wall = 0.0
        admitted = 0
        capped = 0
        answers[engine] = []
        for query in queries:
            search = _make_search(
                system, query, lazy=True, reference_bound=False,
                engine=engine,
            )
            start = time.perf_counter()
            result = search.run()
            wall += time.perf_counter() - start
            assert search.last_proven
            answers[engine].append(result)
            stats = search.stats
            admitted += stats.enqueued
            if engine == "arena":
                capped += stats.admit_capped
                logs.append((
                    query, _admission_log(search.last_arena),
                    search.match, search.scorer,
                ))
        per_engine[engine] = {
            "wall_seconds": wall,
            "admitted": admitted,
        }
        if engine == "arena":
            per_engine[engine]["admit_capped"] = capped
    # Pass 2, traced: peak memory only (tracing skews the clock, but
    # identically for both engines, so the ratio stands).
    for engine in ("object", "arena"):
        peak_bytes = 0
        for query in queries:
            search = _make_search(
                system, query, lazy=True, reference_bound=False,
                engine=engine,
            )
            tracemalloc.start()
            base, _ = tracemalloc.get_traced_memory()
            search.run()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_bytes += peak - base
        per_engine[engine]["peak_bytes"] = peak_bytes
    for got, want in zip(answers["arena"], answers["object"]):
        assert _tie_classes(got) == _tie_classes(want), (
            "arena and object engines disagree"
        )

    replayed = sum(len(rows) for _, rows, _, _ in logs)
    graph = system.graph
    arena_seconds = _best_of(
        lambda: [_replay_arena(rows) for _, rows, _, _ in logs]
    )
    object_seconds = _best_of(
        lambda: [
            _replay_object(rows, match, scorer, graph)
            for _, rows, match, scorer in logs
        ]
    )
    obj, arn = per_engine["object"], per_engine["arena"]
    return {
        "queries": len(queries),
        "object": obj,
        "arena": arn,
        "admission_replay": {
            "admissions": replayed,
            "object_seconds": object_seconds,
            "arena_seconds": arena_seconds,
            "object_throughput": replayed / object_seconds,
            "arena_throughput": replayed / arena_seconds,
            "speedup": object_seconds / arena_seconds,
        },
        "memory_ratio": arn["peak_bytes"] / obj["peak_bytes"],
        "wall_speedup": obj["wall_seconds"] / arn["wall_seconds"],
    }


def _record(payload: Dict[str, object], path: Path = RESULTS_PATH) -> None:
    history: List[Dict[str, object]] = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(payload)
    path.write_text(json.dumps(history, indent=2) + "\n")


def test_search_speedups():
    """Bound eval ≥ 3x, admission ≥ 3x, warm cache ≥ 5x, arena
    admission ≥ 3x at ≤ 0.5x memory — all exactness-gated."""
    bench = imdb_bench()
    system = bench.system
    queries = _bench_queries(bench)
    bound_eval = _bench_bound_eval(system, queries)
    admission = _bench_admission(system, queries)
    warm = _bench_warm_cache(system, queries)
    arena = _bench_arena(system, queries)
    _record({
        "workload": "synthetic-imdb",
        "bound_evaluation": bound_eval,
        "admission": admission,
        "warm_cache": warm,
        "arena": arena,
    })
    print(
        f"\nbound evaluation:    {bound_eval['speedup']:.1f}x "
        f"({bound_eval['reference_seconds']:.4f}s -> "
        f"{bound_eval['fast_seconds']:.4f}s over "
        f"{bound_eval['candidates']} candidates)"
    )
    print(
        f"candidate admission: {admission['admission_speedup']:.1f}x "
        f"throughput (end-to-end wall {admission['wall_speedup']:.1f}x)"
    )
    print(
        f"warm answer cache:   {warm['min_speedup']:.0f}x min / "
        f"{warm['median_speedup']:.0f}x median"
    )
    replay = arena["admission_replay"]
    print(
        f"arena admission:     {replay['speedup']:.1f}x "
        f"({replay['object_seconds'] / replay['admissions'] * 1e6:.1f}us "
        f"-> {replay['arena_seconds'] / replay['admissions'] * 1e6:.1f}us "
        f"per admit over {replay['admissions']} admissions)"
    )
    print(
        f"arena peak memory:   {arena['memory_ratio']:.2f}x of the "
        f"object path (wall {arena['wall_speedup']:.2f}x, "
        f"{arena['arena']['admit_capped']} capped admits)"
    )
    assert bound_eval["speedup"] >= MIN_BOUND_EVAL_SPEEDUP, (
        f"bound evaluation regressed: {bound_eval['speedup']:.2f}x "
        f"< {MIN_BOUND_EVAL_SPEEDUP}x"
    )
    assert admission["admission_speedup"] >= MIN_ADMISSION_SPEEDUP, (
        f"candidate admission regressed: "
        f"{admission['admission_speedup']:.2f}x < {MIN_ADMISSION_SPEEDUP}x"
    )
    assert warm["min_speedup"] >= MIN_WARM_CACHE_SPEEDUP, (
        f"warm-cache latency regressed: {warm['min_speedup']:.2f}x "
        f"< {MIN_WARM_CACHE_SPEEDUP}x"
    )
    assert replay["speedup"] >= MIN_ARENA_ADMISSION_SPEEDUP, (
        f"arena admission regressed: {replay['speedup']:.2f}x "
        f"< {MIN_ARENA_ADMISSION_SPEEDUP}x"
    )
    assert arena["memory_ratio"] <= MAX_ARENA_MEMORY_RATIO, (
        f"arena peak memory regressed: {arena['memory_ratio']:.2f}x "
        f"> {MAX_ARENA_MEMORY_RATIO}x of the object path"
    )


def test_differential_arena_leg_runs():
    """The differential harness must exercise the arena engine.

    A *failure* (never a skip): if the arena leg silently dropped out
    of :func:`repro.testing.differential_check`, every exactness claim
    the arena benchmarks make would rest on nothing.
    """
    for seed in range(20):
        report = check_case(
            random_case(seed),
            check_indexes=False, check_naive=False, check_strict=False,
        )
        if report.trivial:
            continue
        if "arena-engine" not in report.engines:
            pytest.fail(
                "differential_check ran without its arena-engine leg"
            )
        return
    pytest.fail("20 consecutive trivial cases — the generator is broken")
