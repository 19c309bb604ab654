"""Benchmark of the versioned answer cache on the search path.

One measurement on the synthetic IMDB workload stack, appended to
``BENCH_search.json`` at the repository root:

* **warm-cache latency** — a repeated identical query served by the
  versioned answer cache versus the cold proven search.

The timed comparison carries an exactness gate: the warm-cache result
must equal the cold result answer-for-answer.  (The oracle-backed
confirmation that the search and the cache agree with brute force lives
in the differential legs of ``repro.testing.differential_check``;
graphs this size cannot be enumerated exhaustively.)

Floor asserted here: ≥5x warm-cache latency.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List

from common import imdb_bench

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"

#: Required speedup floor.
MIN_WARM_CACHE_SPEEDUP = 5.0

#: Queries drawn from the synthetic workload (pairs first — the paper's
#: complex queries — matching benchmarks/common.efficiency_queries).
QUERY_COUNT = 5


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Wall-clock of the best of ``repeats`` runs (noise suppression)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
    """Warm cache ≥ 5x — exactness-gated."""
    bench = imdb_bench()
    system = bench.system
    queries = _bench_queries(bench)
    warm = _bench_warm_cache(system, queries)
    _record({"workload": "synthetic-imdb", "warm_cache": warm})
    print(
        f"\nwarm answer cache:   {warm['min_speedup']:.0f}x min / "
        f"{warm['median_speedup']:.0f}x median"
    )
    assert warm["min_speedup"] >= MIN_WARM_CACHE_SPEEDUP, (
        f"warm-cache latency regressed: {warm['min_speedup']:.2f}x "
        f"< {MIN_WARM_CACHE_SPEEDUP}x"
    )
