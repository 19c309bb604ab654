"""Workload analysis: fold a capture into planner-ready features.

The planner's input is the capture → :class:`~repro.obs.workload.Workload`
loop shipped by the observability layer.  This module reduces a workload
(or, coarsely, a live ``/stats`` payload) to the handful of numbers the
cost model and candidate generator consume:

* **repetition** — duplicate fraction, hot-class share, unique class
  count: decides whether the answer cache is the lever and how big it
  must be to stop thrashing;
* **query shape** — keyword counts, keyword-frequency skew/entropy, and
  the **free-connector ratio**: the arrival-weighted fraction of query
  classes whose keywords never co-occur in a single node, so every
  answer needs free connector nodes.  This is the paper's AOL-mix vs
  synthetic-mix distinction, and it is what a distance index (pairs or
  star) prunes for;
* **answer shape** — observed answer-tree diameters and match-set
  sizes, probed through the live system: decides diameter caps;
* **SLA** — deadline distribution of the recorded requests.

Probing is bounded (``probe`` top classes for diameters, a few hundred
classes for match sets), so analysis stays cheap next to a single
replay round.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..exceptions import ReproError
from ..obs.workload import Workload

#: Match-set probing cap: beyond this many classes the mean/max match
#: sizes are estimated from a prefix (classes are visited hottest-first,
#: so the estimate covers the arrivals that matter).
MATCH_PROBE_LIMIT = 512


@dataclass
class WorkloadFeatures:
    """The analyzer's summary of one workload (JSON-friendly)."""

    source: str = "capture"
    total_arrivals: int = 0
    unique_queries: int = 0
    duplicate_fraction: float = 0.0
    hot_share: float = 0.0
    period_seconds: float = 0.0
    arrival_qps: float = 0.0
    mean_keywords: float = 0.0
    multi_keyword_fraction: float = 0.0
    keyword_skew: float = 0.0
    keyword_entropy: float = 0.0
    free_connector_ratio: float = 0.0
    probed_queries: int = 0
    observed_diameter: Optional[int] = None
    mean_match_size: float = 0.0
    max_match_size: int = 0
    deadline_fraction: float = 0.0
    deadline_p50_ms: float = 0.0
    deadline_p95_ms: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        """Human-readable summary (``cirank stats --plan`` / ``plan``)."""
        lines = [
            f"workload features ({self.source}):",
            f"  arrivals:            {self.total_arrivals}"
            f" ({self.unique_queries} unique classes)",
            f"  duplicate fraction:  {self.duplicate_fraction:.2f}"
            f" (hot share {self.hot_share:.2f})",
            f"  period:              {self.period_seconds:.1f}s"
            f" ({self.arrival_qps:.1f} qps)",
            f"  keywords/query:      {self.mean_keywords:.2f}"
            f" ({self.multi_keyword_fraction:.0%} multi-keyword)",
            f"  keyword skew:        {self.keyword_skew:.2f}"
            f" (entropy {self.keyword_entropy:.2f})",
            f"  free-connector:      {self.free_connector_ratio:.2f}"
            f" over {self.probed_queries} probed classes",
            f"  match size:          mean {self.mean_match_size:.1f}"
            f" max {self.max_match_size}",
            "  observed diameter:   "
            + (
                str(self.observed_diameter)
                if self.observed_diameter is not None else "unprobed"
            ),
            f"  deadlines:           {self.deadline_fraction:.0%} of"
            f" arrivals (p50 {self.deadline_p50_ms:.0f}ms"
            f" p95 {self.deadline_p95_ms:.0f}ms)",
        ]
        return "\n".join(lines)


def _tokens(query: str, system: Optional[Any]) -> List[str]:
    """Analyzed keywords of one query (analyzer when available)."""
    if system is not None:
        try:
            return list(system.index.analyzer.analyze_query(query))
        except Exception:
            return []
    return [t for t in query.lower().split() if t]


def analyze_workload(
    workload: Workload,
    system: Optional[Any] = None,
    probe: int = 8,
) -> WorkloadFeatures:
    """Fold a workload (plus an optional live system) into features.

    Without ``system`` the text statistics fall back to whitespace
    tokenization and the free-connector ratio approximates to the
    multi-keyword fraction (a keyword pair in one node is rare enough
    that multi-keyword AND queries usually need connectors).  With a
    system, the matcher decides per class whether any single node covers
    every keyword, and the top ``probe`` classes are searched to observe
    real answer diameters.
    """
    from ..serving.loadgen import percentile

    features = WorkloadFeatures()
    entries = sorted(
        workload.entries, key=lambda e: (-e.arrival_count, e.query)
    )
    total = workload.total_arrivals
    features.total_arrivals = total
    features.unique_queries = len(entries)
    features.duplicate_fraction = workload.duplicate_fraction()
    features.period_seconds = workload.period_seconds
    if total == 0:
        return features
    features.hot_share = entries[0].arrival_count / total
    if workload.period_seconds > 0:
        features.arrival_qps = total / workload.period_seconds

    # ---- text shape (arrival-weighted over query classes)
    keyword_counts: Dict[str, int] = {}
    keyword_arrivals = 0
    multi_arrivals = 0
    token_lists: Dict[str, List[str]] = {}
    for entry in entries:
        tokens = _tokens(entry.query, system)
        token_lists[entry.query] = tokens
        if not tokens:
            continue
        keyword_arrivals += entry.arrival_count
        if len(tokens) > 1:
            multi_arrivals += entry.arrival_count
        for token in tokens:
            keyword_counts[token] = (
                keyword_counts.get(token, 0) + entry.arrival_count
            )
    if keyword_arrivals:
        features.mean_keywords = (
            sum(
                len(token_lists[e.query]) * e.arrival_count
                for e in entries
            ) / keyword_arrivals
        )
        features.multi_keyword_fraction = multi_arrivals / keyword_arrivals
    occurrences = sum(keyword_counts.values())
    if occurrences:
        features.keyword_skew = max(keyword_counts.values()) / occurrences
        if len(keyword_counts) > 1:
            entropy = -sum(
                (c / occurrences) * math.log(c / occurrences)
                for c in keyword_counts.values()
            )
            features.keyword_entropy = entropy / math.log(len(keyword_counts))

    # ---- connector / match shape (needs the live matcher)
    if system is not None:
        probed = 0
        connector_arrivals = 0
        weighted_arrivals = 0
        match_sizes: List[int] = []
        for entry in entries[:MATCH_PROBE_LIMIT]:
            try:
                match = system._match_for(entry.query)
            except ReproError:
                continue
            probed += 1
            match_sizes.append(len(match.all_nodes))
            weighted_arrivals += entry.arrival_count
            if len(match.keywords) > 1 and not any(
                len(kws) == len(match.keywords)
                for kws in match.keywords_of.values()
            ):
                # No single node covers the whole query: every answer
                # needs free connector nodes (the AOL-mix shape).
                connector_arrivals += entry.arrival_count
        features.probed_queries = probed
        if weighted_arrivals:
            features.free_connector_ratio = (
                connector_arrivals / weighted_arrivals
            )
        if match_sizes:
            features.mean_match_size = sum(match_sizes) / len(match_sizes)
            features.max_match_size = max(match_sizes)
        diameters: List[int] = []
        for entry in entries[: max(0, probe)]:
            try:
                answers = system.search(
                    entry.query, k=entry.k, diameter=entry.diameter,
                )
            except ReproError:
                continue
            diameters.extend(a.tree.diameter for a in answers)
        if diameters:
            features.observed_diameter = max(diameters)
    else:
        features.free_connector_ratio = features.multi_keyword_fraction

    # ---- SLA
    deadline_arrivals = [
        e.deadline_ms for e in entries for _ in range(e.arrival_count)
        if e.deadline_ms > 0
    ]
    features.deadline_fraction = len(deadline_arrivals) / total
    if deadline_arrivals:
        features.deadline_p50_ms = percentile(deadline_arrivals, 50)
        features.deadline_p95_ms = percentile(deadline_arrivals, 95)
    return features


def features_from_stats(payload: Dict[str, Any]) -> WorkloadFeatures:
    """Coarse features from a live ``/stats`` document.

    The counters cannot recover per-class structure (no query texts
    cross the stats surface), so only the repetition and SLA features
    are populated; ``cirank plan --from-stats`` uses this for
    heuristic-only recommendations and says so.
    """
    features = WorkloadFeatures(source="stats")
    received = int(payload.get("received", 0))
    executed = int(payload.get("executed", 0))
    coalesced = int(payload.get("coalesced", 0))
    cache_served = int(payload.get("cache_served", 0))
    features.total_arrivals = received
    if received:
        features.duplicate_fraction = min(
            1.0, (coalesced + cache_served) / received
        )
    if executed:
        features.deadline_fraction = (
            int(payload.get("deadline_expired", 0)) / executed
        )
    cache = payload.get("answer_cache") or {}
    features.unique_queries = int(cache.get("size", 0))
    return features
