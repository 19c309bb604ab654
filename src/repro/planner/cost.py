"""Plan candidates and the heuristic cost model that seeds them.

A :class:`PlanCandidate` is one concrete configuration over the real
knob space: a diameter cap, graph index
kind/horizon, answer-cache capacity, and the serving pool/batching
knobs.  Candidates are *deltas from the running configuration* — the
:func:`reference_candidate` mirrors what the system has now, and the
generator proposes variations the analyzer's features justify.

:func:`estimate_cost` is deliberately crude: an expected
milliseconds-per-request figure whose only jobs are (a) ranking
candidates plausibly so the replay rounds start with the promising
ones, and (b) being *wrong safely* — every recommendation is validated
by replaying the capture (:mod:`repro.planner.plan`), so a broken cost
model costs replay time, never correctness.  The mutation test inverts
its sign to prove exactly that.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import SearchParams, ServingParams
from .analyzer import WorkloadFeatures

#: Answer-cache lookup cost (ms) — measured ~50µs, rounded up.
_HIT_MS = 0.1

#: Duplicate fraction above which the answer cache is the main lever.
_CACHE_LEVER_DUP = 0.3

#: Duplicate fraction at or above which the mix is hit-dominated and
#: dropping the batching wait is worth validating.
_BATCH_WAIT_LEVER_DUP = 0.6

#: Free-connector ratio above which a distance index is proposed.
_INDEX_LEVER_RATIO = 0.3

_INDEX_CLASS_KIND = {"StarIndex": "star", "PairsIndex": "pairs"}


@dataclass(frozen=True)
class PlanCandidate:
    """One concrete configuration over the planner's knob space."""

    name: str
    diameter: Optional[int] = None
    index_kind: Optional[str] = None
    index_horizon: int = 8
    index_workers: int = 1
    answer_cache_size: int = 256
    workers: int = 4
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    notes: Tuple[str, ...] = ()

    def search_params(self, base: SearchParams) -> SearchParams:
        """``base`` with this candidate's search knobs applied."""
        if self.diameter is None:
            return base
        return dataclasses.replace(base, diameter=self.diameter)

    def serving_params(self, base: ServingParams) -> ServingParams:
        """``base`` with this candidate's serving knobs applied."""
        return dataclasses.replace(
            base,
            workers=self.workers,
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
        )

    def knobs(self) -> Tuple:
        """Structural identity (everything but name/notes) for dedup."""
        return (
            self.diameter, self.index_kind,
            self.index_horizon, self.index_workers,
            self.answer_cache_size, self.workers, self.max_batch_size,
            self.max_wait_ms,
        )

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["notes"] = list(self.notes)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PlanCandidate":
        # Unknown keys are dropped, among them the ``engine`` that plans
        # written before the engine knob was removed carry.
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        kwargs["notes"] = tuple(kwargs.get("notes") or ())
        return cls(**kwargs)


def reference_candidate(
    system: Any,
    serving: Optional[ServingParams] = None,
) -> PlanCandidate:
    """The candidate mirroring the system's current configuration."""
    params = system.search_params
    serving = serving or ServingParams()
    index = system.graph_index
    index_kind = (
        _INDEX_CLASS_KIND.get(type(index).__name__)
        if index is not None else None
    )
    return PlanCandidate(
        name="reference",
        diameter=params.diameter,
        index_kind=index_kind,
        index_horizon=(
            getattr(index, "horizon", 8) if index is not None else 8
        ),
        answer_cache_size=system.answer_cache.stats().maxsize,
        workers=serving.workers,
        max_batch_size=serving.max_batch_size,
        max_wait_ms=serving.max_wait_ms,
        notes=("the running configuration",),
    )


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power <<= 1
    return power


def estimate_cost(
    features: WorkloadFeatures, candidate: PlanCandidate
) -> float:
    """Expected milliseconds per request under ``candidate``.

    Monotone in the intuitive directions: deeper diameters and bigger
    match sets make cold searches costlier; an index discounts
    connector-heavy searches; the answer cache converts the
    duplicate fraction into near-free hits **only** while the working
    set fits (an LRU under cyclic access larger than capacity is a
    deterministic 0% hit rate — the thrash cliff below).
    """
    diameter = (
        candidate.diameter if candidate.diameter is not None
        else (features.observed_diameter or 4)
    )
    cold_ms = 2.0 * (1.7 ** diameter) * (
        1.0 + features.mean_match_size / 8.0
    )
    if candidate.index_kind is not None:
        cold_ms *= 1.0 - 0.5 * features.free_connector_ratio
    if candidate.answer_cache_size >= features.unique_queries:
        coverage = 1.0
    elif features.unique_queries:
        # Thrash cliff: cyclic re-arrival over a working set larger
        # than the LRU evicts every entry before its reuse.
        coverage = 0.1 * (
            candidate.answer_cache_size / features.unique_queries
        )
    else:
        coverage = 0.0
    hit_rate = features.duplicate_fraction * coverage
    cost = (1.0 - hit_rate) * cold_ms + hit_rate * _HIT_MS
    # A forming batch waits for companions; pure overhead once the mix
    # is hit-dominated.
    cost += candidate.max_wait_ms * hit_rate * 0.5
    return cost


def generate_candidates(
    features: WorkloadFeatures,
    reference: PlanCandidate,
    limit: int = 6,
    cost_model: Any = None,
) -> List[PlanCandidate]:
    """Feature-driven candidate proposals, cheapest-estimated first.

    Each knob's heuristic fires only when the analyzer saw the workload
    shape it serves, so small captures produce small candidate sets.
    The reference is never in the returned list — the search loop
    always measures it separately and it can never be eliminated.
    """
    model = cost_model or estimate_cost
    proposals: List[PlanCandidate] = []

    if (
        features.duplicate_fraction >= _CACHE_LEVER_DUP
        and features.unique_queries > reference.answer_cache_size
    ):
        size = _next_pow2(2 * features.unique_queries)
        proposals.append(dataclasses.replace(
            reference,
            name=f"cache-{size}",
            answer_cache_size=size,
            notes=(
                f"{features.unique_queries} unique classes thrash the "
                f"{reference.answer_cache_size}-entry cache at "
                f"{features.duplicate_fraction:.0%} duplicates",
            ),
        ))

    if (
        features.observed_diameter is not None
        and reference.diameter is not None
        and features.observed_diameter < reference.diameter
    ):
        proposals.append(dataclasses.replace(
            reference,
            name=f"diameter-{features.observed_diameter}",
            diameter=features.observed_diameter,
            notes=(
                f"observed answers top out at diameter "
                f"{features.observed_diameter} < configured "
                f"{reference.diameter}",
            ),
        ))

    if (
        features.free_connector_ratio >= _INDEX_LEVER_RATIO
        and reference.index_kind is None
    ):
        proposals.append(dataclasses.replace(
            reference,
            name="star-index",
            index_kind="star",
            notes=(
                f"{features.free_connector_ratio:.0%} of arrivals need "
                "free connectors; a star index prunes their expansion",
            ),
        ))

    if (
        features.duplicate_fraction >= _BATCH_WAIT_LEVER_DUP
        and reference.max_wait_ms > 0
    ):
        proposals.append(dataclasses.replace(
            reference,
            name="no-batch-wait",
            max_wait_ms=0.0,
            notes=(
                "hit-dominated mix; batching wait only adds latency",
            ),
        ))

    seen = {reference.knobs()}
    unique: List[PlanCandidate] = []
    for candidate in proposals:
        if candidate.knobs() in seen:
            continue
        seen.add(candidate.knobs())
        unique.append(candidate)
    unique.sort(key=lambda c: model(features, c))
    return unique[: max(0, limit)]
