"""The replay-validated planner loop: analyze → propose → prove.

:func:`plan_capture` is the planner's engine.  Given a live
:class:`~repro.system.CIRankSystem` and the raw records of a PR-8
capture, it

1. folds the capture into :class:`~repro.planner.analyzer.WorkloadFeatures`;
2. proposes :class:`~repro.planner.cost.PlanCandidate` configurations
   seeded by the per-knob heuristics;
3. **measures** every candidate by replaying the capture against the
   warm system under that configuration, successively halving the
   candidate set over growing capture *prefixes* (prefixes, not
   strides: real captures are cyclic, and stride-sampling one shrinks
   the working set — which is exactly the cache-thrash signal a
   cache-size candidate exists to exploit);
4. **gates** the winner on tie-class parity: for every unique query
   class, the candidate configuration must return answers tie-class
   identical to the reference configuration's.  A faster-but-wrong
   candidate (say, a diameter cap below the workload's real answer
   diameter) is marked ``parity_ok=False`` and can never be chosen.

The reference configuration is measured in every round and is never
eliminated, so the final report always contains the baseline the
speedup claim is relative to, and falling back to it is always safe.

A leg is measured in-process: worker threads drive the capture through
:func:`~repro.serving.deadline.run_with_deadline` on the warm system,
with no sockets.  Candidates differ only in search-side knobs (diameter,
index, answer-cache size), so a socket path would add the same cost to
every leg.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..obs.replay import tie_classes_direct
from ..obs.workload import Workload
from .analyzer import WorkloadFeatures, analyze_workload
from .cost import (
    PlanCandidate,
    estimate_cost,
    generate_candidates,
    reference_candidate,
)

#: Parity divergences recorded per candidate before truncating.
_MAX_PARITY_FAILURES = 5

#: Candidate leg guardrail: a request is cut off (and its candidate
#: eliminated) once it exceeds this multiple of the reference leg's
#: p99 latency.  A configuration that slow on any request can never
#: win, and without the guard a pathological proposal would hold the
#: whole plan hostage.
_LEG_DEADLINE_FACTOR = 20.0

#: Floor for the candidate-leg request deadline (ms), so a very fast
#: reference does not cut candidates off on scheduler noise.
_LEG_DEADLINE_FLOOR_MS = 250.0


@dataclass
class CandidateResult:
    """One candidate's estimated cost, measurements, and parity verdict."""

    candidate: PlanCandidate
    estimated_cost: float
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    throughput_qps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    errors: int = 0
    parity_ok: Optional[bool] = None
    parity_failures: List[str] = field(default_factory=list)
    eliminated_round: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "candidate": self.candidate.as_dict(),
            "estimated_cost": self.estimated_cost,
            "rounds": list(self.rounds),
            "throughput_qps": self.throughput_qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "errors": self.errors,
            "parity_ok": self.parity_ok,
            "parity_failures": list(self.parity_failures),
            "eliminated_round": self.eliminated_round,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CandidateResult":
        return cls(
            candidate=PlanCandidate.from_dict(payload["candidate"]),
            estimated_cost=payload.get("estimated_cost", 0.0),
            rounds=list(payload.get("rounds", [])),
            throughput_qps=payload.get("throughput_qps", 0.0),
            p50_ms=payload.get("p50_ms", 0.0),
            p99_ms=payload.get("p99_ms", 0.0),
            errors=payload.get("errors", 0),
            parity_ok=payload.get("parity_ok"),
            parity_failures=list(payload.get("parity_failures", [])),
            eliminated_round=payload.get("eliminated_round"),
        )


@dataclass
class PlanReport:
    """The planner's full output: features, scores, and the choice."""

    features: WorkloadFeatures
    reference: CandidateResult
    candidates: List[CandidateResult]
    chosen: str
    validated: bool
    speedup: float
    why: List[str]
    budget: int
    rounds: int

    @property
    def chosen_candidate(self) -> PlanCandidate:
        if self.chosen == self.reference.candidate.name:
            return self.reference.candidate
        for result in self.candidates:
            if result.candidate.name == self.chosen:
                return result.candidate
        raise ReproError(f"chosen candidate {self.chosen!r} not in report")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "features": self.features.as_dict(),
            "reference": self.reference.as_dict(),
            "candidates": [r.as_dict() for r in self.candidates],
            "chosen": self.chosen,
            "chosen_config": self.chosen_candidate.as_dict(),
            "validated": self.validated,
            "speedup": self.speedup,
            "why": list(self.why),
            "budget": self.budget,
            "rounds": self.rounds,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PlanReport":
        # Reports written by older versions may carry retired features
        # and a ``transport`` key; both are ignored.
        known = {f.name for f in dataclasses.fields(WorkloadFeatures)}
        features = WorkloadFeatures(**{
            k: v for k, v in payload["features"].items() if k in known
        })
        return cls(
            features=features,
            reference=CandidateResult.from_dict(payload["reference"]),
            candidates=[
                CandidateResult.from_dict(c)
                for c in payload.get("candidates", [])
            ],
            chosen=payload["chosen"],
            validated=payload.get("validated", False),
            speedup=payload.get("speedup", 1.0),
            why=list(payload.get("why", [])),
            budget=payload.get("budget", 0),
            rounds=payload.get("rounds", 0),
        )

    def render(self) -> str:
        """Human-readable plan summary (the CLI's default output)."""
        lines = [self.features.render(), ""]
        lines.append(
            f"measured over {self.budget} replayed requests "
            f"({self.rounds} round(s)):"
        )
        rows = [self.reference] + self.candidates
        for result in rows:
            parity = {True: "parity ok", False: "PARITY FAIL", None: "-"}[
                result.parity_ok
            ]
            status = (
                f"eliminated r{result.eliminated_round}"
                if result.eliminated_round is not None else parity
            )
            lines.append(
                f"  {result.candidate.name:<16} "
                f"{result.throughput_qps:8.1f} qps  "
                f"p99 {result.p99_ms:7.1f}ms  "
                f"est {result.estimated_cost:6.2f}ms  {status}"
            )
        lines.append("")
        lines.append(
            f"chosen: {self.chosen} "
            f"({self.speedup:.2f}x vs reference"
            + (", replay-validated)" if self.validated else ", heuristic)")
        )
        for reason in self.why:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


class _ConfigApplier:
    """Apply candidates to one warm system, restore on exit.

    Indexes are memoized per (kind, horizon) so a candidate set with an
    index proposal builds it once, not once per round; answer caches
    are memoized per capacity so re-applying the reference restores the
    original object (its cumulative counters included).
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self._base_params = system.search_params
        self._base_cache = system.answer_cache
        self._base_index = system.graph_index
        self._caches = {system.answer_cache.stats().maxsize: system.answer_cache}
        self._indexes: Dict[Tuple[str, Optional[int]], Any] = {}
        if system.graph_index is not None:
            index = system.graph_index
            kind = {"StarIndex": "star", "PairsIndex": "pairs"}.get(
                type(index).__name__
            )
            if kind is not None:
                self._indexes[(kind, getattr(index, "horizon", None))] = index

    def apply(self, candidate: PlanCandidate) -> None:
        from ..storage.answer_cache import AnswerCache

        system = self.system
        system.search_params = candidate.search_params(self._base_params)
        size = candidate.answer_cache_size
        cache = self._caches.get(size)
        if cache is None:
            cache = AnswerCache(size)
            self._caches[size] = cache
        system._answer_cache = cache
        if candidate.index_kind is None:
            system.graph_index = None
            return
        key = (candidate.index_kind, candidate.index_horizon)
        index = self._indexes.get(key)
        if index is None:
            builder = (
                system.build_star_index
                if candidate.index_kind == "star"
                else system.build_pairs_index
            )
            index = builder(
                horizon=candidate.index_horizon,
                workers=candidate.index_workers,
            )
            self._indexes[key] = index
        system.graph_index = index

    def restore(self) -> None:
        self.system.search_params = self._base_params
        self.system._answer_cache = self._base_cache
        self.system.graph_index = self._base_index


def _measure_direct(
    system: Any,
    prefix: Sequence[Dict[str, Any]],
    concurrency: int,
    deadline_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """Drive ``prefix`` through the system from worker threads.

    Every request runs through
    :func:`~repro.serving.deadline.run_with_deadline` — with no budget
    for the reference leg, with the leg guardrail for candidate legs —
    so all legs pay the identical anytime-generator overhead and a
    pathological candidate is cut off at the deadline instead of
    stalling the plan.  The first deadline hit drains the work queue:
    the leg is already disqualified, finishing it would only burn time.
    """
    from ..serving.deadline import run_with_deadline
    from ..serving.loadgen import percentile

    work: SimpleQueue = SimpleQueue()
    for record in prefix:
        work.put(record)
    latencies: List[float] = []
    errors = [0]
    timeouts = [0]
    lock = threading.Lock()

    def drain() -> None:
        while True:
            try:
                work.get_nowait()
            except Empty:
                return

    def worker() -> None:
        while True:
            try:
                record = work.get_nowait()
            except Empty:
                return
            kwargs: Dict[str, Any] = {}
            if record.get("k") is not None:
                kwargs["k"] = int(record["k"])
            if record.get("diameter") is not None:
                kwargs["diameter"] = int(record["diameter"])
            t0 = time.perf_counter()
            failed = timed_out = False
            try:
                outcome = run_with_deadline(
                    system,
                    record.get("query", ""),
                    deadline_ms=deadline_ms or 0.0,
                    **kwargs,
                )
                timed_out = outcome.deadline_hit
            except ReproError:
                failed = True
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                if timed_out:
                    timeouts[0] += 1
                elif failed:
                    errors[0] += 1
                else:
                    latencies.append(elapsed_ms)
            if timed_out:
                drain()
                return

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"plan-{i}", daemon=True)
        for i in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return {
        "requests": len(prefix),
        "elapsed_seconds": elapsed,
        "throughput_qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "errors": errors[0],
        "timeouts": timeouts[0],
    }


def _measure(
    system: Any,
    applier: _ConfigApplier,
    candidate: PlanCandidate,
    prefix: Sequence[Dict[str, Any]],
    concurrency: int,
    deadline_ms: Optional[float] = None,
) -> Dict[str, Any]:
    applier.apply(candidate)
    # Every leg starts answer-cache cold: hits must be earned from the
    # replayed prefix itself, or a candidate measured second would
    # free-ride on its predecessor's warm entries.
    system.answer_cache.clear()
    return _measure_direct(system, prefix, concurrency, deadline_ms)


def _leg_deadline_ms(reference_measurement: Dict[str, Any]) -> Optional[float]:
    """Candidate-leg request deadline from the reference leg's p99."""
    p99 = reference_measurement.get("p99_ms", float("nan"))
    if p99 != p99 or p99 <= 0:  # nan (all-error leg) or degenerate
        return None
    return max(_LEG_DEADLINE_FLOOR_MS, _LEG_DEADLINE_FACTOR * p99)


def _class_key(entry: Any) -> Tuple:
    return (entry.query, entry.k, entry.diameter)


def _class_answers(system: Any, entry: Any):
    kwargs: Dict[str, Any] = {"k": entry.k}
    if entry.diameter is not None:
        kwargs["diameter"] = entry.diameter
    return system.search(entry.query, **kwargs)


def check_parity(
    system: Any,
    applier: _ConfigApplier,
    candidate: PlanCandidate,
    workload: Workload,
    expected: Dict[Tuple, List],
) -> Tuple[bool, List[str]]:
    """Tie-class parity of ``candidate`` vs the reference expectations.

    Every unique query class is searched under the candidate
    configuration and its tie classes (score-grouped answer-tree sets,
    the repo's standard ranked-result equality) must equal the
    reference's.  Returns ``(ok, divergence descriptions)``.
    """
    applier.apply(candidate)
    system.answer_cache.clear()
    failures: List[str] = []
    for entry in workload.entries:
        key = _class_key(entry)
        if key not in expected:
            continue
        try:
            answers = _class_answers(system, entry)
        except ReproError as exc:
            failures.append(f"{entry.query!r}: {type(exc).__name__}")
            continue
        if tie_classes_direct(answers) != expected[key]:
            failures.append(
                f"{entry.query!r}: tie classes diverge from reference"
            )
        if len(failures) > _MAX_PARITY_FAILURES:
            break
    return (not failures, failures[:_MAX_PARITY_FAILURES])


def plan_capture(
    system: Any,
    records: Sequence[Dict[str, Any]],
    *,
    max_candidates: int = 6,
    rounds: int = 2,
    budget: Optional[int] = None,
    concurrency: int = 4,
    probe: int = 4,
    tracer: Optional[Any] = None,
    cost_model: Optional[Any] = None,
    candidates: Optional[Sequence[PlanCandidate]] = None,
) -> PlanReport:
    """Analyze a capture, score candidate configs by replay, recommend.

    Args:
        system: the warm deployment to measure against (its
            configuration is restored on return).
        records: raw capture records (``read_query_log`` output).
        max_candidates: cap on generated candidates (reference excluded).
        rounds: successive-halving rounds; round ``i`` replays a
            ``budget / 2**(rounds-1-i)`` prefix and keeps the top half.
        budget: replayed-request ceiling (default: the whole capture).
        concurrency: worker threads per measurement leg.
        probe: top query classes searched by the analyzer for observed
            diameters.
        tracer: optional :class:`repro.obs.trace.Tracer`; a ``plan``
            root span with per-phase children records where the
            planning time went.
        cost_model: override for :func:`~repro.planner.cost.estimate_cost`
            (the mutation test injects an inverted one).
        candidates: explicit candidate list, bypassing the generator.

    Returns:
        A :class:`PlanReport`; ``report.chosen_candidate`` is safe to
        pass to :meth:`CIRankSystem.apply_plan` — it is either
        replay-validated parity-clean or the reference itself.
    """
    if rounds < 1:
        raise ReproError(f"rounds must be >= 1, got {rounds}")
    ordered = sorted(records, key=lambda r: float(r.get("ts", 0.0)))
    if not ordered:
        raise ReproError("nothing to plan from: the capture is empty")
    total_budget = min(len(ordered), budget or len(ordered))
    model = cost_model or estimate_cost
    span = tracer.start_span("plan") if tracer is not None else None

    try:
        analyze_span = span.child("analyze") if span is not None else None
        workload = Workload.from_records(ordered[:total_budget])
        features = analyze_workload(workload, system=system, probe=probe)
        if analyze_span is not None:
            analyze_span.set_attributes({
                "unique_queries": features.unique_queries,
                "duplicate_fraction": features.duplicate_fraction,
                "free_connector_ratio": features.free_connector_ratio,
            })
            analyze_span.finish()

        reference = reference_candidate(system)
        if candidates is None:
            pool = generate_candidates(
                features, reference,
                limit=max_candidates, cost_model=model,
            )
        else:
            pool = list(candidates)[: max(0, max_candidates)]
        ref_result = CandidateResult(
            candidate=reference,
            estimated_cost=model(features, reference),
        )
        results = [
            CandidateResult(candidate=c, estimated_cost=model(features, c))
            for c in pool
        ]

        applier = _ConfigApplier(system)
        why: List[str] = []
        try:
            # ---- successive halving over capture prefixes
            def fold(result: CandidateResult, m: Dict[str, Any], n: int):
                m["round"] = n
                result.rounds.append(m)
                result.throughput_qps = m["throughput_qps"]
                result.p50_ms = m["p50_ms"]
                result.p99_ms = m["p99_ms"]
                result.errors = m["errors"]

            survivors = list(results)
            for round_no in range(rounds):
                shift = rounds - 1 - round_no
                size = max(1, total_budget >> shift)
                prefix = ordered[:size]
                round_span = (
                    span.child(f"round-{round_no}")
                    if span is not None else None
                )
                # Reference first: its p99 sets the guardrail deadline
                # for every candidate leg in this round.
                ref_measurement = _measure(
                    system, applier, ref_result.candidate, prefix,
                    concurrency,
                )
                fold(ref_result, ref_measurement, round_no)
                leg_deadline = _leg_deadline_ms(ref_measurement)
                still: List[CandidateResult] = []
                for result in survivors:
                    measurement = _measure(
                        system, applier, result.candidate, prefix,
                        concurrency, leg_deadline,
                    )
                    fold(result, measurement, round_no)
                    if measurement.get("timeouts"):
                        result.eliminated_round = round_no
                        why.append(
                            f"{result.candidate.name}: leg timed out "
                            f"(a request exceeded "
                            f"{leg_deadline or 0.0:.0f}ms = "
                            f"{_LEG_DEADLINE_FACTOR:.0f}x the reference "
                            f"p99); eliminated"
                        )
                        continue
                    still.append(result)
                survivors = still
                if round_span is not None:
                    round_span.set_attributes({
                        "requests": size,
                        "survivors": len(survivors),
                    })
                    round_span.finish()
                if round_no < rounds - 1 and len(survivors) > 1:
                    survivors.sort(
                        key=lambda r: -r.throughput_qps
                    )
                    keep = (len(survivors) + 1) // 2
                    for result in survivors[keep:]:
                        result.eliminated_round = round_no
                    survivors = survivors[:keep]

            # ---- reference expectations for the parity gate
            parity_span = span.child("parity") if span is not None else None
            applier.apply(reference)
            system.answer_cache.clear()
            expected: Dict[Tuple, List] = {}
            for entry in workload.entries:
                try:
                    expected[_class_key(entry)] = tie_classes_direct(
                        _class_answers(system, entry)
                    )
                except ReproError:
                    continue
            ref_result.parity_ok = True

            # ---- choose: fastest survivor that passes the gate and
            #      actually beats the reference
            survivors.sort(key=lambda r: -r.throughput_qps)
            chosen = ref_result
            for result in survivors:
                ok, failures = check_parity(
                    system, applier, result.candidate, workload, expected,
                )
                result.parity_ok = ok
                result.parity_failures = failures
                if not ok:
                    why.append(
                        f"{result.candidate.name}: rejected by the "
                        f"replay gate (tie-class divergence)"
                    )
                    continue
                if result.throughput_qps > ref_result.throughput_qps:
                    chosen = result
                    break
                why.append(
                    f"{result.candidate.name}: parity ok but no "
                    f"measured win "
                    f"({result.throughput_qps:.1f} vs "
                    f"{ref_result.throughput_qps:.1f} qps)"
                )
            if parity_span is not None:
                parity_span.set_attributes({
                    "classes": len(expected),
                    "chosen": chosen.candidate.name,
                })
                parity_span.finish()
        finally:
            applier.restore()

        if chosen is ref_result:
            if not why:
                why.append(
                    "no candidate beat the running configuration; "
                    "keeping it"
                )
        else:
            why.extend(chosen.candidate.notes)
            why.append(
                f"{chosen.candidate.name}: "
                f"{chosen.throughput_qps:.1f} qps vs reference "
                f"{ref_result.throughput_qps:.1f} qps on the replayed "
                f"capture, tie-class parity verified over "
                f"{len(expected)} query classes"
            )
        speedup = (
            chosen.throughput_qps / ref_result.throughput_qps
            if ref_result.throughput_qps > 0 else 1.0
        )
        return PlanReport(
            features=features,
            reference=ref_result,
            candidates=results,
            chosen=chosen.candidate.name,
            validated=True,
            speedup=speedup,
            why=why,
            budget=total_budget,
            rounds=rounds,
        )
    finally:
        if span is not None:
            span.finish()


def plan_from_features(
    features: WorkloadFeatures,
    reference: PlanCandidate,
    max_candidates: int = 6,
    cost_model: Optional[Any] = None,
) -> PlanReport:
    """Heuristic-only plan (no replay validation) from bare features.

    This is what ``cirank plan --from-stats`` produces when only a live
    ``/stats`` scrape is available: candidates are ranked by the cost
    model alone, ``validated`` is False, and the report says so.  Treat
    it as a hint of what to capture and replay, never as a proof.
    """
    model = cost_model or estimate_cost
    pool = generate_candidates(
        features, reference, limit=max_candidates, cost_model=model,
    )
    ref_result = CandidateResult(
        candidate=reference, estimated_cost=model(features, reference),
    )
    results = [
        CandidateResult(candidate=c, estimated_cost=model(features, c))
        for c in pool
    ]
    best = min(
        [ref_result] + results, key=lambda r: r.estimated_cost,
    )
    why = [
        "heuristic only: no capture was replayed, so this plan is "
        "NOT validated — capture a workload log and run "
        "`cirank plan --log` before applying",
    ]
    why.extend(best.candidate.notes)
    return PlanReport(
        features=features,
        reference=ref_result,
        candidates=results,
        chosen=best.candidate.name,
        validated=False,
        speedup=1.0,
        why=why,
        budget=0,
        rounds=0,
    )
