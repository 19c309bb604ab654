"""Tests for the workload-driven planner (analyzer, cost, search loop).

The measurement legs run against a real (tiny) DBLP deployment, so the
suite exercises the same apply → clear cache → replay → parity path the
``cirank plan`` CLI drives; the systems are built once per module and
the planner's config applier is trusted (and checked) to restore them.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SearchParams, ServingParams
from repro.datasets import DblpConfig, generate_dblp
from repro.exceptions import ReproError
from repro.obs.workload import Workload
from repro.planner import (
    PlanCandidate,
    PlanReport,
    WorkloadFeatures,
    analyze_workload,
    estimate_cost,
    features_from_stats,
    generate_candidates,
    plan_capture,
    plan_from_features,
    reference_candidate,
)
from repro.planner import plan as plan_module
from repro.system import CIRankSystem

#: Queries whose keywords land in the tiny DBLP corpus (free-connector
#: heavy: paper/author/conference terms rarely share a node).
QUERIES = [
    "conference management",
    "graph search",
    "database systems",
    "query processing",
]


@pytest.fixture(scope="module")
def plan_system() -> CIRankSystem:
    """A small deployment with a shallow diameter so legs stay fast."""
    db = generate_dblp(DblpConfig(
        conferences=2, papers=20, authors=15, seed=3,
    ))
    return CIRankSystem.from_database(
        db, search_params=SearchParams(diameter=3),
    )


def _records(queries, passes=2, k=5, diameter=None, **extra):
    records = []
    ts = 1000.0
    for _ in range(passes):
        for query in queries:
            record = {"ts": ts, "query": query, "k": k, "fingerprint": "f"}
            if diameter is not None:
                record["diameter"] = diameter
            record.update(extra)
            records.append(record)
            ts += 0.1
    return records


# ------------------------------------------------------------- analyzer


class TestAnalyzer:
    def test_features_without_system(self):
        records = _records(["alpha beta", "gamma"], passes=3)
        workload = Workload.from_records(records)
        features = analyze_workload(workload)
        assert features.total_arrivals == 6
        assert features.unique_queries == 2
        assert features.duplicate_fraction == pytest.approx(4 / 6)
        assert features.multi_keyword_fraction == pytest.approx(0.5)
        # Without a matcher the connector ratio falls back to the
        # multi-keyword fraction.
        assert features.free_connector_ratio == pytest.approx(0.5)
        assert features.observed_diameter is None

    def test_features_with_system(self, plan_system):
        workload = Workload.from_records(_records(QUERIES, passes=2))
        features = analyze_workload(workload, system=plan_system, probe=2)
        assert features.probed_queries == len(QUERIES)
        assert 0.0 <= features.free_connector_ratio <= 1.0
        assert features.observed_diameter is not None
        assert features.observed_diameter <= 3

    def test_deadline_and_engine_mix(self):
        # Captures written while requests could pick an engine carry
        # one; the analyzer ignores it.
        records = _records(
            ["a"], passes=4, deadline_ms=50.0, engine="arena",
        )
        features = analyze_workload(Workload.from_records(records))
        assert features.deadline_fraction == 1.0
        assert features.deadline_p50_ms == pytest.approx(50.0)
        assert "engines" not in features.as_dict()

    def test_render_mentions_key_features(self):
        features = WorkloadFeatures(total_arrivals=10, unique_queries=3)
        text = features.render()
        assert "10" in text and "3 unique" in text
        assert "free-connector" in text

    def test_features_from_stats(self):
        payload = {
            "received": 100, "executed": 60, "coalesced": 25,
            "cache_served": 15, "deadline_expired": 6,
            "answer_cache": {"size": 40},
        }
        features = features_from_stats(payload)
        assert features.source == "stats"
        assert features.duplicate_fraction == pytest.approx(0.4)
        assert features.deadline_fraction == pytest.approx(0.1)
        assert features.unique_queries == 40


# ------------------------------------------------- candidates and costs


def _features(**overrides) -> WorkloadFeatures:
    base = dict(
        total_arrivals=1000, unique_queries=100,
        duplicate_fraction=0.5, mean_match_size=4.0,
        observed_diameter=3,
    )
    base.update(overrides)
    return WorkloadFeatures(**base)


REF = PlanCandidate(name="reference", diameter=4, answer_cache_size=256)


class TestCandidateGeneration:
    def test_cache_lever_fires_on_thrash(self):
        features = _features(duplicate_fraction=0.8, unique_queries=500)
        names = {c.name for c in generate_candidates(features, REF)}
        assert "cache-1024" in names

    def test_cache_lever_quiet_when_working_set_fits(self):
        features = _features(duplicate_fraction=0.8, unique_queries=50)
        names = {c.name for c in generate_candidates(features, REF)}
        assert not any(n.startswith("cache-") for n in names)

    def test_diameter_lever_fires_when_observed_below_configured(self):
        features = _features(observed_diameter=2)
        names = {c.name for c in generate_candidates(features, REF)}
        assert "diameter-2" in names

    def test_index_lever_fires_on_connector_heavy_mix(self):
        features = _features(free_connector_ratio=0.9)
        names = {c.name for c in generate_candidates(features, REF)}
        assert "star-index" in names

    def test_batch_wait_lever_fires_on_hit_dominated_mix(self):
        features = _features(duplicate_fraction=0.9, unique_queries=50)
        names = {c.name for c in generate_candidates(features, REF)}
        assert "no-batch-wait" in names

    def test_limit_and_dedup(self):
        features = _features(
            duplicate_fraction=0.5, unique_queries=500,
            free_connector_ratio=0.9, observed_diameter=2,
        )
        pool = generate_candidates(features, REF, limit=2)
        assert len(pool) == 2
        knobs = [c.knobs() for c in pool]
        assert len(set(knobs)) == len(knobs)
        assert REF.knobs() not in knobs


class TestCostModel:
    def test_bigger_cache_wins_on_duplicate_heavy_mix(self):
        features = _features(duplicate_fraction=0.8, unique_queries=500)
        small = PlanCandidate(name="s", answer_cache_size=256)
        big = PlanCandidate(name="b", answer_cache_size=1024)
        assert estimate_cost(features, big) < estimate_cost(features, small)

    def test_deeper_diameter_costs_more(self):
        features = _features()
        shallow = PlanCandidate(name="s", diameter=2)
        deep = PlanCandidate(name="d", diameter=6)
        assert estimate_cost(features, shallow) < estimate_cost(
            features, deep
        )

    def test_index_discounts_connector_heavy_searches(self):
        features = _features(free_connector_ratio=1.0)
        plain = PlanCandidate(name="p")
        indexed = PlanCandidate(name="i", index_kind="star")
        assert estimate_cost(features, indexed) < estimate_cost(
            features, plain
        )


class TestReferenceCandidate:
    def test_mirrors_running_configuration(self, plan_system):
        reference = reference_candidate(
            plan_system, ServingParams(workers=2),
        )
        assert reference.diameter == plan_system.search_params.diameter
        assert reference.index_kind is None
        assert (
            reference.answer_cache_size
            == plan_system.answer_cache.stats().maxsize
        )
        assert reference.workers == 2

    def test_round_trips_through_dict(self):
        candidate = PlanCandidate(
            name="x", diameter=3, index_kind="star", notes=("why",),
        )
        assert PlanCandidate.from_dict(candidate.as_dict()) == candidate
        # Plans written while the engine was a knob name one.
        legacy = dict(candidate.as_dict(), engine="object")
        assert PlanCandidate.from_dict(legacy) == candidate

    def test_from_dict_ignores_unknown_fields(self):
        payload = PlanCandidate(name="x").as_dict()
        payload["future_knob"] = 9
        assert PlanCandidate.from_dict(payload).name == "x"


# ------------------------------------------------------ the search loop


class TestPlanCapture:
    def test_end_to_end_restores_and_validates(self, plan_system):
        base_params = plan_system.search_params
        base_cache = plan_system.answer_cache
        records = _records(QUERIES, passes=2)
        report = plan_capture(
            plan_system, records,
            max_candidates=3, rounds=2, concurrency=2, probe=2,
        )
        assert report.validated
        assert report.budget == len(records)
        assert report.reference.parity_ok is True
        chosen = report.chosen_candidate
        if report.chosen != "reference":
            winner = next(
                r for r in report.candidates
                if r.candidate.name == report.chosen
            )
            assert winner.parity_ok is True
            assert (
                winner.throughput_qps > report.reference.throughput_qps
            )
        assert isinstance(chosen, PlanCandidate)
        # The applier restored the deployment.
        assert plan_system.search_params is base_params
        assert plan_system.answer_cache is base_cache
        assert plan_system.graph_index is None

    def test_empty_capture_is_an_error(self, plan_system):
        with pytest.raises(ReproError):
            plan_capture(plan_system, [])

    def test_bad_transport_is_an_error(self, plan_system):
        with pytest.raises(ReproError):
            plan_capture(
                plan_system, _records(QUERIES), transport="carrier-pigeon",
            )

    def test_leg_timeout_eliminates_pathological_candidate(
        self, plan_system, monkeypatch
    ):
        # Tighten the guardrail so the deep-diameter candidate (whose
        # searches are orders of magnitude slower than the reference's
        # diameter-3 legs) trips it deterministically and fast.
        monkeypatch.setattr(plan_module, "_LEG_DEADLINE_FACTOR", 1.0)
        monkeypatch.setattr(plan_module, "_LEG_DEADLINE_FLOOR_MS", 1.0)
        reference = reference_candidate(plan_system)
        import dataclasses

        slow = dataclasses.replace(reference, name="deep", diameter=6)
        report = plan_capture(
            plan_system, _records(QUERIES, passes=1),
            candidates=[slow], rounds=1, concurrency=2, probe=1,
        )
        result = report.candidates[0]
        assert result.eliminated_round == 0
        assert result.rounds[-1]["timeouts"] >= 1
        assert report.chosen == "reference"
        assert any("timed out" in reason for reason in report.why)

    def test_json_round_trip(self, plan_system):
        report = plan_capture(
            plan_system, _records(QUERIES, passes=1),
            max_candidates=2, rounds=1, concurrency=2, probe=1,
        )
        doc = json.loads(report.to_json())
        assert doc["chosen_config"]["name"] == report.chosen
        # as older reports carry
        doc["features"]["graph_nodes"] = 548
        doc["features"]["engines"] = {"default": len(QUERIES)}
        for config in [doc["chosen_config"], doc["reference"]["candidate"]]:
            config["engine"] = "arena"
        restored = PlanReport.from_dict(doc)
        assert restored.chosen == report.chosen
        assert restored.validated == report.validated
        assert (
            restored.chosen_candidate.knobs()
            == report.chosen_candidate.knobs()
        )
        assert "chosen:" in restored.render()


class TestPlanFromFeatures:
    def test_is_explicitly_unvalidated(self):
        features = _features(duplicate_fraction=0.8, unique_queries=500)
        report = plan_from_features(features, REF)
        assert not report.validated
        assert report.transport == "none"
        assert any("NOT validated" in reason for reason in report.why)
        # Ranked by the cost model alone: the chosen candidate has the
        # cheapest estimate.
        rows = [report.reference] + report.candidates
        best = min(rows, key=lambda r: r.estimated_cost)
        assert report.chosen == best.candidate.name


# ------------------------------------------------------------ apply_plan


class TestApplyPlan:
    @pytest.fixture()
    def fresh_system(self) -> CIRankSystem:
        db = generate_dblp(DblpConfig(
            conferences=2, papers=12, authors=10, seed=5,
        ))
        return CIRankSystem.from_database(db)

    def test_applies_candidate_knobs(self, fresh_system):
        candidate = PlanCandidate(
            name="tuned", diameter=3, answer_cache_size=512,
        )
        fresh_system.apply_plan(candidate)
        assert fresh_system.search_params.diameter == 3
        assert fresh_system.answer_cache.stats().maxsize == 512

    def test_accepts_report_and_dict(self, fresh_system):
        candidate = PlanCandidate(name="tuned", answer_cache_size=128)
        payload = {"chosen_config": candidate.as_dict()}
        fresh_system.apply_plan(payload)
        assert fresh_system.answer_cache.stats().maxsize == 128
        fresh_system.apply_plan(candidate.as_dict())
        assert fresh_system.answer_cache.stats().maxsize == 128

    def test_attaches_requested_index(self, fresh_system):
        candidate = PlanCandidate(
            name="indexed", index_kind="star", index_horizon=4,
        )
        fresh_system.apply_plan(candidate)
        assert fresh_system.graph_index is not None
        assert type(fresh_system.graph_index).__name__ == "StarIndex"

    def test_rejects_unknown_payload(self, fresh_system):
        with pytest.raises(ReproError):
            fresh_system.apply_plan(42)

    def test_rejects_a_report_choosing_the_sharded_engine(
        self, fresh_system
    ):
        before = fresh_system.search_params
        payload = {"chosen_config": {
            "name": "sharded-4", "engine": "sharded", "shards": 4,
        }}
        with pytest.raises(ReproError, match="engine"):
            fresh_system.apply_plan(payload)
        assert fresh_system.search_params == before

    @pytest.mark.parametrize("engine", ["arena", "object"])
    def test_applies_a_report_naming_a_former_engine(
        self, fresh_system, engine
    ):
        payload = {"chosen_config": {
            "name": "old", "engine": engine, "answer_cache_size": 128,
        }}
        fresh_system.apply_plan(payload)
        assert fresh_system.answer_cache.stats().maxsize == 128
