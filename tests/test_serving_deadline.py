"""Deadline-bounded anytime execution: labeling and SLA discipline.

Pins the contract of :func:`repro.serving.deadline.run_with_deadline`:

* generous deadlines produce the exact proven top-k (checked against
  the differential oracle's exhaustive enumeration);
* tight deadlines still produce a *valid* snapshot — ``gap >= 0``,
  scores sorted, never mislabeled as proven;
* proven results are never mislabeled approximate, even when they land
  at the deadline;
* the heartbeat cadence makes tight-deadline runs stop near the budget
  instead of running to completion.
"""

from __future__ import annotations

import pytest

from repro.serving import run_with_deadline
from repro.serving.deadline import SearchObserver
from repro.system import CIRankSystem
from repro.testing.generators import random_case
from repro.testing.oracles import differential_check


def _tie_classes(answers):
    classes = []
    for answer in answers:
        key = (
            tuple(sorted(answer.tree.nodes)),
            tuple(sorted(tuple(e) for e in answer.tree.edges)),
        )
        if classes and classes[-1][0] == answer.score:
            classes[-1][1].add(key)
        else:
            classes.append((answer.score, {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


def _pick_query(system, keywords=2) -> str:
    vocabulary = sorted(system.index.vocabulary())
    chosen = []
    for token in vocabulary:
        if len(system.index.matching_nodes(token)) >= 2:
            chosen.append(token)
        if len(chosen) == keywords:
            break
    assert chosen, "fixture vocabulary unexpectedly empty"
    return " ".join(chosen)


class TestGenerousDeadline:
    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    def test_matches_differential_oracle(self, seed):
        """No budget pressure -> exact proven top-k (oracle-checked)."""
        case = random_case(seed)
        report = differential_check(
            case.db, case.query,
            params=case.params, weights=case.weights,
            label=f"serving-deadline-{seed}",
        )
        if report.trivial:
            pytest.skip("unmatchable query for this seed")
        system = CIRankSystem.from_database(
            case.db, weights=case.weights, search_params=case.params
        )
        system.answer_cache.clear()
        outcome = run_with_deadline(
            system, case.query, deadline_ms=60_000.0
        )
        assert outcome.proven is True
        assert outcome.deadline_hit is False
        assert outcome.gap == 0.0
        assert _tie_classes(outcome.answers) == _tie_classes(report.topk)

    def test_no_budget_runs_to_completion(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system)
        outcome = run_with_deadline(system, query, k=3, deadline_ms=0.0)
        assert outcome.proven is True and outcome.gap == 0.0
        assert not outcome.deadline_hit
        direct = system.search(query, k=3)
        assert _tie_classes(outcome.answers) == _tie_classes(direct)

    def test_second_run_serves_from_cache(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system)
        first = run_with_deadline(system, query, k=3, deadline_ms=10_000.0)
        second = run_with_deadline(system, query, k=3, deadline_ms=10.0)
        assert first.served_from_cache is False
        # A cached proven result satisfies even a tight deadline.
        assert second.served_from_cache is True
        assert second.proven is True and second.gap == 0.0
        assert not second.deadline_hit
        assert _tie_classes(second.answers) == _tie_classes(first.answers)


class TestTightDeadline:
    def test_snapshot_is_valid_and_never_mislabeled(self, tiny_dblp_system):
        """A starved run reports a well-formed anytime snapshot."""
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system, keywords=3)
        # A deadline far below one heartbeat's work: the run stops at
        # the first snapshot it sees.
        outcome = run_with_deadline(
            system, query, k=5, deadline_ms=0.0001, heartbeat=1
        )
        if outcome.proven:
            # The search finished inside the first heartbeat — a legal
            # outcome on a tiny fixture; the label must then be exact.
            assert outcome.gap == 0.0
            assert not outcome.deadline_hit
            return
        assert outcome.deadline_hit is True
        if outcome.answers:
            assert outcome.gap is not None and outcome.gap >= 0.0
            scores = [answer.score for answer in outcome.answers]
            assert scores == sorted(scores, reverse=True)
        else:
            assert outcome.gap is None

    def test_anytime_answers_are_a_prefix_quality_subset(
        self, tiny_dblp_system
    ):
        """Every anytime answer is a real answer the exact run keeps."""
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system, keywords=2)
        starved = run_with_deadline(
            system, query, k=3, deadline_ms=0.0001, heartbeat=1
        )
        system.answer_cache.clear()
        exact = run_with_deadline(system, query, k=3, deadline_ms=0.0)
        assert exact.proven
        if not starved.proven and starved.answers:
            for answer in starved.answers:
                # Anytime answers are genuine trees with real scores;
                # they can rank below the final top-k but never above
                # the proven best.
                assert answer.score <= exact.answers[0].score + 1e-12
        assert not exact.deadline_hit

    def test_deadline_stops_near_budget(self, tiny_dblp_system):
        """With a heartbeat, expiry is detected promptly (no full run)."""
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system, keywords=3)
        outcome = run_with_deadline(
            system, query, k=5, deadline_ms=5.0, heartbeat=4
        )
        # Generous CI margin: the point is "milliseconds, not seconds".
        assert outcome.elapsed_seconds < 2.0

    def test_observer_receives_this_runs_stats(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system)
        outcome = run_with_deadline(system, query, k=3, deadline_ms=0.0)
        assert outcome.stats is not None
        assert outcome.stats.expanded >= 0
        assert outcome.stats.arena_peak_bytes > 0


class TestObserverUnit:
    def test_observer_is_populated_before_iteration(self, tiny_dblp_system):
        system = tiny_dblp_system
        system.answer_cache.clear()
        observer = SearchObserver()
        generator = system.search_anytime(
            _pick_query(system), k=3, observer=observer
        )
        try:
            next(generator)
        except StopIteration:
            pass
        assert observer.stats is not None
        generator.close()
