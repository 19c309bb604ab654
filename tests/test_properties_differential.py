"""Property-based differential testing of the full search stack.

Every test here runs :func:`repro.testing.differential_check` — the
brute-force oracle comparison — over seeded random (database, query,
params) cases.  A failing seed is automatically serialized into
``tests/corpus/`` so it replays as a deterministic regression test
(see ``test_corpus_replay.py``) even after Hypothesis' own example
database is gone.

``TestMutationsAreCaught`` is the harness' self-test: it breaks the
upper bound and the star index on purpose and demonstrates the oracle
notices — the acceptance criterion that makes future perf PRs
falsifiable.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CIRankSystem
from repro.indexing.star import StarIndex
from repro.search.bounds import UpperBoundEstimator
from repro.testing import (
    DifferentialFailure,
    check_case,
    random_case,
    save_counterexample,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


def _run_seed(seed: int, **kwargs):
    """Check one seed; persist the case into the corpus if it fails."""
    case = random_case(seed)
    try:
        return check_case(case, **kwargs)
    except DifferentialFailure as failure:
        save_counterexample(case, CORPUS_DIR, reason=str(failure))
        raise


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree_with_oracle(seed):
    """B&B (plain + indexed), naive, and the oracle agree on any seed."""
    _run_seed(seed)


def test_bulk_differential_sweep():
    """The acceptance gate: N consecutive seeds, every engine agrees.

    N defaults to 60 for local runs; the CI hypothesis job exports
    ``CIRANK_ORACLE_CASES=500``.  Trivial cases (unmatchable queries)
    are counted separately and must stay a small minority.
    """
    count = int(os.environ.get("CIRANK_ORACLE_CASES", "60"))
    checked = trivial = 0
    for seed in range(count):
        report = _run_seed(seed)
        if report.trivial:
            trivial += 1
        else:
            checked += 1
    assert checked + trivial == count
    assert checked >= count * 0.7, (
        f"only {checked}/{count} cases were non-trivial — the generator "
        "drifted toward unmatchable queries"
    )


def test_search_is_deterministic_across_rebuilds():
    """Same input, fresh system: identical trees, scores, and order.

    This is the tie-order-stability check the deterministic heap key
    (docs/ALGORITHMS.md §2.5) exists for.
    """
    for seed in (0, 3, 10, 21):
        case = random_case(seed)
        runs = []
        for _ in range(2):
            system = CIRankSystem.from_database(
                case.db,
                weights=case.weights,
                search_params=dataclasses.replace(
                    case.params, strict_merge=False
                ),
            )
            runs.append([
                (tuple(sorted(answer.tree.nodes)), answer.score)
                for answer in system.search(case.query)
            ])
        assert runs[0] == runs[1], f"non-deterministic ranking (seed={seed})"


class TestMutationsAreCaught:
    """Intentionally broken components must fail the differential check."""

    #: Seeds to try before concluding a mutation went unnoticed.  The
    #: broken bound is caught within the first few non-trivial cases.
    SWEEP = 80

    def test_broken_upper_bound_is_caught(self, monkeypatch):
        """An inadmissible (too small) full bound prunes real answers.

        ``arena_bound`` is the full ``ce/pe`` bound the search computes
        for the initial candidates and at head tightening.
        """
        real = UpperBoundEstimator.arena_bound
        monkeypatch.setattr(
            UpperBoundEstimator,
            "arena_bound",
            lambda self, arena, cid, missing:
                0.25 * real(self, arena, cid, missing),
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(self.SWEEP):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )

    def test_broken_star_retention_is_caught(self, monkeypatch):
        """An unsound (too small) retention bound breaks the index leg."""
        real = StarIndex.retention_upper
        monkeypatch.setattr(
            StarIndex,
            "retention_upper",
            lambda self, u, v: 0.2 * real(self, u, v),
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(self.SWEEP):
                check_case(
                    random_case(seed),
                    check_naive=False,
                    check_strict=False,
                )

    def test_broken_distance_bound_is_caught(self, monkeypatch):
        """An inflated distance lower bound prunes feasible completions."""
        real = StarIndex.distance_lower
        monkeypatch.setattr(
            StarIndex,
            "distance_lower",
            lambda self, u, v: real(self, u, v) + 2,
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(self.SWEEP):
                check_case(
                    random_case(seed),
                    check_naive=False,
                    check_strict=False,
                )
