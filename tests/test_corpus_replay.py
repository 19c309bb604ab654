"""Deterministic replay of the failure corpus (``tests/corpus/*.json``).

Every JSON file in the corpus — whether a committed seed case or a
Hypothesis counterexample persisted by
``test_properties_differential.py`` — is rebuilt through the normal
Database API and re-run through the full differential check.  A bug
found once keeps failing here until actually fixed, independent of
Hypothesis' example database or random state.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.testing import (
    case_from_dict,
    case_to_dict,
    check_case,
    load_case,
    load_corpus,
    random_case,
    save_counterexample,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = load_corpus(CORPUS_DIR)


def test_corpus_is_populated():
    """The committed seed corpus must exist (diverse baseline cases)."""
    assert len(CORPUS_FILES) >= 4


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=lambda p: p.stem
)
def test_corpus_case_replays(path):
    """Each corpus file re-runs the full differential check cleanly."""
    check_case(load_case(path))


def test_serialization_round_trip():
    """dict -> case -> dict is the identity on every corpus-able case."""
    for seed in (0, 3, 4, 9, 94):
        case = random_case(seed)
        data = case_to_dict(case)
        rebuilt = case_from_dict(data)
        assert case_to_dict(rebuilt) == data
        # the rebuilt case must behave identically, not just look it
        a = check_case(case)
        b = check_case(rebuilt)
        assert [x.score for x in a.topk] == [x.score for x in b.topk]
        assert a.answers_enumerated == b.answers_enumerated


def test_case_naming_removed_switches_still_loads(tmp_path):
    """Cases saved while the search had ``engine``/``lazy_bounds``
    switches load; the keys are ignored."""
    case = random_case(3)
    data = case_to_dict(case)
    data["params"].update(engine="object", lazy_bounds=False)
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(data))
    loaded = load_case(path)
    assert loaded.params == case.params
    check_case(loaded)


def test_save_counterexample_is_idempotent(tmp_path):
    case = random_case(7)
    first = save_counterexample(case, tmp_path, reason="demo")
    assert first is not None and first.exists()
    again = save_counterexample(case, tmp_path, reason="demo")
    assert again is None  # same seed, already recorded
    assert len(list(tmp_path.glob("*.json"))) == 1
