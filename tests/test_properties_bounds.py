"""Admissibility edge cases for ``search/bounds.py`` (satellite of the
oracle harness): single-node candidates, the diameter-cap boundary, and
zero-importance dangling nodes.

The headline property — ``ub(C) >= score(T)`` for every answer ``T``
expandable from ``C`` — is checked here on *generated* databases (random
schemas, asymmetric weights), complementing the hand-graph version in
``test_search_bounds.py``.  A single-node candidate ``{v}`` rooted at
``v`` can expand into any answer containing ``v``, which makes it the
sharpest admissibility probe available.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import (
    CandidateTree,
    CIRankSystem,
    DampeningModel,
    DataGraph,
    InvertedIndex,
    JoinedTupleTree,
    KeywordMatcher,
    PairsIndex,
    RWMPParams,
    RWMPScorer,
    pagerank,
)
from repro.exceptions import EvaluationError
from repro.importance.pagerank import ImportanceVector
from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.search.bounds import UpperBoundEstimator
from repro.testing import exhaustive_answers, random_case


# ----------------------------------------- single-node candidates (c.1)


@given(seed=st.integers(0, 10**6))
def test_single_node_candidate_bounds_every_containing_answer(seed):
    """ub(initial(v)) >= score(T) for every answer T with v in T."""
    case = random_case(seed)
    system = CIRankSystem.from_database(case.db, weights=case.weights)
    try:
        match = system.matcher.match(case.query)
    except EvaluationError:
        assume(False)
    assume(match.matchable)
    scorer = system.scorer_for(match)
    estimator = UpperBoundEstimator(system.graph, scorer)
    answers = list(
        exhaustive_answers(system.graph, match, max_diameter=3)
    )
    assume(answers)
    for tree in answers[:20]:
        score = scorer.score(tree)
        for node in sorted(tree.nodes):
            if match.is_free(node):
                continue
            ub = estimator.upper_bound(CandidateTree.initial(node, match))
            assert ub + 1e-9 + 1e-9 * abs(ub) >= score, (
                f"ub(initial({node})) = {ub} < score = {score} "
                f"(seed={seed}, tree={sorted(tree.nodes)})"
            )


# --------------------------------------- diameter-cap boundary D (c.2)


def _keyword_chain(length: int) -> DataGraph:
    """apple -- filler*... -- berry, exactly ``length`` edges."""
    g = DataGraph()
    g.add_node("t", "apple")
    for i in range(length - 1):
        g.add_node("t", f"filler {i}")
    g.add_node("t", "berry")
    for a in range(length):
        g.add_link(a, a + 1, 1.0, 1.0)
    return g


@pytest.mark.parametrize("diameter", [1, 2, 3, 4])
def test_diameter_cap_boundary(diameter):
    """A chain answer of diameter exactly D is kept at D, gone at D-1."""
    g = _keyword_chain(diameter)
    index = InvertedIndex.build(g)
    match = KeywordMatcher(index).match("apple berry")
    dampening = DampeningModel(pagerank(g), RWMPParams())
    scorer = RWMPScorer(g, index, match, dampening)

    from repro.config import SearchParams
    hits = BranchAndBoundSearch(
        g, scorer, match, SearchParams(k=3, diameter=diameter)
    ).run()
    assert len(hits) == 1 and hits[0].tree.diameter == diameter

    scorer2 = RWMPScorer(g, index, match, dampening)
    misses = BranchAndBoundSearch(
        g, scorer2, match, SearchParams(k=3, diameter=diameter - 1)
    ).run()
    assert misses == []

    # the distance pruner agrees with the boundary, both directions
    pairs = PairsIndex(g, dampening, horizon=diameter + 2)
    estimator = UpperBoundEstimator(g, scorer, pairs)
    cand = CandidateTree.initial(0, match)
    missing = [k for k in match.keywords if k not in cand.covered]
    assert estimator.completion_impossible(
        cand.root, cand.depth, [0], missing, max_diameter=diameter - 1
    )
    assert not estimator.completion_impossible(
        cand.root, cand.depth, [0], missing, max_diameter=diameter
    )


# ------------------------------- zero-importance dangling nodes (c.3)


def test_zero_importance_dangling_node():
    """A node with zero importance must not break rates, scores, bounds.

    Biased teleport vectors (Section VI-A feedback) can starve nodes of
    importance mass entirely; the dampening ratio guard clamps them to
    ``alpha`` and their generation drops to zero.
    """
    g = _keyword_chain(3)  # nodes 0..3, berry at 3
    params = RWMPParams()
    base = pagerank(g)
    values = np.array(base.values, copy=True)
    values[3] = 0.0  # starve the berry node
    starved = ImportanceVector(
        values=values, teleport=base.teleport,
        iterations=base.iterations, converged=base.converged,
    )
    dampening = DampeningModel(starved, params)
    assert dampening.rate(3) == pytest.approx(params.alpha)
    assert dampening.surfers(3) == 0.0

    index = InvertedIndex.build(g)
    match = KeywordMatcher(index).match("apple berry")
    scorer = RWMPScorer(g, index, match, dampening)
    assert scorer.generation(3) == 0.0

    chain = JoinedTupleTree({0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3)])
    # the zero-generation source delivers nothing: the apple node's min
    # incoming message is 0, while the starved node still receives
    # apple's messages normally (Eq. 3 is per-destination)
    node_scores = scorer.node_scores(chain)
    assert node_scores[0] == 0.0
    assert node_scores[3] > 0.0
    assert scorer.score(chain) == pytest.approx(node_scores[3] / 2)

    estimator = UpperBoundEstimator(g, scorer)
    for node in (0, 3):
        ub = estimator.upper_bound(CandidateTree.initial(node, match))
        assert 0.0 <= ub < float("inf")
        assert ub + 1e-12 >= scorer.score(chain)

    from repro.config import SearchParams
    answers = BranchAndBoundSearch(
        g, scorer, match, SearchParams(k=3, diameter=3)
    ).run()
    assert len(answers) == 1
    assert answers[0].score == pytest.approx(scorer.score(chain))


def test_biased_teleport_importance_stays_usable():
    """pagerank with a one-hot teleport vector still yields p_min > 0
    and admissible bounds (the realistic feedback-biased path)."""
    g = _keyword_chain(3)
    vector = np.zeros(g.node_count)
    vector[0] = 1.0
    importance = pagerank(g, teleport_vector=vector)
    assert importance.p_min > 0.0
    dampening = DampeningModel(importance, RWMPParams())
    index = InvertedIndex.build(g)
    match = KeywordMatcher(index).match("apple berry")
    scorer = RWMPScorer(g, index, match, dampening)
    estimator = UpperBoundEstimator(g, scorer)
    chain = JoinedTupleTree({0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3)])
    score = scorer.score(chain)
    for node in (0, 3):
        ub = estimator.upper_bound(CandidateTree.initial(node, match))
        assert ub + 1e-9 + 1e-9 * abs(ub) >= score
