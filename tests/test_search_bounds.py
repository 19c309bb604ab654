"""Admissibility tests for repro.search.bounds (Lemma 1).

The property at stake: for every candidate ``C`` and every answer ``T``
expandable from ``C`` (``T ⊇ C`` attaching only through C's root),
``ub(C) >= score(T)``.  We enumerate answers exhaustively on random small
graphs and check the bound against every (C, T) pair where C is a rooted
subtree of T whose non-root nodes keep their full T-neighborhood — the
exact invariant grow/merge maintains.
"""

import itertools

import pytest

from repro import (
    CandidateTree,
    DampeningModel,
    InvertedIndex,
    JoinedTupleTree,
    KeywordMatcher,
    PairsIndex,
    RWMPParams,
    RWMPScorer,
    enumerate_answers,
    pagerank,
)
from repro.search.bounds import UpperBoundEstimator
from .conftest import make_query_env, random_test_graph


def completion_impossible(estimator, cand, match, max_diameter):
    """The search's distance prune, applied to an object candidate."""
    missing = [k for k in match.keywords if k not in cand.covered]
    return estimator.completion_impossible(
        cand.root, cand.depth, sorted(cand.tree.nodes), missing,
        max_diameter,
    )


def rooted_subtrees(tree: JoinedTupleTree, match):
    """All candidate-shaped subtrees of an answer tree.

    A valid candidate inside ``T`` is a connected subtree ``C`` with a
    root ``r`` such that every edge of ``T`` leaving ``C`` is incident to
    ``r`` (the grow/merge invariant), and ``C`` covers >= 1 keyword.
    """
    nodes = sorted(tree.nodes)
    for size in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            sub_set = set(subset)
            sub_edges = [
                e for e in tree.edges if e[0] in sub_set and e[1] in sub_set
            ]
            if len(sub_edges) != size - 1:
                continue
            try:
                sub = JoinedTupleTree(sub_set, sub_edges)
            except Exception:
                continue
            boundary = {
                (a if b in sub_set else b)
                for a, b in tree.edges
                if (a in sub_set) != (b in sub_set)
            }
            covered = match.covered_by(sub_set)
            if not covered:
                continue
            roots = boundary if boundary else sub_set
            if len(boundary) > 1:
                continue  # expansion through two nodes: not candidate-shaped
            for root in roots:
                if root not in sub_set:
                    continue
                depth = max(
                    len(sub.path(root, n)) - 1 for n in sub_set
                )
                yield CandidateTree(sub, root, depth, sub.diameter, covered)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("use_index", [False, True])
def test_upper_bound_admissible(seed, use_index):
    g = random_test_graph(seed, n=9, extra_edges=5)
    index = InvertedIndex.build(g)
    matcher = KeywordMatcher(index)
    query = ["apple berry", "cedar", "apple delta"][seed % 3]
    try:
        match = matcher.match(query)
    except Exception:
        pytest.skip("query tokens absent in this random graph")
    if not match.matchable:
        pytest.skip("unmatchable query")
    importance = pagerank(g)
    dampening = DampeningModel(importance, RWMPParams())
    scorer = RWMPScorer(g, index, match, dampening)
    graph_index = PairsIndex(g, dampening) if use_index else None
    estimator = UpperBoundEstimator(g, scorer, graph_index)

    answers = list(enumerate_answers(g, match, max_diameter=4, max_nodes=6))
    checked = 0
    for answer in answers[:40]:
        score = scorer.score(answer)
        for cand in rooted_subtrees(answer, match):
            ub = estimator.upper_bound(cand)
            assert ub + 1e-9 + 1e-9 * abs(ub) >= score, (
                f"inadmissible bound: ub({sorted(cand.tree.nodes)}, "
                f"root={cand.root}) = {ub} < score({sorted(answer.nodes)}) "
                f"= {score}"
            )
            checked += 1
    if checked == 0:
        pytest.skip("no (candidate, answer) pairs in this instance")


class TestCompletionImpossible:
    def test_missing_keyword_with_no_nodes(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        # doctor the match sets: pretend 'berry' matches nothing
        match.per_keyword["berry"] = set()
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        cand = CandidateTree.initial(0, match)
        assert completion_impossible(estimator, cand, match, max_diameter=4)

    def test_distance_pruning_with_index(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        pairs = PairsIndex(chain_graph, scorer.dampening)
        estimator = UpperBoundEstimator(chain_graph, scorer, pairs)
        cand = CandidateTree.initial(0, match)
        # berry node (3) is 3 hops away: diameter 2 cannot be met
        assert completion_impossible(estimator, cand, match, max_diameter=2)
        assert not completion_impossible(
            estimator, cand, match, max_diameter=3
        )

    def test_without_index_no_distance_pruning(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        cand = CandidateTree.initial(0, match)
        assert not completion_impossible(
            estimator, cand, match, max_diameter=2
        )

    def test_complete_candidate_never_pruned(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        cand = CandidateTree.initial(0, match)
        assert not completion_impossible(
            estimator, cand, match, max_diameter=0
        )


class TestBoundTightness:
    def test_complete_candidate_bound_at_least_score(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        cand = (
            CandidateTree.initial(0, match)
            .grow(1, match).grow(2, match).grow(3, match)
        )
        assert cand.is_complete(match)
        ub = estimator.upper_bound(cand)
        assert ub >= scorer.score(cand.tree)

    def test_index_tightens_bound(self, chain_graph):
        """The pairs index can only lower (tighten) the upper bound."""
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        loose = UpperBoundEstimator(chain_graph, scorer, None)
        tight = UpperBoundEstimator(
            chain_graph, scorer, PairsIndex(chain_graph, scorer.dampening)
        )
        cand = CandidateTree.initial(0, match)
        assert tight.upper_bound(cand) <= loose.upper_bound(cand) + 1e-12

    def test_sourceless_candidate_zero(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        # hand-build a candidate over free nodes only
        from repro import JoinedTupleTree
        cand = CandidateTree(
            JoinedTupleTree([1, 2], [(1, 2)]), 1, 1, 1, frozenset()
        )
        assert estimator.upper_bound(cand) == 0.0
