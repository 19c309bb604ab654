"""Tests for repro.search.candidate (grow/merge bookkeeping)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CandidateTree, JoinedTupleTree, SearchError
from repro.graph.traversal import tree_diameter
from .conftest import make_query_env


@pytest.fixture()
def env(star_graph):
    _, match, _ = make_query_env(star_graph, "apple berry cedar")
    return match


class TestInitial:
    def test_single_node(self, env):
        cand = CandidateTree.initial(1, env)
        assert cand.root == 1
        assert cand.depth == 0
        assert cand.diameter == 0
        assert cand.covered == frozenset({"apple"})

    def test_free_node_rejected(self, env):
        with pytest.raises(SearchError):
            CandidateTree.initial(0, env)


class TestGrow:
    def test_grow_updates_bookkeeping(self, env):
        cand = CandidateTree.initial(1, env).grow(0, env)
        assert cand.root == 0
        assert cand.depth == 1
        assert cand.diameter == 1
        assert cand.covered == frozenset({"apple"})
        assert cand.tree.nodes == frozenset({0, 1})

    def test_grow_collects_keywords(self, env):
        cand = CandidateTree.initial(1, env).grow(0, env).grow(2, env)
        assert cand.covered == frozenset({"apple", "berry"})

    def test_grow_into_tree_rejected(self, env):
        cand = CandidateTree.initial(1, env).grow(0, env)
        with pytest.raises(SearchError):
            cand.grow(1, env)


class TestMerge:
    def test_merge_at_common_root(self, env):
        a = CandidateTree.initial(1, env).grow(0, env)
        b = CandidateTree.initial(2, env).grow(0, env)
        merged = a.merge(b)
        assert merged is not None
        assert merged.root == 0
        assert merged.tree.nodes == frozenset({0, 1, 2})
        assert merged.covered == frozenset({"apple", "berry"})
        assert merged.depth == 1
        assert merged.diameter == 2

    def test_merge_requires_same_root(self, env):
        a = CandidateTree.initial(1, env)
        b = CandidateTree.initial(2, env)
        assert a.merge(b) is None

    def test_merge_rejects_node_overlap(self, env):
        """The paper's cycle 'sanity check': operands may share only the
        root node."""
        c = CandidateTree.initial(2, env).grow(0, env)
        d = CandidateTree.initial(1, env).grow(0, env)
        merged = c.merge(d)
        assert merged is not None  # disjoint except root 0: fine
        e = CandidateTree.initial(1, env).grow(0, env)
        assert merged.merge(e) is None  # shares node 1 beyond the root

    def test_strict_merge_requires_new_keywords(self, star_graph):
        """The paper's merge precondition: the union must cover strictly
        more keywords than either operand."""
        _, match, _ = make_query_env(star_graph, "apple berry")
        a = CandidateTree.initial(1, match).grow(0, match)   # covers apple
        b = CandidateTree.initial(2, match).grow(0, match)   # covers berry
        assert a.merge(b, strict=True) is not None
        # a tree already covering {apple, berry} gains nothing from a
        # cedar branch (cedar is not a query keyword): strict refuses.
        full = a.merge(b)
        c = CandidateTree(
            JoinedTupleTree([0, 3], [(0, 3)]), 0, 1, 1,
            match.covered_by([3]) | match.covered_by([0]),
        )
        # c covers no keywords -> not a legal candidate for merging gains
        assert full.merge(c, strict=True) is None
        assert full.merge(c, strict=False) is not None


class TestCompleteness:
    def test_is_complete_and_answer(self, env):
        a = CandidateTree.initial(1, env).grow(0, env)
        b = CandidateTree.initial(2, env).grow(0, env)
        c = CandidateTree.initial(3, env).grow(0, env)
        merged = a.merge(b).merge(c)
        assert merged.is_complete(env)
        assert merged.is_answer(env, max_diameter=2)
        assert not merged.is_answer(env, max_diameter=1)

    def test_incomplete_candidate(self, env):
        a = CandidateTree.initial(1, env)
        assert not a.is_complete(env)

    def test_free_root_single_child_not_answer(self, star_graph):
        """A candidate whose free root has one child is complete but not
        a valid answer (Definition 3's root clause)."""
        _, match, _ = make_query_env(star_graph, "apple")
        cand = CandidateTree.initial(1, match).grow(0, match)
        assert cand.is_complete(match)
        assert not cand.is_answer(match, max_diameter=4)

    def test_signature_identity(self, env):
        """Identical grow chains give the same hashable (root, tree)."""
        a = CandidateTree.initial(1, env).grow(0, env)
        b = CandidateTree.initial(1, env).grow(0, env)
        assert (a.root, a.tree) == (b.root, b.tree)
        assert hash((a.root, a.tree)) == hash((b.root, b.tree))


class TestDiameterBookkeeping:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(), st.integers(min_value=1, max_value=8))
    def test_incremental_diameter_matches_recomputation(self, rng, steps):
        """Random grow/merge sequences keep diameter/depth exact."""
        from repro import DataGraph, InvertedIndex, KeywordMatcher
        g = DataGraph()
        # complete-ish graph over 10 keyword nodes so any grow is legal
        for i in range(10):
            g.add_node("t", f"kw{i}")
        for i in range(10):
            for j in range(i + 1, 10):
                g.add_link(i, j, 1.0, 1.0)
        index = InvertedIndex.build(g)
        match = KeywordMatcher(index).match(
            " ".join(f"kw{i}" for i in range(10))
        )
        candidates = [CandidateTree.initial(i, match) for i in range(10)]
        for _ in range(steps):
            cand = rng.choice(candidates)
            outside = [n for n in range(10) if n not in cand.tree.nodes]
            if outside and rng.random() < 0.7:
                candidates.append(cand.grow(rng.choice(outside), match))
            else:
                partner = rng.choice(candidates)
                merged = cand.merge(partner)
                if merged is not None:
                    candidates.append(merged)
        for cand in candidates:
            if len(cand.tree.nodes) > 1:
                assert cand.diameter == tree_diameter(cand.tree.edges)
            else:
                assert cand.diameter == 0
            depths = {
                node: len(cand.tree.path(cand.root, node)) - 1
                for node in cand.tree.nodes
            }
            assert cand.depth == max(depths.values())
