"""Tests for the CSR kernel layer (repro.graph.csr + vectorized paths).

Three families:

* structural — the compiled arrays agree with the dict adjacency;
* cache protocol — ``DataGraph.compiled()`` caches per version and every
  mutation invalidates it;
* equivalence — the vectorized ``pagerank`` and batched message passing
  match the dict-based reference implementations to 1e-12 on random
  graphs/trees, including dangling nodes, one-way (zero forward weight)
  edges, and single-node trees.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import DataGraph, JoinedTupleTree, pagerank
from repro.exceptions import InvalidTreeError
from repro.graph.csr import compile_graph
from repro.importance.pagerank import pagerank_reference
from repro.rwmp.messages import (
    TreeMessageKernel,
    message_matrix,
    pass_messages_batch,
)

TOL = dict(rtol=1e-12, atol=1e-12)


def random_graph(seed: int, n: int = 20, extra: int = 15) -> DataGraph:
    """Random connected-ish graph with one-way edges and dangling nodes."""
    rng = random.Random(seed)
    g = DataGraph()
    for i in range(n):
        g.add_node("t", f"node {i}")
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], rng.choice(order[:i])
        style = rng.random()
        if style < 0.25:
            g.add_edge(a, b, rng.uniform(0.1, 3.0))   # one-way only
        elif style < 0.5:
            g.add_edge(b, a, rng.uniform(0.1, 3.0))
        else:
            g.add_link(a, b, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        g.add_edge(a, b, rng.uniform(0.1, 2.0))
    # A guaranteed dangling node: in-edge only.
    sink = g.add_node("t", "sink")
    g.add_edge(rng.randrange(n), sink, 1.0)
    return g


def random_tree_case(seed: int):
    """A random graph plus an embedded random tree and generations."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = DataGraph()
    for i in range(n):
        g.add_node("t", f"node {i}")
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        a, b = order[i], rng.choice(order[:i])
        edges.append((a, b))
        style = rng.random()
        if style < 0.3:
            g.add_edge(a, b, rng.uniform(0.1, 3.0))   # zero reverse weight
        elif style < 0.6:
            g.add_edge(b, a, rng.uniform(0.1, 3.0))   # zero forward weight
        else:
            g.add_link(a, b, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
    for _ in range(n // 2):
        a, b = (rng.sample(range(n), 2) if n > 1 else (0, 0))
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b, rng.uniform(0.1, 2.0))
    tree = JoinedTupleTree(range(n), edges)
    sources = rng.sample(range(n), rng.randint(1, n))
    gens = {
        s: (0.0 if rng.random() < 0.2 else rng.uniform(0.1, 40.0))
        for s in sources
    }
    rates = {i: rng.uniform(0.05, 0.95) for i in range(n)}
    return g, tree, gens, rates.__getitem__


# ----------------------------------------------------------- structure


class TestCompiledStructure:
    def test_arrays_match_dict_adjacency(self):
        g = random_graph(3)
        cg = g.compiled()
        assert cg.node_count == g.node_count
        assert cg.edge_count == g.edge_count
        for node in g.nodes():
            targets, weights = cg.out_slice(node)
            assert list(targets) == sorted(g.out_edges(node))
            for t, w in zip(targets, weights):
                assert w == g.out_edges(node)[int(t)]
            sources, in_w = cg.in_slice(node)
            assert list(sources) == sorted(g.in_edges(node))
            for s, w in zip(sources, in_w):
                assert w == g.in_edges(node)[int(s)]
            assert cg.neighbors(node) == tuple(sorted(g.neighbors(node)))
            assert cg.total_out_weight(node) == pytest.approx(
                g.total_out_weight(node)
            )

    def test_edge_lookup_and_adjacency(self):
        g = random_graph(4)
        cg = g.compiled()
        for a in g.nodes():
            for b in g.nodes():
                assert cg.has_edge(a, b) == g.has_edge(a, b)
                assert cg.weight(a, b) == g.weight(a, b)
                assert cg.adjacent(a, b) == (
                    g.has_edge(a, b) or g.has_edge(b, a)
                )

    def test_probabilities_and_dangling(self):
        g = random_graph(5)
        cg = g.compiled()
        for node in g.nodes():
            lo, hi = cg.out_offsets[node], cg.out_offsets[node + 1]
            row = cg.out_probs[lo:hi]
            if g.out_degree(node) == 0:
                assert bool(cg.dangling[node])
                assert row.size == 0
            else:
                assert not bool(cg.dangling[node])
                assert row.sum() == pytest.approx(1.0)
                normalized = g.normalized_out(node)
                for t, p in zip(cg.out_targets[lo:hi], row):
                    assert p == pytest.approx(normalized[int(t)])

    def test_neighbor_types_are_python_ints(self):
        g = random_graph(6)
        cg = g.compiled()
        for v in cg.neighbors(0):
            assert type(v) is int


# ------------------------------------------------------- cache protocol


class TestCompiledCache:
    def test_compiled_is_cached_while_unchanged(self):
        g = random_graph(1)
        assert g.compiled() is g.compiled()

    def test_add_edge_invalidates(self):
        g = random_graph(1)
        before = g.compiled()
        g.add_edge(0, g.node_count - 1, 2.0)
        after = g.compiled()
        assert after is not before
        assert after.version == g.version > before.version
        assert after.weight(0, g.node_count - 1) >= 2.0

    def test_add_node_invalidates(self):
        g = random_graph(2)
        before = g.compiled()
        g.add_node("t", "fresh")
        assert g.compiled() is not before
        assert g.compiled().node_count == g.node_count

    def test_merge_nodes_invalidates(self):
        g = DataGraph()
        for i in range(4):
            g.add_node("t", f"n{i}")
        g.add_link(0, 1, 1.0, 1.0)
        g.add_link(2, 3, 1.0, 1.0)
        before = g.compiled()
        g.merge_nodes(0, 2)
        after = g.compiled()
        assert after is not before
        assert after.neighbors(0) == tuple(sorted(g.neighbors(0)))
        assert after.neighbors(2) == ()

    def test_compile_graph_direct_build(self):
        g = random_graph(7)
        direct = compile_graph(g)
        cached = g.compiled()
        assert direct is not cached
        assert np.array_equal(direct.out_targets, cached.out_targets)
        assert np.array_equal(direct.out_weights, cached.out_weights)


# --------------------------------------------------- pagerank equivalence


class TestPagerankEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        g = random_graph(seed)
        fast = pagerank(g)
        ref = pagerank_reference(g)
        np.testing.assert_allclose(fast.values, ref.values, **TOL)
        assert fast.converged == ref.converged
        assert fast.iterations == ref.iterations

    def test_matches_reference_biased_teleport(self):
        g = random_graph(11)
        rng = np.random.default_rng(11)
        u = rng.random(g.node_count)
        fast = pagerank(g, teleport_vector=u)
        ref = pagerank_reference(g, teleport_vector=u)
        np.testing.assert_allclose(fast.values, ref.values, **TOL)

    def test_warm_restart_matches_reference(self):
        g = random_graph(12)
        cold = pagerank(g)
        g.add_edge(0, 1, 5.0)
        fast = pagerank(g, initial=cold.values)
        ref = pagerank_reference(g, initial=cold.values)
        np.testing.assert_allclose(fast.values, ref.values, **TOL)
        assert fast.iterations == ref.iterations

    def test_repeated_calls_reuse_compiled_view(self):
        g = random_graph(13)
        first = pagerank(g)
        view = g.compiled()
        second = pagerank(g)
        assert g.compiled() is view
        np.testing.assert_allclose(first.values, second.values, rtol=0, atol=0)

    def test_repeated_identical_calls_are_memoized(self):
        g = random_graph(15)
        first = pagerank(g)
        assert pagerank(g) is first  # served from importance_cache
        assert not first.values.flags.writeable
        stats = g.compiled().importance_cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_memo_distinguishes_parameters(self):
        g = random_graph(16)
        base = pagerank(g)
        biased = pagerank(g, teleport=0.3)
        assert biased is not base
        warm = pagerank(g, initial=base.values)
        assert warm is not base
        # Same arguments again: each comes back from the memo.
        assert pagerank(g, teleport=0.3) is biased
        assert pagerank(g, initial=base.values) is warm

    def test_mutation_empties_memo(self):
        g = random_graph(18)
        first = pagerank(g)
        g.add_edge(0, 1, 3.0)
        second = pagerank(g)
        assert second is not first
        np.testing.assert_allclose(
            second.values, pagerank_reference(g).values, **TOL
        )

    def test_mutation_between_calls_changes_result(self):
        g = random_graph(14)
        before = pagerank(g)
        hub = 0
        for node in range(1, 6):
            g.add_edge(node, hub, 10.0)
        after = pagerank(g)
        assert after[hub] > before[hub]
        np.testing.assert_allclose(
            after.values, pagerank_reference(g).values, **TOL
        )


# --------------------------------------------- message-pass equivalence


class TestBatchedMessagesEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_matrix(self, seed):
        g, tree, gens, damp = random_tree_case(seed)
        ref = message_matrix(g, tree, gens, damp)
        fast = pass_messages_batch(g, tree, gens, damp)
        assert set(ref) == set(fast)
        for s in ref:
            assert set(ref[s]) == set(fast[s])
            for v in ref[s]:
                assert fast[s][v] == pytest.approx(
                    ref[s][v], rel=1e-12, abs=1e-12
                )

    def test_single_node_tree(self):
        g = DataGraph()
        g.add_node("t", "only")
        tree = JoinedTupleTree.single(0)
        assert pass_messages_batch(g, tree, {0: 5.0}, lambda n: 0.5) == {0: {}}

    def test_zero_generation_delivers_nothing(self):
        g, tree, gens, damp = random_tree_case(17)
        zeros = {s: 0.0 for s in gens}
        fast = pass_messages_batch(g, tree, zeros, damp)
        for s in fast:
            assert all(v == 0.0 for v in fast[s].values())

    def test_source_outside_tree_rejected(self):
        g, tree, _, damp = random_tree_case(9)
        outside = g.add_node("t", "outside")
        kernel = TreeMessageKernel(g, tree, damp)
        with pytest.raises(InvalidTreeError):
            kernel.deliver([outside], [1.0])

    def test_kernel_reuse_is_stable(self):
        g, tree, gens, damp = random_tree_case(23)
        kernel = TreeMessageKernel(g, tree, damp)
        a = pass_messages_batch(g, tree, gens, damp, kernel=kernel)
        b = pass_messages_batch(g, tree, gens, damp, kernel=kernel)
        assert a == b


# ------------------------------------------------- scorer fast path


class TestScorerFastPath:
    def test_node_scores_match_reference_min(self, star_graph):
        from tests.conftest import make_query_env
        _, match, scorer = make_query_env(star_graph, "apple berry cedar")
        tree = JoinedTupleTree([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        fast = scorer.node_scores(tree)
        gens = {s: scorer.generation(s) for s in scorer.sources_in(tree)}
        ref = message_matrix(
            scorer.graph, tree, gens, scorer.dampening.rate
        )
        for destination in fast:
            expected = min(
                ref[other][destination]
                for other in gens if other != destination
            )
            assert fast[destination] == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_cache_stats_counters_move(self, chain_graph):
        from tests.conftest import make_query_env
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        tree = JoinedTupleTree([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        scorer.score(tree)
        scorer.score(tree)
        stats = scorer.cache_stats()
        assert stats["tree_score"].hits >= 1
        assert stats["tree_score"].misses >= 1
        # Kernels are compiled per scored tree; the tree-score LRU in
        # front of them is the only scorer cache.
        assert set(stats) == {"tree_score"}
