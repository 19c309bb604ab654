"""The star index's precomputed lookup tables, pinned bitwise.

``StarIndex`` evaluates the §V case-2/3 lookups from per-node ``S(v)``
tuples and per-star beyond-ball fallbacks built once, and the bound
estimator and arena read ``DampeningModel.rates`` directly.  These tests
keep the per-pair three-case loop those tables replaced as a test-only
reference and assert ``==`` (not approximate) equality for every ordered
node pair, on kernel-built, reference-built and ``load_index``-restored
indexes, plus the rate table against the scalar dampening function.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DampeningModel, IndexingError
from repro.indexing.build import node_rates
from repro.indexing.star import StarIndex
from repro.rwmp.dampening import linear_dampening
from repro.storage.index_store import load_index, save_index

# ------------------------------------------------ test-only reference


def _reference_star_neighbors(index, node):
    """``S(v)`` recomputed from the live graph on every call."""
    return [n for n in index.graph.neighbors(node) if index.is_star(n)]


def _reference_star_pair(index, u, v):
    """(distance lower bound, retention upper bound) for star pairs."""
    if u == v:
        return 0.0, 1.0
    entry = index._entries.get(u, {}).get(v)
    if entry is not None:
        return float(entry[0]), entry[1]
    radius = index._radius.get(u, index.horizon)
    return float(radius + 1), index._d_max ** (radius + 1)


def _reference_distance_lower(index, u, v):
    if u == v:
        return 0.0
    pair = _reference_star_pair
    u_star, v_star = index.is_star(u), index.is_star(v)
    if u_star and v_star:
        return pair(index, u, v)[0]
    if u_star and not v_star:
        sv = _reference_star_neighbors(index, v)
        if not sv:
            return float("inf")
        return min(pair(index, u, s)[0] for s in sv) + 1
    if not u_star and v_star:
        su = _reference_star_neighbors(index, u)
        if not su:
            return float("inf")
        return min(pair(index, s, v)[0] for s in su) + 1
    su = _reference_star_neighbors(index, u)
    sv = _reference_star_neighbors(index, v)
    if not su or not sv:
        return float("inf")
    return min(pair(index, a, b)[0] for a in su for b in sv) + 2


def _reference_retention_upper(index, u, v):
    if u == v:
        return 1.0
    pair = _reference_star_pair
    rate = _scalar_rate(index.dampening)
    u_star, v_star = index.is_star(u), index.is_star(v)
    if u_star and v_star:
        return pair(index, u, v)[1]
    if u_star and not v_star:
        sv = _reference_star_neighbors(index, v)
        if not sv:
            return 0.0
        return max(pair(index, u, s)[1] for s in sv) * rate(v)
    if not u_star and v_star:
        su = _reference_star_neighbors(index, u)
        if not su:
            return 0.0
        return max(rate(s) * pair(index, s, v)[1] for s in su)
    su = _reference_star_neighbors(index, u)
    sv = _reference_star_neighbors(index, v)
    if not su or not sv:
        return 0.0
    return max(
        rate(a) * pair(index, a, b)[1] for a in su for b in sv
    ) * rate(v)


def _scalar_rate(model: DampeningModel):
    """The per-call rate the table replaced: ``fn(p_node / p_min)``."""
    def rate(node):
        return model._fn(model.importance[node] / model.p_min)
    return rate


# ------------------------------------------------------------ fixtures


def _indexes(system, tmp_path):
    """Kernel-, reference- and restored star indexes of one system,
    plus a ball-valved kernel index whose truncated balls send many
    pairs through the beyond-ball fallback."""
    graph, dampening = system.graph, system.dampening
    kernel = StarIndex(graph, dampening, method="kernel")
    save_index(kernel, tmp_path / "star")
    return {
        "kernel": kernel,
        "reference": StarIndex(graph, dampening, method="reference"),
        "restored": load_index(tmp_path / "star", graph, dampening),
        "valved": StarIndex(graph, dampening, horizon=3, max_ball=6),
    }


@pytest.fixture(params=["imdb", "dblp"])
def system(request, tiny_imdb_system, tiny_dblp_system):
    return tiny_imdb_system if request.param == "imdb" else tiny_dblp_system


# --------------------------------------------------------------- tests


def test_lookups_equal_the_three_case_loop_bitwise(system, tmp_path):
    """``distance_lower``/``retention_upper`` == the per-pair loop, for
    every ordered node pair and every way of obtaining the index."""
    nodes = list(system.graph.nodes())
    fallbacks = 0
    for kind, index in _indexes(system, tmp_path).items():
        for u in nodes:
            assert sorted(index.star_neighbors(u)) == sorted(
                _reference_star_neighbors(index, u)
            )
            for v in nodes:
                got = index.distance_lower(u, v)
                want = _reference_distance_lower(index, u, v)
                assert got == want, (kind, u, v, got, want)
                got = index.retention_upper(u, v)
                want = _reference_retention_upper(index, u, v)
                assert got == want, (kind, u, v, got, want)
        if kind == "valved":
            stars = [n for n in nodes if index.is_star(n)]
            fallbacks = sum(
                1 for a in stars for b in stars
                if a != b and b not in index._entries.get(a, {})
            )
    assert fallbacks > 0, "the beyond-ball fallback was never exercised"


def test_lookups_after_graph_mutation_raise(tmp_path):
    """The tables describe the graph at build time; a mutated graph
    makes every lookup raise, built or restored alike."""
    from repro import CIRankSystem, DblpConfig, generate_dblp

    system = CIRankSystem.from_database(
        generate_dblp(DblpConfig(conferences=3, papers=20, authors=15, seed=5))
    )
    built = system.build_star_index()
    save_index(built, tmp_path / "star")
    restored = load_index(tmp_path / "star", system.graph, system.dampening)
    author = system.graph.nodes_of_relation("author")[0]
    paper = system.graph.nodes_of_relation("paper")[0]
    other = system.graph.nodes_of_relation("author")[1]
    system.graph.add_link(author, other, 1.0, 1.0)
    for index in (built, restored):
        for u, v in ((author, paper), (paper, author), (author, other),
                     (paper, paper + 1)):
            with pytest.raises(IndexingError):
                index.distance_lower(u, v)
            with pytest.raises(IndexingError):
                index.retention_upper(u, v)
        with pytest.raises(IndexingError):
            index.star_neighbors(author)


@pytest.mark.parametrize("form", ["eq2", "linear"])
def test_rate_table_equals_the_scalar_function(system, form):
    """``rates[n] == rate(n) == fn(p_n / p_min)`` for every node, and
    the kernels' rate vector is built from the same table."""
    importance = system.importance
    if form == "eq2":
        model = DampeningModel(importance, system.params)
    else:
        spread = float(importance.values.max()) / importance.p_min
        model = DampeningModel(importance, fn=linear_dampening(spread))
    scalar = _scalar_rate(model)
    table = model.rates
    assert len(table) == system.graph.node_count
    for node in system.graph.nodes():
        assert table[node] == model.rate(node) == scalar(node), node
    vector = node_rates(system.graph, model)
    expected = np.array(
        [scalar(n) for n in system.graph.nodes()], dtype=np.float64
    )
    assert vector.tobytes() == expected.tobytes()
