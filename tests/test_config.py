"""Tests for repro.config: parameter validation and Table II weights."""

import pytest

from repro import EdgeWeights, ReproError, RWMPParams, SearchParams
from repro.config import (
    DEFAULT_ALPHA,
    DEFAULT_GROUP_SIZE,
    DEFAULT_TELEPORT,
    ServingParams,
)


class TestRWMPParams:
    def test_defaults_match_paper(self):
        params = RWMPParams()
        assert params.alpha == DEFAULT_ALPHA == 0.15
        assert params.g == DEFAULT_GROUP_SIZE == 20.0
        assert params.teleport == DEFAULT_TELEPORT == 0.15

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ReproError):
            RWMPParams(alpha=alpha)

    @pytest.mark.parametrize("g", [1.0, 0.5, -2.0])
    def test_g_out_of_range(self, g):
        with pytest.raises(ReproError):
            RWMPParams(g=g)

    @pytest.mark.parametrize("teleport", [0.0, 1.0])
    def test_teleport_out_of_range(self, teleport):
        with pytest.raises(ReproError):
            RWMPParams(teleport=teleport)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RWMPParams().alpha = 0.3

    def test_valid_extremes(self):
        assert RWMPParams(alpha=0.01, g=1.5).alpha == 0.01


class TestSearchParams:
    def test_defaults(self):
        params = SearchParams()
        assert params.k == 5
        assert params.diameter == 4
        assert params.strict_merge is True
        assert params.max_candidates == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ReproError):
            SearchParams(k=0)

    def test_diameter_nonnegative(self):
        with pytest.raises(ReproError):
            SearchParams(diameter=-1)
        assert SearchParams(diameter=0).diameter == 0

    def test_max_candidates_nonnegative(self):
        with pytest.raises(ReproError):
            SearchParams(max_candidates=-5)

    @pytest.mark.parametrize("engine", ["warp", "sharded", "arena", "object"])
    def test_unknown_engine_rejected(self, engine):
        """One engine is left, so there is no field to choose it."""
        with pytest.raises(TypeError, match="engine"):
            SearchParams(engine=engine)

    @pytest.mark.parametrize("lazy", [True, False])
    def test_lazy_bounds_switch_rejected(self, lazy):
        """One bound evaluation (lazy) is left."""
        with pytest.raises(TypeError, match="lazy_bounds"):
            SearchParams(lazy_bounds=lazy)


class TestServingParams:
    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError):
            ServingParams(workers=0)

    @pytest.mark.parametrize(
        "knob", [{"max_wait_ms": 0.0}, {"max_batch_size": 8}]
    )
    def test_batching_knobs_rejected(self, knob):
        """Each execution hops to the pool alone; nothing batches."""
        with pytest.raises(TypeError, match=next(iter(knob))):
            ServingParams(**knob)


class TestEdgeWeights:
    def test_table2_imdb_weights(self):
        w = EdgeWeights()
        assert w.weight_for("actor", "movie") == 1.0
        assert w.weight_for("movie", "actor") == 1.0
        assert w.weight_for("producer", "movie") == 0.5
        assert w.weight_for("movie", "company") == 0.5

    def test_table2_dblp_weights(self):
        w = EdgeWeights()
        assert w.weight_for("author", "paper") == 1.0
        assert w.weight_for("conference", "paper") == 0.5

    def test_citation_asymmetry(self):
        """Table II: citing -> cited 0.5, cited -> citing 0.1."""
        w = EdgeWeights()
        forward = w.weight_for("paper", "paper", link="cites", owner="source")
        backward = w.weight_for("paper", "paper", link="cites", owner="target")
        assert forward == 0.5
        assert backward == 0.1

    def test_case_insensitive(self):
        w = EdgeWeights()
        assert w.weight_for("Actor", "MOVIE") == 1.0

    def test_default_for_unknown(self):
        w = EdgeWeights(default=0.3)
        assert w.weight_for("foo", "bar") == 0.3

    def test_set_weight_override(self):
        w = EdgeWeights()
        w.set_weight("actor", "movie", 2.0)
        assert w.weight_for("actor", "movie") == 2.0

    def test_set_weight_rejects_nonpositive(self):
        w = EdgeWeights()
        with pytest.raises(ReproError):
            w.set_weight("a", "b", 0.0)

    def test_link_falls_back_to_plain_pair(self):
        w = EdgeWeights()
        assert w.weight_for("author", "paper", link="writes") == 1.0
