"""Tests for the metrics registry and its Prometheus exposition.

The load-bearing checks: the rendered text parses back to exactly the
registry's :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` snapshot
(round trip), and every histogram's ``_bucket`` series is
non-decreasing in ``le`` and ends at ``_count`` under ``le="+Inf"``.
"""

import re

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r' (?P<value>\S+)$'
)


def _parse_exposition(text):
    """Parse Prometheus text back into {name: {"type", "samples"}}.

    Samples are ``[(labels_dict, value_str)]`` in render order.
    """
    families = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            current = families[name] = {"type": kind, "samples": []}
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        labels = {}
        if match.group("labels"):
            for pair in re.findall(
                r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                match.group("labels"),
            ):
                labels[pair[0]] = (
                    pair[1]
                    .replace(r"\"", '"')
                    .replace(r"\n", "\n")
                    .replace(r"\\", "\\")
                )
        assert current is not None, f"sample before any # TYPE: {line!r}"
        current["samples"].append((labels, match.group("value")))
    return families


def _family_for(families, sample_name):
    """The family owning a sample name (histograms add suffixes)."""
    if sample_name in families:
        return families[sample_name]
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return families[base]
    raise AssertionError(f"no family for {sample_name}")


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_raises(self):
        c = Counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_partition(self):
        c = Counter("c_total", labelnames=("phase",))
        c.labels("bound").inc(2)
        c.labels("expand").inc(3)
        assert c.value("bound") == 2 and c.value("expand") == 3

    def test_function_backed_forbids_inc(self):
        c = Counter("c_total", fn=lambda: 42)
        assert c.value() == 42.0
        with pytest.raises(ValueError):
            c.inc()

    def test_function_backed_forbids_labels(self):
        with pytest.raises(ValueError):
            Counter("c_total", labelnames=("x",), fn=lambda: 0)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value() == 4.0

    def test_function_backed(self):
        box = {"v": 7}
        g = Gauge("g", fn=lambda: box["v"])
        assert g.value() == 7.0
        box["v"] = 9
        assert g.value() == 9.0


class TestHistogram:
    def test_boundary_value_lands_in_its_le_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(2.0)  # le semantics: exactly 2.0 counts under le="2"
        snap = h.snapshot()
        assert snap["buckets"]["1"] == 0
        assert snap["buckets"]["2"] == 1
        assert snap["buckets"]["5"] == 1
        assert snap["inf"] == 1 and snap["count"] == 1

    def test_overflow_beyond_last_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(100.0)
        snap = h.snapshot()
        assert snap["buckets"]["2"] == 0
        assert snap["inf"] == 1

    def test_cumulative_buckets_are_monotonic(self):
        h = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 7.0, 7.0, 50.0):
            h.observe(value)
        snap = h.snapshot()
        series = list(snap["buckets"].values()) + [snap["inf"]]
        assert series == sorted(series)
        assert snap["inf"] == snap["count"] == 6
        assert snap["sum"] == pytest.approx(68.2)

    def test_needs_a_bucket(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))


class TestRegistry:
    def test_registration_is_idempotent_by_name(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total")
        b = registry.counter("hits_total")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labelnames=("b",))

    def test_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestExposition:
    def _populated_registry(self):
        registry = MetricsRegistry()
        c = registry.counter("req_total", "Requests.")
        c.inc(3)
        registry.counter("fn_total", "Mirrored.", fn=lambda: 11)
        g = registry.gauge("in_flight", "In flight.")
        g.set(2)
        phases = registry.counter(
            "phase_seconds_total", "Per-phase.", labelnames=("phase",)
        )
        phases.labels("bound").inc(0.25)
        phases.labels("expand").inc(1.5)
        h = registry.histogram("lat_ms", "Latency.", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 5.0, 99.0):
            h.observe(value)
        return registry

    def test_render_round_trips_against_as_dict(self):
        registry = self._populated_registry()
        families = _parse_exposition(registry.render())
        snapshot = registry.as_dict()
        assert set(families) == set(snapshot)
        for name, meta in snapshot.items():
            assert families[name]["type"] == meta["kind"]
        # plain counters and gauges round-trip exactly
        assert families["req_total"]["samples"] == [({}, "3")]
        assert families["fn_total"]["samples"] == [({}, "11")]
        assert families["in_flight"]["samples"] == [({}, "2")]
        labelled = {
            tuple(sorted(labels.items())): value
            for labels, value in families["phase_seconds_total"]["samples"]
        }
        assert labelled[(("phase", "bound"),)] == "0.25"
        assert labelled[(("phase", "expand"),)] == "1.5"
        # histogram series mirror the snapshot's cumulative buckets
        hist = snapshot["lat_ms"]["samples"][""]
        buckets = {
            labels["le"]: int(value)
            for labels, value in families["lat_ms"]["samples"]
            if labels.get("le")
        }
        assert buckets["1"] == hist["buckets"]["1"]
        assert buckets["10"] == hist["buckets"]["10"]
        assert buckets["+Inf"] == hist["inf"] == hist["count"] == 4

    def test_rendered_histogram_buckets_are_monotonic(self):
        registry = self._populated_registry()
        families = _parse_exposition(registry.render())
        series = [
            int(value)
            for labels, value in families["lat_ms"]["samples"]
            if "le" in labels
        ]
        assert series and series == sorted(series)
        count = next(
            int(value)
            for labels, value in families["lat_ms"]["samples"]
            if "le" not in labels and value.isdigit()
        )
        assert series[-1] == count

    def test_every_sample_belongs_to_a_typed_family(self):
        registry = self._populated_registry()
        text = registry.render()
        assert text.endswith("\n")
        families = _parse_exposition(text)
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = _SAMPLE_RE.match(line).group("name")
            _family_for(families, name)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        c = registry.counter("esc_total", labelnames=("q",))
        tricky = 'he said "hi"\nback\\slash'
        c.labels(tricky).inc()
        families = _parse_exposition(registry.render())
        (labels, value), = families["esc_total"]["samples"]
        assert labels["q"] == tricky and value == "1"


class TestDaemonExposition:
    def test_arena_execution_exposes_no_shard_family(self, tiny_dblp_system):
        import asyncio

        from repro.config import ServingParams
        from repro.serving.daemon import CIRankDaemon

        system = tiny_dblp_system
        system.answer_cache.clear()
        query = " ".join(sorted(system.index.vocabulary())[:2])

        async def scenario():
            daemon = CIRankDaemon(
                system, ServingParams(port=0, workers=1, max_wait_ms=0.0)
            )
            await daemon.start()
            try:
                await daemon.handle_search({"query": query})
                return daemon.metrics_text()
            finally:
                await daemon.stop()

        families = _parse_exposition(asyncio.run(scenario()))
        assert "cirank_arena_peak_bytes" in families
        assert not [
            name for name in families if name.startswith("cirank_shard")
        ]
