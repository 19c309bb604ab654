"""Tests for span tracing: trees, sampling, the slow ring, propagation.

The propagation tests cover the daemon's one thread hop: a span created
on the event loop must parent the span created on the worker thread,
and the whole tree — response ``trace_id`` included — must agree end
to end over the real network path.  The hop also copies the caller's
context variables into the worker, as ``asyncio.to_thread`` does.
"""

import threading

import pytest

from repro.config import ServingParams
from repro.obs import ManualClock, NullTracer, Tracer
from repro.serving import InProcessServer, ServingClient


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


class TestSpans:
    def test_durations_come_from_the_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=1e9)
        span = tracer.start_span("root")
        clock.advance(0.25)
        span.finish()
        assert span.duration_seconds == pytest.approx(0.25)

    def test_children_nest_and_share_the_trace_id(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=1e9)
        root = tracer.start_span("root")
        child = root.child("mid")
        grandchild = child.child("leaf")
        assert root.trace_id == child.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        tree = root.as_dict()
        assert tree["name"] == "root"
        assert tree["children"][0]["children"][0]["name"] == "leaf"

    def test_finish_is_idempotent(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=1e9)
        span = tracer.start_span("root")
        clock.advance(1.0)
        span.finish()
        clock.advance(1.0)
        span.finish()
        assert span.duration_seconds == pytest.approx(1.0)
        assert tracer.counters()["spans_finished"] == 1

    def test_context_manager_finishes(self):
        tracer = Tracer(clock=ManualClock(), slow_ms=1e9)
        with tracer.start_span("root"):
            pass
        assert tracer.counters()["spans_finished"] == 1

    def test_attributes_accumulate(self):
        tracer = Tracer(clock=ManualClock(), slow_ms=1e9)
        span = tracer.start_span("root")
        span.set_attribute("k", 3)
        span.set_attributes({"engine": "arena", "k": 5})
        assert span.attributes == {"k": 5, "engine": "arena"}


class TestSampling:
    def test_sample_zero_returns_none(self):
        tracer = Tracer(clock=ManualClock(), sample=0.0)
        assert tracer.start_span("root") is None

    def test_null_tracer_never_samples(self):
        tracer = NullTracer(ManualClock())
        assert tracer.start_span("root") is None
        assert tracer.counters()["spans_started"] == 0

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)


class TestSlowRing:
    def _traced(self, tracer, clock, seconds):
        span = tracer.start_span("q")
        clock.advance(seconds)
        span.finish()

    def test_only_slow_roots_enter_the_ring(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=100.0, ring_size=8)
        self._traced(tracer, clock, 0.05)   # fast: dropped
        self._traced(tracer, clock, 0.25)   # slow: kept
        slow = tracer.slow_queries()
        assert len(slow) == 1
        assert slow[0]["duration_ms"] == pytest.approx(250.0)
        assert tracer.counters()["slow_queries"] == 1

    def test_ring_is_bounded(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=0.0, ring_size=3)
        for _ in range(10):
            self._traced(tracer, clock, 0.01)
        assert len(tracer.slow_queries()) == 3
        assert tracer.counters()["slow_queries"] == 10

    def test_child_finish_does_not_report(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, slow_ms=0.0, ring_size=8)
        root = tracer.start_span("root")
        child = root.child("child")
        clock.advance(1.0)
        child.finish()
        assert tracer.slow_queries() == []
        root.finish()
        assert len(tracer.slow_queries()) == 1


class TestPropagationAcrossBatcherThreads:
    def test_trace_id_survives_the_worker_thread_hop(
        self, tiny_dblp_system
    ):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(
            port=0, workers=2, slow_query_ms=0.0
        )
        with InProcessServer(tiny_dblp_system, params) as server:
            query = _pick_query(tiny_dblp_system)
            with ServingClient(server.host, server.port) as client:
                response = client.search(query, k=3)
                slow = client.slow_queries()["slow_queries"]
        trace_id = response["trace_id"]
        assert trace_id
        trees = [t for t in slow if t["trace_id"] == trace_id]
        assert len(trees) == 1, "response trace id must match one dump"
        root = trees[0]
        assert root["name"] == "serve.search"
        assert root["attributes"]["query"] == query

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        names = {node["name"] for node in walk(root)}
        # flight runs on the event loop, execute on a pool thread, and
        # search inside the engine — one contiguous tree proves the
        # span crossed the loop->thread boundary intact.
        assert {"serve.search", "flight", "execute", "search"} <= names
        assert all(
            node["trace_id"] == trace_id for node in walk(root)
        )
        execute = next(n for n in walk(root) if n["name"] == "execute")
        assert execute["children"], "execute must parent the search span"

    def test_context_variables_ride_the_worker_hop(
        self, tiny_dblp_system, monkeypatch
    ):
        import asyncio
        import contextvars

        from repro.serving import CIRankDaemon
        from repro.serving import daemon as daemon_module

        marker = contextvars.ContextVar("marker", default=None)
        seen = []
        real = daemon_module.run_with_deadline

        def spy(*args, **kwargs):
            seen.append((marker.get(), threading.current_thread().name))
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "run_with_deadline", spy)
        tiny_dblp_system.answer_cache.clear()
        query = _pick_query(tiny_dblp_system, keywords=1)

        async def scenario():
            daemon = CIRankDaemon(
                tiny_dblp_system, ServingParams(port=0, workers=1)
            )
            await daemon.start()
            try:
                marker.set("request-7")
                await daemon.handle_search({"query": query, "k": 1})
            finally:
                await daemon.stop()

        asyncio.run(scenario())
        assert len(seen) == 1
        value, thread_name = seen[0]
        assert thread_name.startswith("cirank-worker")
        assert value == "request-7", "the caller's context must cross"

    def test_concurrent_requests_get_distinct_trace_ids(
        self, tiny_dblp_system
    ):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(port=0, workers=2)
        ids = []
        errors = []
        with InProcessServer(tiny_dblp_system, params) as server:
            query = _pick_query(tiny_dblp_system)

            def fire():
                try:
                    with ServingClient(server.host, server.port) as c:
                        ids.append(c.search(query, k=3)["trace_id"])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(ids) == 6
        assert len(set(ids)) == 6, "every request owns its trace id"
