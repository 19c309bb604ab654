"""Single-flight dedup: one execution per stampede, shared results.

Covers the :class:`repro.serving.dedup.SingleFlight` primitive alone
and wired into the daemon pipeline: N concurrent identical queries run
exactly one search, every waiter receives a response tie-class-identical
to a direct :meth:`CIRankSystem.search`, and a cancelled waiter never
tears down the flight the others share.  Without dedup, a request
cancelled before a pool thread picks up its execution never runs it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import ServingParams
from repro.serving import CIRankDaemon, SingleFlight


def _tie_classes_from_wire(answers):
    """(score, {(nodes, edges)}) tie classes from serialized answers."""
    classes = []
    for answer in answers:
        key = (
            tuple(answer["nodes"]),
            tuple(tuple(edge) for edge in answer["edges"]),
        )
        if classes and classes[-1][0] == answer["score"]:
            classes[-1][1].add(key)
        else:
            classes.append((answer["score"], {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


def _tie_classes_direct(answers):
    classes = []
    for answer in answers:
        key = (
            tuple(sorted(answer.tree.nodes)),
            tuple(sorted(tuple(e) for e in answer.tree.edges)),
        )
        if classes and classes[-1][0] == answer.score:
            classes[-1][1].add(key)
        else:
            classes.append((answer.score, {key}))
    return [(score, frozenset(trees)) for score, trees in classes]


def _pick_query(system, keywords=2) -> str:
    """A deterministic matchable multi-keyword query for a fixture."""
    vocabulary = sorted(system.index.vocabulary())
    chosen = []
    for token in vocabulary:
        if len(system.index.matching_nodes(token)) >= 2:
            chosen.append(token)
        if len(chosen) == keywords:
            break
    assert chosen, "fixture vocabulary unexpectedly empty"
    return " ".join(chosen)


class TestSingleFlightPrimitive:
    def test_concurrent_callers_share_one_execution(self):
        async def scenario():
            flights = SingleFlight()
            release = asyncio.Event()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                await release.wait()
                return "result"

            tasks = [
                asyncio.ensure_future(flights.run("key", supplier))
                for _ in range(8)
            ]
            await asyncio.sleep(0)  # let every caller reach the flight
            assert flights.in_flight == 1
            release.set()
            outcomes = await asyncio.gather(*tasks)
            return calls, outcomes

        calls, outcomes = asyncio.run(scenario())
        assert calls == 1
        assert [result for result, _ in outcomes] == ["result"] * 8
        # Exactly one leader; everybody else coalesced.
        assert sorted(c for _, c in outcomes) == [False] + [True] * 7

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            flights = SingleFlight()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0)
                return calls

            results = await asyncio.gather(
                flights.run("a", supplier), flights.run("b", supplier)
            )
            return calls, results

        calls, results = asyncio.run(scenario())
        assert calls == 2
        assert all(coalesced is False for _, coalesced in results)

    def test_cancelled_waiter_does_not_cancel_the_flight(self):
        async def scenario():
            flights = SingleFlight()
            release = asyncio.Event()
            started = asyncio.Event()

            async def supplier():
                started.set()
                await release.wait()
                return "shared"

            leader = asyncio.ensure_future(flights.run("k", supplier))
            await started.wait()
            waiter_a = asyncio.ensure_future(flights.run("k", supplier))
            waiter_b = asyncio.ensure_future(flights.run("k", supplier))
            await asyncio.sleep(0)
            waiter_a.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter_a
            # The flight survived the waiter's cancellation.
            assert flights.in_flight == 1
            release.set()
            return await asyncio.gather(leader, waiter_b)

        (lead_result, lead_coalesced), (wait_result, wait_coalesced) = (
            asyncio.run(scenario())
        )
        assert lead_result == "shared" and wait_result == "shared"
        assert lead_coalesced is False and wait_coalesced is True

    def test_failure_propagates_and_flight_unregisters(self):
        async def scenario():
            flights = SingleFlight()

            async def failing():
                await asyncio.sleep(0)
                raise ValueError("boom")

            with pytest.raises(ValueError):
                await flights.run("k", failing)
            assert flights.in_flight == 0

            async def healthy():
                return "recovered"

            return await flights.run("k", healthy)

        result, coalesced = asyncio.run(scenario())
        assert result == "recovered" and coalesced is False

    def test_next_request_after_completion_is_a_fresh_flight(self):
        async def scenario():
            flights = SingleFlight()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                return calls

            first = await flights.run("k", supplier)
            second = await flights.run("k", supplier)
            return calls, first, second

        calls, first, second = asyncio.run(scenario())
        assert calls == 2
        assert first == (1, False) and second == (2, False)


class TestDaemonDedup:
    def test_stampede_runs_exactly_one_search(self, tiny_dblp_system):
        """N concurrent identical queries -> one execution, N answers."""
        system = tiny_dblp_system
        query = _pick_query(system)
        n = 12
        executions = 0
        original = system.search_anytime

        def counting(*args, **kwargs):
            nonlocal executions
            executions += 1
            return original(*args, **kwargs)

        system.search_anytime = counting
        try:
            system.answer_cache.clear()

            async def scenario():
                daemon = CIRankDaemon(
                    system,
                    ServingParams(port=0, workers=2),
                )
                await daemon.start()
                try:
                    return await asyncio.gather(*[
                        daemon.handle_search({"query": query, "k": 3})
                        for _ in range(n)
                    ]), daemon.stats.as_dict()
                finally:
                    await daemon.stop()

            responses, stats = asyncio.run(scenario())
        finally:
            system.search_anytime = original

        assert executions == 1, "the stampede must collapse to one search"
        assert stats["received"] == n
        assert stats["executed"] == 1
        assert stats["coalesced"] == n - 1
        assert len(responses) == n

        # Every waiter got the leader's (proven) result, and it is
        # tie-class-identical to a direct facade search.
        direct = system.search(query, k=3)
        expected = _tie_classes_direct(direct)
        for response in responses:
            assert response["proven"] is True
            assert _tie_classes_from_wire(response["answers"]) == expected
        assert sum(1 for r in responses if not r["coalesced"]) == 1

    def test_dedup_disabled_executes_every_request(self, tiny_dblp_system):
        system = tiny_dblp_system
        query = _pick_query(system)
        system.answer_cache.clear()

        async def scenario():
            daemon = CIRankDaemon(
                system,
                ServingParams(
                    port=0, workers=2, dedup=False
                ),
            )
            await daemon.start()
            try:
                await asyncio.gather(*[
                    daemon.handle_search({"query": query, "k": 3})
                    for _ in range(4)
                ])
                return daemon.stats.as_dict()
            finally:
                await daemon.stop()

        stats = asyncio.run(scenario())
        assert stats["executed"] == 4 and stats["coalesced"] == 0
        # The answer cache still collapses the redundant *work*: after
        # the first proven result is stored, later executions hit it.
        assert stats["cache_served"] >= 1

    def test_different_deadlines_never_share_a_flight(self, tiny_dblp_system):
        system = tiny_dblp_system
        query = _pick_query(system)
        system.answer_cache.clear()

        async def scenario():
            daemon = CIRankDaemon(
                system, ServingParams(port=0, workers=2)
            )
            await daemon.start()
            try:
                await asyncio.gather(
                    daemon.handle_search({"query": query, "k": 3}),
                    daemon.handle_search(
                        {"query": query, "k": 3, "deadline_ms": 5000}
                    ),
                )
                return daemon.stats.as_dict()
            finally:
                await daemon.stop()

        stats = asyncio.run(scenario())
        # Same query, different SLA: two flights, zero coalescing.
        assert stats["executed"] == 2 and stats["coalesced"] == 0

    def test_cancelled_request_skips_its_unstarted_execution(
        self, tiny_dblp_system, monkeypatch
    ):
        import threading

        from repro.serving import daemon as daemon_module

        started, release = threading.Event(), threading.Event()
        ran = []
        real = daemon_module.run_with_deadline

        def gated(system, query, **kwargs):
            ran.append(query)
            started.set()
            release.wait(30)
            return real(system, query, **kwargs)

        monkeypatch.setattr(daemon_module, "run_with_deadline", gated)
        system = tiny_dblp_system
        query = _pick_query(system, keywords=1)
        system.answer_cache.clear()

        async def scenario():
            daemon = CIRankDaemon(
                system, ServingParams(port=0, workers=1, dedup=False)
            )
            await daemon.start()
            try:
                payload = {"query": query, "k": 1}
                leader = asyncio.ensure_future(daemon.handle_search(payload))
                # The one pool thread is now busy with the leader.
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                queued = asyncio.ensure_future(daemon.handle_search(payload))
                await asyncio.sleep(0.05)
                queued.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await queued
                release.set()
                await leader
            finally:
                release.set()
                await daemon.stop()
            return daemon.stats.as_dict()

        stats = asyncio.run(scenario())
        assert ran == [query], "the cancelled execution must never start"
        assert stats["executed"] == 1 and stats["in_flight"] == 0
