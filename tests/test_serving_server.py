"""The HTTP front end, exercised over real sockets.

An :class:`~repro.serving.loadgen.InProcessServer` binds an ephemeral
port on a background event loop; every test drives it through the
stdlib :class:`~repro.serving.client.ServingClient` (or a raw socket
for the protocol-abuse cases).  Covers the route surface, request
validation, payload caps, keep-alive, the ``/stats`` audit invariant,
and graceful shutdown draining in-flight queries.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.config import ServingParams
from repro.serving import (
    InProcessServer,
    ServingClient,
    ServingRequestFailed,
)


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


@pytest.fixture()
def server(tiny_dblp_system):
    tiny_dblp_system.answer_cache.clear()
    params = ServingParams(
        port=0, workers=2, max_request_bytes=64 * 1024
    )
    with InProcessServer(tiny_dblp_system, params) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServingClient(server.host, server.port, timeout=30.0) as c:
        yield c


def _raw_request(server, payload: bytes) -> bytes:
    """Send raw bytes, return the raw response (protocol-abuse cases)."""
    with socket.create_connection(
        (server.host, server.port), timeout=10.0
    ) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestRoutes:
    def test_health(self, server, client, tiny_dblp_system):
        document = client.health()
        assert document["status"] == "ok"
        assert document["nodes"] == tiny_dblp_system.graph.node_count
        assert document["edges"] == tiny_dblp_system.graph.edge_count

    def test_search_matches_direct_search(
        self, server, client, tiny_dblp_system
    ):
        query = _pick_query(tiny_dblp_system)
        response = client.search(query, k=3)
        assert response["proven"] is True and response["gap"] == 0.0
        direct = tiny_dblp_system.search(query, k=3)
        assert len(response["answers"]) == len(direct)
        served = [
            (round(a["score"], 9), tuple(a["nodes"]))
            for a in response["answers"]
        ]
        expected = [
            (round(a.score, 9), tuple(sorted(a.tree.nodes)))
            for a in direct
        ]
        # Scores must agree position by position; trees may permute
        # only inside exact ties.
        assert [s for s, _ in served] == [s for s, _ in expected]
        assert set(served) == set(expected)

    def test_search_answers_carry_description(
        self, server, client, tiny_dblp_system
    ):
        query = _pick_query(tiny_dblp_system)
        response = client.search(query, k=1)
        assert response["answers"], "fixture query must have answers"
        first = response["answers"][0]
        assert isinstance(first["text"], str) and first["text"]
        assert first["nodes"] == sorted(first["nodes"])

    def test_unknown_route_is_404(self, server, client):
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, server, client):
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._request("GET", "/search")
        assert excinfo.value.status == 405
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._request("POST", "/stats", {})
        assert excinfo.value.status == 405

    def test_keep_alive_reuses_one_connection(self, server, client):
        client.health()
        conn = client._conn
        client.stats()
        client.health()
        assert client._conn is conn, "keep-alive must reuse the socket"


class TestValidation:
    def test_malformed_json_is_400(self, server, client):
        conn_payload = b"this is not json"
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._roundtrip(
                "POST", "/search", conn_payload,
                {"Content-Type": "application/json"},
            )
        assert excinfo.value.status == 400
        assert "not JSON" in excinfo.value.payload["error"]

    @pytest.mark.parametrize("payload", [
        {},                                       # missing query
        {"query": ""},                            # empty query
        {"query": "   "},                         # whitespace query
        {"query": 7},                             # wrong type
        {"query": "x", "k": 0},                   # bad k
        {"query": "x", "k": True},                # bool masquerading
        {"query": "x", "diameter": -1},           # bad diameter
        {"query": "x", "deadline_ms": -5},        # bad deadline
        {"query": "x", "engine": "arena"},        # retired field
        {"query": "x", "frobnicate": 1},          # unknown field
        {"query": "x", "engine": "sharded"},      # retired field
    ])
    def test_bad_payloads_are_400(self, server, client, payload):
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._request("POST", "/search", payload)
        assert excinfo.value.status == 400

    def test_oversized_payload_is_413(self, server, client):
        huge = {"query": "x" * (server.daemon.params.max_request_bytes + 1)}
        with pytest.raises(ServingRequestFailed) as excinfo:
            client._request("POST", "/search", huge)
        assert excinfo.value.status == 413

    def test_garbage_request_line_is_400(self, server):
        raw = _raw_request(server, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_chunked_body_is_rejected(self, server):
        raw = _raw_request(
            server,
            b"POST /search HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400")

    def test_rejections_do_not_leak_into_received(self, server, client):
        before = client.stats()
        for payload in (
            {"query": ""},
            {"query": "x", "engine": "sharded"},
            {"query": "x", "engine": "arena"},
            {"query": ""},
        ):
            with pytest.raises(ServingRequestFailed):
                client._request("POST", "/search", payload)
        after = client.stats()
        assert after["rejected"] == before["rejected"] + 4
        assert after["received"] == before["received"]


class TestStatsConsistency:
    def test_coalesced_plus_executed_equals_received(
        self, server, tiny_dblp_system
    ):
        query = _pick_query(tiny_dblp_system)
        threads = []
        errors = []

        def fire():
            try:
                with ServingClient(server.host, server.port) as c:
                    c.search(query, k=3)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        for _ in range(8):
            thread = threading.Thread(target=fire)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        assert not errors

        with ServingClient(server.host, server.port) as c:
            stats = c.stats()
        assert stats["received"] == 8
        assert stats["executed"] + stats["coalesced"] == stats["received"]
        assert stats["cache_served"] <= stats["executed"]
        # perfbench still reads the batch keys; each execution is alone.
        assert (
            stats["batches"] == stats["batched_queries"] == stats["executed"]
        )
        assert stats["in_flight"] == 0
        assert stats["peak_in_flight"] >= 1


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight(self, tiny_dblp_system):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(port=0, workers=2)
        running = InProcessServer(tiny_dblp_system, params)
        running.start()
        # Snapshot the address: the listener socket (and its file
        # descriptor) is gone once stop() wins the race below.
        host, port = running.host, running.port
        query = _pick_query(tiny_dblp_system, keywords=3)
        results = []

        def fire():
            with ServingClient(host, port) as c:
                try:
                    results.append(("ok", c.search(query, k=5)))
                except ServingRequestFailed as exc:
                    results.append(("refused", exc.status))
                except (ConnectionError, OSError) as exc:
                    results.append(("dropped", str(exc)))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        running.stop()  # graceful: drains before the loop exits
        for thread in threads:
            thread.join()
        assert len(results) == 4
        for kind, value in results:
            # Every request either completed with a full, valid
            # response or was refused cleanly (503 while draining /
            # connection refused after the listener closed) — never a
            # torn response.
            if kind == "ok":
                assert value["proven"] in (True, False)
                assert "answers" in value
            elif kind == "refused":
                assert value == 503

    def test_drain_mid_execution_keeps_audit_invariant(
        self, tiny_dblp_system
    ):
        """Graceful stop while a request is held mid-execution.

        Drain begins while the request is provably inside the search;
        it must still complete proven, and every request must land in
        the ``received == executed + coalesced`` audit identity with
        nothing left in flight.
        """
        system = tiny_dblp_system
        system.answer_cache.clear()
        query = _pick_query(system)
        params = ServingParams(
            port=0, workers=2, drain_seconds=20.0
        )
        running = InProcessServer(system, params)
        running.start()
        host, port = running.host, running.port
        entered = threading.Event()
        release = threading.Event()
        original = system.search_anytime

        def gated(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=30.0), "drain gate never released"
            return original(*args, **kwargs)

        results = []

        def fire():
            with ServingClient(host, port) as c:
                results.append(c.search(query, k=4))

        try:
            with ServingClient(host, port) as warm:
                warm.search(query, k=4)
            system.answer_cache.clear()  # force a real flight

            system.search_anytime = gated
            flight = threading.Thread(target=fire)
            flight.start()
            # The request is provably mid-execution when drain begins.
            assert entered.wait(timeout=30.0), "request never took off"
            stopper = threading.Thread(target=running.stop)
            stopper.start()
            deadline = time.monotonic() + 30.0
            while not running.daemon.draining:
                assert time.monotonic() < deadline, "drain never began"
                time.sleep(0.005)
            release.set()
            flight.join(timeout=60.0)
            stopper.join(timeout=60.0)
            assert not flight.is_alive() and not stopper.is_alive()
        finally:
            system.search_anytime = original
        (response,) = results
        assert response["proven"] is True and response["answers"]
        stats = running.daemon.stats.as_dict()
        # Warm-up and the drained in-flight request both resolved:
        # nothing received may vanish mid-drain.
        assert stats["received"] == 2
        assert stats["received"] == stats["executed"] + stats["coalesced"]
        assert stats["in_flight"] == 0

    def test_shutdown_endpoint_stops_the_server(self, tiny_dblp_system):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(port=0, workers=1)
        running = InProcessServer(tiny_dblp_system, params)
        running.start()
        host, port = running.host, running.port
        with ServingClient(host, port) as c:
            document = c.shutdown()
        assert document["status"] == "shutting down"
        running._thread.join(timeout=30.0)
        assert not running._thread.is_alive()
        with pytest.raises((ConnectionError, OSError)):
            socket.create_connection((host, port), timeout=1.0).close()

    def test_draining_daemon_refuses_new_searches(self, tiny_dblp_system):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(port=0, workers=1)
        with InProcessServer(tiny_dblp_system, params) as running:
            running.run_on_loop(_begin_drain(running))
            with ServingClient(running.host, running.port) as c:
                with pytest.raises(ServingRequestFailed) as excinfo:
                    c.search("anything")
                assert excinfo.value.status == 503
                # Read-only routes still answer while draining.
                assert c.health()["status"] == "draining"


async def _begin_drain(running):
    running.daemon.begin_drain()


class TestPlanAdoption:
    def test_stats_and_metrics_surface_the_adopted_plan(
        self, tiny_dblp_system
    ):
        from repro.serving.daemon import CIRankDaemon

        daemon = CIRankDaemon(
            tiny_dblp_system,
            ServingParams(port=0, plan="/etc/cirank/plan.json"),
        )
        payload = daemon.stats_payload()
        assert payload["plan"]["path"] == "/etc/cirank/plan.json"
        assert (
            payload["plan"]["diameter"]
            == tiny_dblp_system.search_params.diameter
        )
        assert "cirank_plan_applied 1" in daemon.metrics_text()

    def test_no_plan_means_no_plan_section(self, tiny_dblp_system):
        from repro.serving.daemon import CIRankDaemon

        daemon = CIRankDaemon(tiny_dblp_system, ServingParams(port=0))
        assert "plan" not in daemon.stats_payload()
        assert "cirank_plan_applied 0" in daemon.metrics_text()


class TestResponseEncoding:
    def test_responses_are_json_with_content_length(self, server):
        raw = _raw_request(
            server, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: application/json" in head
        length = int(
            [line for line in head.split(b"\r\n")
             if line.lower().startswith(b"content-length:")][0]
            .split(b":")[1]
        )
        assert length == len(body)
        json.loads(body.decode("utf-8"))
