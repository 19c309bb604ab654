"""Tests for workload capture, aggregation, and replay parity.

The differential leg is the acceptance criterion: replaying a captured
log (deadlines stripped) must produce tie-class-identical top-k to
calling :meth:`CIRankSystem.search` directly for every logged query,
and the capture must satisfy ``logged == received``.
"""

import json
import os
import threading

import pytest

from repro.config import ServingParams
from repro.obs import (
    QueryLogWriter,
    Workload,
    read_query_log,
    replay,
    verify_parity,
)
from repro.serving import InProcessServer, ServingClient, ServingRequestFailed


def _pick_queries(system, count=3):
    vocabulary = sorted(system.index.vocabulary())
    chosen = [
        token
        for token in vocabulary
        if len(system.index.matching_nodes(token)) >= 2
    ]
    assert len(chosen) >= count, "fixture vocabulary unexpectedly small"
    return chosen[:count]


class TestQueryLogWriter:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with QueryLogWriter(path) as log:
            log.write({"query": "a", "ts": 1.0})
            log.write({"query": "b", "ts": 2.0})
        records = read_query_log(path)
        assert [r["query"] for r in records] == ["a", "b"]

    def test_rotation_keeps_newest_and_reads_in_order(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        line = len(
            json.dumps({"i": 0, "pad": "x" * 40}, separators=(",", ":"))
        ) + 1
        with QueryLogWriter(path, max_bytes=line * 2, backups=2) as log:
            for i in range(8):
                log.write({"i": i, "pad": "x" * 40})
            assert log.rotations == 3
            assert log.records_written == 8
        assert os.path.exists(f"{path}.1") and os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")
        indices = [r["i"] for r in read_query_log(path)]
        # oldest backups were dropped; what survives is contiguous
        # and in arrival order.
        assert indices == sorted(indices) == list(range(2, 8))

    def test_backups_zero_truncates(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with QueryLogWriter(path, max_bytes=64, backups=0) as log:
            for i in range(20):
                log.write({"i": i})
            assert log.rotations > 0
        assert not os.path.exists(f"{path}.1")
        assert read_query_log(path)  # the active tail survives

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with open(path, "w") as fh:
            fh.write('{"query": "ok"}\n')
            fh.write("not json {{{\n")
            fh.write('{"query": "also ok"}\n')
        records = read_query_log(path)
        assert [r["query"] for r in records] == ["ok", "also ok"]

    def test_rejects_bad_limits(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLogWriter(str(tmp_path / "x"), max_bytes=0)
        with pytest.raises(ValueError):
            QueryLogWriter(str(tmp_path / "x"), backups=-1)


class TestWorkloadAggregation:
    RECORDS = [
        {"ts": 0.0, "query": "a b", "k": 3, "fingerprint": "f1"},
        {"ts": 1.0, "query": "a b", "k": 3, "fingerprint": "f1"},
        {"ts": 2.0, "query": "a b", "k": 5, "fingerprint": "f2"},
        {"ts": 10.0, "query": "c", "k": 3, "fingerprint": "f1"},
    ]

    def test_dedups_on_query_and_fingerprint(self):
        workload = Workload.from_records(self.RECORDS)
        assert len(workload.entries) == 3
        assert workload.total_arrivals == 4
        assert workload.period_seconds == pytest.approx(10.0)
        by_key = {
            (e.query, e.fingerprint): e.arrival_count
            for e in workload.entries
        }
        assert by_key[("a b", "f1")] == 2
        assert by_key[("a b", "f2")] == 1

    def test_duplicate_fraction(self):
        workload = Workload.from_records(self.RECORDS)
        assert workload.duplicate_fraction() == pytest.approx(0.25)

    def test_rescale_scales_linearly(self):
        workload = Workload.from_records(self.RECORDS)
        doubled = workload.rescale(20.0)
        assert doubled.period_seconds == 20.0
        assert doubled.total_arrivals == 8

    def test_rescale_floor_keeps_every_query_class(self):
        workload = Workload.from_records(self.RECORDS)
        tiny = workload.rescale(0.001)
        assert len(tiny.entries) == len(workload.entries)
        assert all(e.arrival_count >= 1 for e in tiny.entries)
        assert min(e.arrival_count for e in tiny.entries) == 1

    def test_extreme_downscale_preserves_ratio_ordering(self):
        # Regression: a naive multiply-then-floor flattens 40:20:4 into
        # 1:1:1, erasing the relative arrival rates a planner feeds on.
        # The multiplier is clamped so the smallest class lands on
        # exactly one arrival and the ratios survive (40:20:4 -> 10:5:1).
        records = []
        for query, count in (("hot", 40), ("warm", 20), ("cold", 4)):
            records.extend(
                {"ts": float(i), "query": query, "k": 3, "fingerprint": "f"}
                for i in range(count)
            )
        workload = Workload.from_records(records)
        tiny = workload.rescale(0.001)
        by_query = {e.query: e.arrival_count for e in tiny.entries}
        assert by_query == {"hot": 10, "warm": 5, "cold": 1}

    def test_to_mix_is_deterministic_per_seed(self):
        workload = Workload.from_records(self.RECORDS)
        assert workload.to_mix(seed=3) == workload.to_mix(seed=3)
        assert len(workload.to_mix()) == workload.total_arrivals

    def test_as_dict_orders_hot_queries_first(self):
        document = Workload.from_records(self.RECORDS).as_dict()
        assert document["unique_queries"] == 3
        assert document["entries"][0]["arrival_count"] == 2


class TestCaptureInvariant:
    def test_logged_equals_received_with_coalescing(
        self, tiny_dblp_system, tmp_path
    ):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(
            port=0, workers=2,
            capture_path=str(tmp_path / "cap.jsonl"),
        )
        errors = []
        with InProcessServer(tiny_dblp_system, params) as server:
            query = _pick_queries(tiny_dblp_system, 1)[0]

            def fire():
                try:
                    with ServingClient(server.host, server.port) as c:
                        c.search(query, k=3)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServingClient(server.host, server.port) as c:
                with pytest.raises(ServingRequestFailed):
                    c._request("POST", "/search", {"query": ""})
                stats = c.stats()
        assert not errors
        assert stats["received"] == 8
        assert stats["logged"] == stats["received"]
        assert stats["rejected"] == 1  # rejects never reach the log
        assert stats["capture"]["records_written"] == 8
        records = read_query_log(str(tmp_path / "cap.jsonl"))
        assert len(records) == 8
        origins = {r["origin"] for r in records}
        assert origins <= {"search", "coalesced", "cache"}
        if stats["coalesced"]:
            assert "coalesced" in origins

    def test_capture_off_keeps_logged_at_zero(self, tiny_dblp_system):
        tiny_dblp_system.answer_cache.clear()
        params = ServingParams(port=0, workers=2)
        with InProcessServer(tiny_dblp_system, params) as server:
            query = _pick_queries(tiny_dblp_system, 1)[0]
            with ServingClient(server.host, server.port) as c:
                c.search(query, k=3)
                stats = c.stats()
        assert stats["received"] == 1 and stats["logged"] == 0
        assert "capture" not in stats


class TestCaptureReplayParity:
    def test_replay_matches_direct_search_tie_classes(
        self, tiny_dblp_system, tmp_path
    ):
        tiny_dblp_system.answer_cache.clear()
        capture = str(tmp_path / "cap.jsonl")
        params = ServingParams(
            port=0, workers=2, capture_path=capture
        )
        with InProcessServer(tiny_dblp_system, params) as server:
            queries = _pick_queries(tiny_dblp_system, 3)
            with ServingClient(server.host, server.port) as c:
                for query in queries + queries[:1]:  # one repeat
                    c.search(query, k=3)
            records = read_query_log(capture)
            assert len(records) == 4
            report = replay(
                server.host,
                server.port,
                records,
                rate=100.0,
                concurrency=4,
                honor_deadlines=False,
            )
        assert report.errors == 0
        assert report.total_requests == 4
        checked = verify_parity(tiny_dblp_system, report)
        assert checked == 4, "every proven replayed answer is compared"

    def test_capture_naming_an_engine_still_replays(
        self, tiny_dblp_system, tmp_path
    ):
        """Logs written while requests could pick an engine carry an
        ``engine`` key and an ``e=`` fingerprint part; they load,
        aggregate and replay without sending the key."""
        tiny_dblp_system.answer_cache.clear()
        legacy = tmp_path / "legacy.jsonl"
        queries = _pick_queries(tiny_dblp_system, 2)
        with legacy.open("w") as handle:
            for i, query in enumerate(queries + queries[:1]):
                handle.write(json.dumps({
                    "ts": 100.0 + i, "query": query, "k": 3,
                    "diameter": None, "deadline_ms": 0.0,
                    "engine": "object",
                    "fingerprint": "k=3,d=,dl=0,e=object",
                    "origin": "search",
                }) + "\n")
        records = read_query_log(str(legacy))
        workload = Workload.from_records(records)
        assert workload.total_arrivals == 3 and len(workload.entries) == 2
        assert all("engine" not in e.request() for e in workload.entries)
        params = ServingParams(port=0)
        with InProcessServer(tiny_dblp_system, params) as server:
            report = replay(
                server.host, server.port, records, rate=100.0,
                concurrency=2, honor_deadlines=False,
            )
        assert report.errors == 0
        assert verify_parity(tiny_dblp_system, report) == 3

    def test_replay_gates_flag_violations(
        self, tiny_dblp_system, tmp_path
    ):
        tiny_dblp_system.answer_cache.clear()
        capture = str(tmp_path / "cap.jsonl")
        params = ServingParams(
            port=0, workers=2, capture_path=capture
        )
        with InProcessServer(tiny_dblp_system, params) as server:
            query = _pick_queries(tiny_dblp_system, 1)[0]
            with ServingClient(server.host, server.port) as c:
                c.search(query, k=3)
            records = read_query_log(capture)
            report = replay(
                server.host,
                server.port,
                records,
                rate=10.0,
                concurrency=2,
                gates={"p99_ms": 1e-9, "error_rate": 0.5},
            )
        assert report.gate_violations
        assert any("p99_ms" in v for v in report.gate_violations)

    def test_replay_rejects_an_empty_capture(self):
        with pytest.raises(ValueError):
            replay("127.0.0.1", 1, [])
