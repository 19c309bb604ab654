"""Capture → replay smoke over the real network path.

The full observability loop in one run: serve a small mix with the
rotating capture log enabled, check the ``logged == received`` audit
invariant, replay the capture at 2x the recorded rate against a fresh
server with latency gates, and verify tie-class parity of every proven
replayed answer against direct :meth:`CIRankSystem.search`.

Artifacts — the captured ``workload.jsonl``, a ``metrics.prom``
exposition snapshot, and the ``replay_report.json`` — land in
``$CIRANK_ARTIFACTS`` (a temp directory by default) so the CI job can
upload them for offline triage.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from common import SCALE

from repro.config import ServingParams
from repro.obs import Workload, read_query_log, replay, verify_parity
from repro.serving import InProcessServer, ServingClient, build_mix, run_load

from test_serving import _bench_queries, _fresh_system

#: Replay gates — generous ceilings; the leg exists to catch a broken
#: replay loop (hangs, systematic errors), not to re-gate latency.
REPLAY_GATES = {"p99_ms": 30_000.0, "error_rate": 0.0}
REPLAY_RATE = 2.0
TOTAL_REQUESTS = 16


def _artifacts_dir() -> Path:
    root = os.environ.get("CIRANK_ARTIFACTS")
    if root:
        path = Path(root)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return Path(tempfile.mkdtemp(prefix="cirank-artifacts-"))


def test_capture_replay_smoke():
    artifacts = _artifacts_dir()
    capture = str(artifacts / "workload.jsonl")
    system = _fresh_system(answer_cache_size=64)
    queries = _bench_queries(system, count=4)
    mix = build_mix(queries, TOTAL_REQUESTS, 0.5, seed=17)

    params = ServingParams(
        port=0, workers=4, capture_path=capture
    )
    with InProcessServer(system, params) as server:
        report = run_load(
            server.host, server.port, mix, concurrency=8, k=5
        )
        assert report.errors == 0, "capture run must complete cleanly"
        stats = report.server_stats
        with ServingClient(server.host, server.port) as client:
            metrics_text = client.metrics()

    # ---- audit invariants: every accepted request reached the log
    assert stats["received"] == TOTAL_REQUESTS
    assert stats["logged"] == stats["received"]
    assert stats["capture"]["records_written"] == stats["logged"]

    records = read_query_log(capture)
    assert len(records) == TOTAL_REQUESTS
    workload = Workload.from_records(records)
    assert workload.total_arrivals == TOTAL_REQUESTS
    assert 0.0 < workload.duplicate_fraction() < 1.0

    # ---- replay at 2x against a fresh server (no capture this time)
    replay_system = _fresh_system(answer_cache_size=64)
    with InProcessServer(
        replay_system, ServingParams(port=0, workers=4)
    ) as server:
        replay_report = replay(
            server.host,
            server.port,
            records,
            rate=REPLAY_RATE,
            concurrency=8,
            honor_deadlines=False,
            gates=REPLAY_GATES,
        )
    assert replay_report.errors == 0
    assert not replay_report.gate_violations, replay_report.gate_violations
    checked = verify_parity(replay_system, replay_report)
    assert checked == TOTAL_REQUESTS, (
        f"parity checked only {checked}/{TOTAL_REQUESTS} replayed answers"
    )

    (artifacts / "metrics.prom").write_text(metrics_text)
    (artifacts / "replay_report.json").write_text(
        json.dumps(
            {
                "scale": SCALE,
                "workload": workload.as_dict(),
                "replay": replay_report.as_dict(),
                "parity_checked": checked,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\ncaptured {len(records)} requests "
        f"({workload.duplicate_fraction():.0%} duplicates), replayed at "
        f"{REPLAY_RATE:g}x: {replay_report.throughput_qps:.1f} qps, "
        f"{checked} parity-checked; artifacts in {artifacts}"
    )
