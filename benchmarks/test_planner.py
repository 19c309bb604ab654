"""Benchmarks of the workload-driven planner, recorded to
``BENCH_planner.json`` at the repository root.

One workload mix demonstrates the knob family the planner must
discover and *prove* by replaying the capture (tie-class parity gated,
successive halving over capture prefixes):

* **hot-key-heavy** — more unique query classes than the default
  256-entry answer cache, re-arriving cyclically.  An LRU under cyclic
  access over a working set larger than capacity is a deterministic 0%
  hit rate, so the default configuration re-searches every arrival;
  the planner's ``cache-N`` candidate sizes the cache past the working
  set and converts the duplicate fraction into ~free hits.

Floor asserted here: the planned configuration beats the default by
≥ :data:`MIN_PLANNED_SPEEDUP`, replay-validated with tie-class parity.
A CLI smoke (`cirank plan --log ... --apply`) also runs the capture →
plan → adoptable-config loop end to end at a small budget and drops
the PlanReport in ``$CIRANK_ARTIFACTS``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.datasets import DblpConfig, generate_dblp
from repro.planner import plan_capture
from repro.system import CIRankSystem

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: CI floor: the replay-validated plan must beat the running default by
#: this factor on the hot-key mix.
MIN_PLANNED_SPEEDUP = 1.5


def _artifacts_dir() -> Path:
    root = os.environ.get("CIRANK_ARTIFACTS")
    if root:
        path = Path(root)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return Path(tempfile.mkdtemp(prefix="cirank-artifacts-"))


def _record(payload: Dict[str, object], path: Path = RESULTS_PATH) -> None:
    history: List[Dict[str, object]] = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(payload)
    path.write_text(json.dumps(history, indent=2) + "\n")


# ------------------------------------------------------- hot-key-heavy


def _hot_key_records(system: CIRankSystem, classes: int, passes: int):
    """``classes`` distinct (query, k) classes with tiny match sets,
    re-arriving ``passes`` times in cyclic order."""
    ks = (3, 5, 7)
    tokens = [
        t for t in sorted(system.index.vocabulary())
        if 1 <= len(system.index.matching_nodes(t)) <= 2
    ]
    per_k = (classes + len(ks) - 1) // len(ks)
    assert len(tokens) >= per_k, (
        f"vocabulary too small: {len(tokens)} usable tokens < {per_k}"
    )
    pairs = [
        (tokens[i % per_k], ks[i // per_k])
        for i in range(per_k * len(ks))
    ][:classes]
    records = []
    ts = 100.0
    for _ in range(passes):
        for query, k in pairs:
            records.append({
                "ts": ts, "query": query, "k": k, "diameter": 2,
                "fingerprint": f"k{k}",
            })
            ts += 0.02
    return records


def bench_hot_key_mix() -> Dict[str, object]:
    db = generate_dblp(DblpConfig(
        conferences=8, papers=120, authors=90, seed=11,
    ))
    system = CIRankSystem.from_database(db)
    records = _hot_key_records(system, classes=276, passes=3)
    report = plan_capture(
        system, records, max_candidates=3, rounds=2, concurrency=4,
        probe=2,
    )
    return {"mix": "hot-key-heavy", "report": report}


# -------------------------------------------------------------- floors


def _summarize(result: Dict[str, object]) -> Dict[str, object]:
    report = result["report"]
    return {
        "mix": result["mix"],
        "chosen": report.chosen,
        "speedup": report.speedup,
        "validated": report.validated,
        "reference_qps": report.reference.throughput_qps,
        "chosen_qps": max(
            report.reference.throughput_qps,
            *(r.throughput_qps for r in report.candidates),
        ) if report.candidates else report.reference.throughput_qps,
        "budget": report.budget,
        "features": report.features.as_dict(),
        "candidates": [r.as_dict() for r in report.candidates],
    }


def _assert_planned_win(result: Dict[str, object], lever: str) -> None:
    report = result["report"]
    assert report.validated, f"{result['mix']}: plan is not replay-validated"
    assert report.chosen != "reference", (
        f"{result['mix']}: planner failed to find the {lever} lever\n"
        + report.render()
    )
    assert report.chosen.startswith(lever), (
        f"{result['mix']}: expected a {lever} recommendation, got "
        f"{report.chosen}\n" + report.render()
    )
    winner = next(
        r for r in report.candidates if r.candidate.name == report.chosen
    )
    assert winner.parity_ok is True, (
        f"{result['mix']}: chosen config lost tie-class parity: "
        f"{winner.parity_failures}"
    )
    assert report.speedup >= MIN_PLANNED_SPEEDUP, (
        f"{result['mix']}: planned speedup regressed: "
        f"{report.speedup:.2f}x < {MIN_PLANNED_SPEEDUP}x\n"
        + report.render()
    )


def test_planner_hot_key_speedup():
    """Planned config ≥ 1.5x the default on the hot-key mix, parity-gated."""
    artifacts = _artifacts_dir()
    hot = bench_hot_key_mix()
    print(f"\n=== {hot['mix']} ===")
    print(hot["report"].render())
    (artifacts / "plan_hot_key_heavy.json").write_text(
        hot["report"].to_json() + "\n"
    )
    _record({
        "hot_key_heavy": _summarize(hot),
        "min_planned_speedup": MIN_PLANNED_SPEEDUP,
    })
    _assert_planned_win(hot, "cache-")


def test_planner_cli_smoke(tmp_path):
    """Capture file → ``cirank plan --apply`` → adoptable config.

    The small-budget loop the CI job runs: two candidates, one round,
    the PlanReport artifact uploaded for offline triage, and the
    emitted plan accepted by :meth:`CIRankSystem.apply_plan` (what
    ``cirank serve --plan`` calls at startup).
    """
    from repro.cli import main
    from repro.storage import load_system, save_system

    artifacts = _artifacts_dir()
    db = generate_dblp(DblpConfig(
        conferences=2, papers=20, authors=15, seed=3,
    ))
    system = CIRankSystem.from_database(db)
    deployment = tmp_path / "deployment"
    save_system(system, deployment)

    records = _hot_key_records(system, classes=12, passes=2)
    log = tmp_path / "capture.jsonl"
    with open(log, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")

    apply_path = artifacts / "plan_smoke.json"
    code = main([
        "plan", "--log", str(log), "--load", str(deployment),
        "--max-candidates", "2", "--rounds", "1", "--budget", "24",
        "--concurrency", "2", "--probe", "1",
        "--apply", str(apply_path),
    ])
    assert code == 0
    doc = json.loads(apply_path.read_text())
    assert doc["validated"] is True
    assert "chosen_config" in doc
    adopted = load_system(deployment)
    adopted.apply_plan(doc)
    print(f"\nplan smoke: chose {doc['chosen']}; artifact {apply_path}")
