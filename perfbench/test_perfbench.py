"""Tests of the benchmark's own code (not part of the repo's test suite).

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import repro  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------- tail percentile


@pytest.mark.parametrize("requests, expected", [
    (20, 50.0),
    (99, 75.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (9999, 99.5),
    (10000, 99.9),
    (14000, 99.9),
    (20000, 99.95),
])
def test_tail_percentile_leaves_ten_samples_beyond(requests, expected):
    assert workloads.tail_percentile(requests) == expected
    assert workloads.samples_beyond(requests, expected) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        workloads.tail_percentile(19)


def test_each_workload_tail_has_ten_samples_beyond():
    for workload in workloads.WORKLOADS.values():
        assert workloads.samples_beyond(
            workload.nominal_requests, workload.tail) >= 10


# ------------------------------------------------------------- self time


def _span(span, parent, start, end, name="x", request=1):
    return (span, parent, request, name, start, end)


def test_self_time_nested_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 6.0),
        _span(3, 2, 2.0, 4.0),
    ]
    own = spans.self_times(tree)
    assert own == {1: pytest.approx(5.0), 2: pytest.approx(3.0),
                   3: pytest.approx(2.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_count_once():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0),
        _span(3, 1, 3.0, 7.0),
        _span(4, 1, 4.0, 4.5),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(4.0)


def test_self_time_back_to_back_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 4.0),
        _span(3, 1, 4.0, 6.0),
        _span(4, 1, 6.0, 9.0),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    tree = [_span(1, None, 2.0, 6.0), _span(2, 1, 0.0, 3.0),
            _span(3, 1, 5.0, 9.0)]
    assert spans.self_times(tree)[1] == pytest.approx(2.0)


def test_layer_budget_sums_self_time_of_the_chosen_requests():
    tree = [
        _span(1, None, 0.0, 4.0, "root", 1),
        _span(2, 1, 1.0, 3.0, "leaf", 1),
        _span(3, None, 5.0, 6.0, "root", 2),
    ]
    assert spans.layer_budget(tree, [1]) == {
        "root": pytest.approx(2.0), "leaf": pytest.approx(2.0),
    }


# -------------------------------------------------------------- recorder


def test_recorder_carries_the_request_across_a_thread_hop():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap_sync("inner", lambda: None)

    def hop_through_thread(work):
        out = []
        thread = threading.Thread(target=lambda: out.append(work()))
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        return out[0]

    async def submit(batcher, work):
        return hop_through_thread(work)

    async def handle():
        return await recorder.wrap_submit("submit", submit)(None, inner)

    import asyncio
    asyncio.run(recorder.wrap_async("root", handle, root=True)())
    by_name = {s[3]: s for s in recorder.spans}
    root, hop, leaf = by_name["root"], by_name["submit"], by_name["inner"]
    assert root[1] is None and root[2] == 1
    assert hop[1] == root[0] and hop[2] == 1
    assert leaf[1] == hop[0] and leaf[2] == 1


def test_recorder_books_generator_resumes_only():
    recorder = spans.SpanRecorder()

    def numbers():
        yield 1
        yield 2

    wrapped = recorder.wrap_generator("gen", numbers)
    assert list(wrapped()) == [1, 2]
    assert [s[3] for s in recorder.spans] == ["gen"] * 3


def test_recorder_reports_a_missing_layer_as_absent():
    recorder = spans.SpanRecorder()
    recorder.install([
        ("gone", "repro.system", "CIRankSystem.no_such_method", "call"),
        ("gone", "repro.no_such_module", "f", "call"),
    ])
    assert recorder.absent == [
        "repro.system:CIRankSystem.no_such_method",
        "repro.no_such_module:f",
    ]


# ---------------------------------------------------------- answer check


@pytest.fixture(scope="module")
def deployment():
    db = repro.generate_imdb(repro.ImdbConfig(
        movies=60, actors=70, actresses=40, directors=20, producers=10,
        companies=10, seed=7,
    ))
    system = repro.CIRankSystem.from_database(
        db, merge_tables=workloads.IMDB_MERGE
    )
    checker = check.AnswerChecker(system, workloads.K, workloads.DIAMETER)
    for query in repro.generate_workload(
        system.graph, system.index, repro.WorkloadConfig.aol_like(queries=20)
    ):
        answers = system.search(query.text, k=workloads.K,
                                diameter=workloads.DIAMETER)
        scores = [a.score for a in answers]
        if len(answers) >= 3 and scores[0] > scores[1]:
            return system, checker, query.text, answers
    raise AssertionError("no query with three ranked answers")


def _wire(answers, proven=True, deadline_hit=False):
    """A response document in the daemon's wire format."""
    return {
        "answers": [
            {
                "score": a.score,
                "nodes": sorted(a.tree.nodes),
                "edges": sorted(tuple(e) for e in a.tree.edges),
            }
            for a in answers
        ],
        "proven": proven,
        "gap": 0.0 if proven else 0.5,
        "deadline_hit": deadline_hit,
    }


def test_check_accepts_the_direct_answers(deployment):
    _, checker, text, answers = deployment
    assert checker.full(text, _wire(answers), reference=True) is None


def test_check_rejects_a_score_off_by_one_in_a_million(deployment):
    _, checker, text, answers = deployment
    doc = _wire(answers)
    doc["answers"][1]["score"] *= 1 + 1e-6
    assert "oracle" in checker.full(text, doc, reference=False)


def test_check_rejects_a_keyword_free_leaf(deployment):
    system, checker, text, answers = deployment
    doc = _wire(answers)
    match = system.matcher.match(text)
    wire = doc["answers"][0]
    extra = next(
        (node, leaf)
        for node in wire["nodes"]
        for leaf in sorted(system.graph.neighbors(node))
        if leaf not in wire["nodes"] and match.is_free(leaf)
    )
    wire["nodes"] = sorted(wire["nodes"] + [extra[1]])
    wire["edges"] = sorted(wire["edges"] + [tuple(sorted(extra))])
    assert "free leaf" in checker.full(text, doc, reference=False)


def test_check_rejects_swapped_order(deployment):
    _, checker, text, answers = deployment
    doc = _wire(answers)
    doc["answers"][0], doc["answers"][1] = (
        doc["answers"][1], doc["answers"][0]
    )
    assert "sorted" in checker.full(text, doc, reference=False)


def test_check_rejects_an_unproven_answer_labelled_proven(deployment):
    _, checker, text, answers = deployment
    partial = _wire(answers[1:])
    assert checker.full(text, partial, reference=False) is None
    assert "direct search" in checker.full(text, partial, reference=True)
    cut = _wire(answers, proven=True, deadline_hit=True)
    assert "labelled proven" in checker.full(text, cut, reference=False)


def test_check_gap_labels():
    labels = check.AnswerChecker.labels
    assert labels({"answers": [], "proven": False, "gap": None}) is None
    assert labels({"answers": [{}], "proven": False, "gap": -0.1})
    assert labels({"answers": [], "proven": False, "gap": 0.2})
    assert labels({"answers": [{}], "proven": True, "gap": 0.3})


def test_repeated_response_must_match_the_first():
    first = {"answers": [{"score": 1.0}], "proven": True, "gap": 0.0}
    repeated = check.AnswerChecker.repeated
    assert repeated(first, dict(first, trace_id="x")) is None
    assert repeated(first, dict(first, answers=[])) is not None


# ----------------------------------------------------------- query order


def test_distinct_sequence_reorders_only_the_core_by_seed():
    cold = workloads.WORKLOADS["cold-imdb"]
    indices = list(range(500))
    one = workloads.request_sequence(cold, indices, 1, 0)
    assert one == workloads.request_sequence(cold, indices, 1, 0)
    assert sorted(one) == indices
    core = cold.nominal_requests * 2 // 3
    two = workloads.request_sequence(cold, indices, 2, 0)
    assert one[:core] != two[:core]
    assert sorted(one[:core]) == sorted(two[:core]) == indices[:core]
    assert one[core:] == two[core:] == indices[core:]


def test_repeated_sequence_draws_from_the_pool():
    hot = workloads.WORKLOADS["hot-imdb"]
    draws = workloads.request_sequence(hot, list(range(16)), 3, 1000)
    assert len(draws) == 1000 and set(draws) == set(range(16))


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_runner():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        run.PER_LAYER)
    for workload in doc["workloads"]:
        assert workload["name"] in workloads.WORKLOADS
        assert len(workload["why"]) <= 200
    assert doc["run_seconds"] == workloads.NOMINAL_SECONDS
