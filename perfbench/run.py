"""End-to-end benchmark of the CI-Rank serving daemon.

    python3 perfbench/run.py --workload cold-imdb --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; ``--workload all`` (the default)
runs every workload in turn.  For a workload, the run
builds the deployment from the seed, spawns the daemon
(``perfbench/launcher.py``) in its own process and drives it over HTTP
from this process with a closed loop for ``--seconds``.  Every response
is checked (``perfbench/check.py``).  The last line of stdout is one
JSON object (with ``all``, the metric names are prefixed by the
workload)::

    {"correct": true, "attempted": 117, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 251.3, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper in the daemon.  ``setup_s`` is the median over ``SETUP_STARTS``
fresh daemon starts; the last start serves the timed window.  With
``--trace 1`` the run drives one untraced daemon and then one whose
launcher wraps the layers in ``perfbench/spans.py``, and the metrics are
the per-layer budget of the traced window.  Before the last line, each
workload prints its run record (host, versions, commit, seed, request
counts, host steal time and the workload's property shares) and one
``<workload> <metric> <value> <unit>`` line per metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import threading
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import drive  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fresh daemon starts per untraced run; setup_s is their median.
SETUP_STARTS = 3

#: Pool queries sent before timing on distinct-query workloads; they are
#: never timed.  A fresh daemon searched ~12% faster until it had served
#: a few dozen varied queries, so after only 4 warm-up queries the seed's
#: send order decided whether a deadline-dblp window ran fast (seed 1's
#: did, seed 2's did not); after 30, both ran at the settled speed.
WARMUP_DISTINCT = 30

#: Reference-checked proven responses: (sample size, drawn from the
#: first N queries sent).  hot-imdb checks every distinct query.
REFERENCE_SAMPLE = {"cold-imdb": (8, 60), "deadline-dblp": (40, 160)}

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("proven_fraction", "fraction"),
    ("server_peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: Span name -> per-layer metric of its mean self time per request.
SPAN_METRICS = (
    ("serving.daemon", "serving.daemon.self_ms"),
    ("serving.dedup", "serving.dedup.self_ms"),
    ("system.answer_key", "system.answer_key_ms"),
    ("model.describe", "model.describe_ms"),
    ("serving.batching", "serving.batching.wait_ms"),
    ("serving.deadline", "serving.deadline.self_ms"),
    ("system", "system.self_ms"),
    ("text.match", "text.match_ms"),
    ("storage.answer_cache.lookup", "storage.answer_cache.lookup_ms"),
    ("storage.answer_cache.store", "storage.answer_cache.store_ms"),
    ("rwmp.scorer_setup", "rwmp.scorer_setup_ms"),
    ("search", "search.busy_ms"),
)

#: Set-up span name -> per-layer metric of its seconds in one start.
SETUP_METRICS = (
    ("datasets.generate", "datasets.generate_s"),
    ("graph.build", "graph.build_s"),
    ("text.index_build", "text.index_build_s"),
    ("importance.pagerank", "importance.pagerank_s"),
    ("indexing.star_build", "indexing.star_build_s"),
    ("serving.server.start", "serving.server.start_s"),
)

PER_LAYER = (
    ("serving.server.self_ms", "ms"),
    *((metric, "ms") for _, metric in SPAN_METRICS),
    ("serving.dedup.coalesced_fraction", "fraction"),
    ("serving.batching.batch_size_mean", "count"),
    ("serving.deadline.overshoot_ms", "ms"),
    ("serving.deadline.hit_fraction", "fraction"),
    ("storage.answer_cache.hit_fraction", "fraction"),
    ("storage.answer_cache.evictions", "count"),
    ("search.expanded", "count"),
    ("search.generated", "count"),
    ("search.bound_evals", "count"),
    ("search.pruned_distance", "count"),
    ("search.expanded_per_generated", "fraction"),
    ("search.arena_peak_mb_median", "MiB"),
    ("search.arena_peak_mb_max", "MiB"),
    ("process.daemon_cpu_ms", "ms"),
    ("process.loadgen_cpu_ms", "ms"),
    ("setup.import_s", "s"),
    *((metric, "s") for _, metric in SETUP_METRICS),
    ("trace.round_trip_ms", "ms"),
    ("trace.overhead_fraction", "fraction"),
    ("trace.absent_layers", "count"),
)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Leg:
    """One daemon driven through warm-up and one timed window."""

    def __init__(self, warmup, loop, before, after, daemon_cpu_s,
                 loadgen_cpu_s, steal_s, peak_rss_mib) -> None:
        self.warmup = warmup
        self.loop = loop
        self.daemon_cpu_s = daemon_cpu_s
        self.loadgen_cpu_s = loadgen_cpu_s
        self.steal_s = steal_s
        self.peak_rss_mib = peak_rss_mib
        self.stats = {
            key: after[key] - before[key]
            for key in ("received", "executed", "coalesced",
                        "deadline_expired", "batches", "batched_queries")
        }
        self.cache = {
            key: after["answer_cache"][key] - before["answer_cache"][key]
            for key in ("hits", "misses", "invalidations", "evictions")
        }
        self.cache_capacity = after["answer_cache"]["maxsize"]
        self.invariant = (
            after["received"] == after["executed"] + after["coalesced"]
        )
        self.docs: Dict[int, dict] = {}
        self.ok: List = []

    @property
    def window_s(self) -> float:
        return self.loop.end - self.loop.start

    def latencies_ms(self) -> List[float]:
        return [(s.received - s.sent) * 1000.0 for s in self.ok]


def run_leg(daemon, workload, bodies, order, warm, seconds,
            prepare) -> Leg:
    """Warm the daemon, time one closed-loop window, then stop it.

    ``prepare`` runs here while the daemon serves the warm-up requests:
    the two processes then use the host's two cores at once.
    """
    port = daemon.port
    try:
        warmup: List = []
        sender = threading.Thread(
            target=lambda: warmup.extend(drive.send_each(port, bodies, warm))
        )
        sender.start()
        prepare()
        sender.join()
        before = drive.get_json(port, "/stats")
        drive.reset_peak_rss(daemon.pid_file("clear_refs"))
        cpu0 = drive.process_cpu_s(daemon.pid_file("stat"))
        self0, steal0 = drive.self_cpu_s(), drive.steal_s()
        loop = drive.closed_loop(port, bodies, order, workload.connections,
                                 seconds)
        cpu1 = drive.process_cpu_s(daemon.pid_file("stat"))
        self1, steal1 = drive.self_cpu_s(), drive.steal_s()
        rss = drive.peak_rss_mib(daemon.pid_file("status"))
        after = drive.get_json(port, "/stats")
    finally:
        daemon.stop()
    return Leg(warmup, loop, before, after, cpu1 - cpu0, self1 - self0,
               steal1 - steal0, rss)


def check_leg(leg: Leg, checker, workload, texts, reference,
              failures: List[str]) -> int:
    """Check every response of a leg; return how many failed."""
    failed = 0
    first: Dict[int, dict] = {}
    timed = [(s, True) for s in leg.loop.samples]
    for sample, in_window in [(s, False) for s in leg.warmup] + timed:
        text = texts[sample.index]
        reason = None
        doc = None
        if sample.status != 200:
            reason = sample.error or f"HTTP {sample.status}"
        else:
            try:
                doc = json.loads(sample.body)
            except ValueError as exc:
                reason = f"response is not JSON: {exc}"
        if reason is None and not workload.distinct and sample.index in first:
            reason = checker.repeated(first[sample.index], doc)
        elif reason is None:
            reason = checker.full(
                text, doc,
                reference=not workload.distinct or sample.index in reference,
            )
            if not workload.distinct and reason is None:
                first[sample.index] = doc
        if reason is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{text!r}: {reason}")
        elif in_window:
            leg.ok.append(sample)
            leg.docs[id(sample)] = doc
    return failed


def block_medians(leg: Leg, workload, seconds: float):
    """Median over the window's blocks of throughput and tail latency.

    A request belongs to the block it was sent in; it counts towards
    throughput in the block it completed in, if that is in the window.
    """
    width = seconds / workload.blocks
    done = [0] * workload.blocks
    sent: List[List[float]] = [[] for _ in range(workload.blocks)]
    for sample in leg.ok:
        sent[min(int((sample.sent - leg.loop.start) / width),
                 workload.blocks - 1)].append(
            (sample.received - sample.sent) * 1000.0)
        block = int((sample.received - leg.loop.start) / width)
        if block < workload.blocks:
            done[block] += 1
    return (
        statistics.median(n / width for n in done),
        statistics.median(percentile(lat, workload.tail) for lat in sent),
    )


def end_to_end(leg: Leg, workload, seconds: float,
               setup_times: List[float]) -> dict:
    throughput, tail = block_medians(leg, workload, seconds)
    proven = sum(1 for s in leg.ok if leg.docs[id(s)]["proven"])
    return {
        "throughput_rps": throughput,
        "latency_p50_ms": percentile(leg.latencies_ms(), 50.0),
        "latency_tail_ms": tail,
        "proven_fraction": ratio(proven, len(leg.ok)),
        "server_peak_rss_mb": leg.peak_rss_mib,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(plain: Leg, traced: Leg, dump: dict, workload,
              seconds: float) -> dict:
    """The traced window's budget per layer (means per request)."""
    recorded = [tuple(s) for s in dump["spans"]]
    roots = {
        s[2]: s for s in recorded
        if s[3] == "serving.daemon" and s[1] is None
        and s[4] >= traced.loop.start
    }
    n = len(roots)
    budget = spans.layer_budget(recorded, roots)
    per_request = {name: ratio(seconds, n) * 1000.0
                   for name, seconds in budget.items()}
    rt = statistics.fmean(traced.latencies_ms()) if traced.ok else 0.0
    handle = ratio(sum(s[5] - s[4] for s in roots.values()), n) * 1000.0
    metrics = {"serving.server.self_ms": rt - handle if n else 0.0}
    for span, metric in SPAN_METRICS:
        metrics[metric] = per_request.get(span, 0.0)

    stats, cache = traced.stats, traced.cache
    overshoot = [
        traced.docs[id(s)]["elapsed_ms"] - workload.deadline_ms
        for s in traced.ok if traced.docs[id(s)]["deadline_hit"]
    ]
    execs = [e for e in dump["executions"] if e[0] in roots]
    columns = (list(zip(*(e[3:] for e in execs)))
               or [()] * len(spans.EXECUTION_FIELDS))
    expanded, generated, bound_evals, pruned_distance, arena = columns
    arena_mb = [b / (1 << 20) for b in arena]
    lookups = cache["hits"] + cache["misses"] + cache["invalidations"]
    metrics.update({
        "serving.dedup.coalesced_fraction":
            ratio(stats["coalesced"], stats["received"]),
        "serving.batching.batch_size_mean":
            ratio(stats["batched_queries"], stats["batches"]),
        "serving.deadline.overshoot_ms":
            statistics.median(overshoot) if overshoot else 0.0,
        "serving.deadline.hit_fraction":
            ratio(stats["deadline_expired"], stats["executed"]),
        "storage.answer_cache.hit_fraction": ratio(cache["hits"], lookups),
        "storage.answer_cache.evictions": cache["evictions"],
        "search.expanded": ratio(sum(expanded), len(execs)),
        "search.generated": ratio(sum(generated), len(execs)),
        "search.bound_evals": ratio(sum(bound_evals), len(execs)),
        "search.pruned_distance": ratio(sum(pruned_distance), len(execs)),
        "search.expanded_per_generated":
            ratio(sum(expanded), sum(generated)),
        "search.arena_peak_mb_median":
            statistics.median(arena_mb) if arena_mb else 0.0,
        "search.arena_peak_mb_max": max(arena_mb, default=0.0),
        "process.daemon_cpu_ms":
            ratio(plain.daemon_cpu_s, len(plain.loop.samples)) * 1000.0,
        "process.loadgen_cpu_ms":
            ratio(plain.loadgen_cpu_s, len(plain.loop.samples)) * 1000.0,
        "setup.import_s": dump["import_s"],
    })
    setup = {}
    for s in recorded:
        if s[2] is None:
            setup[s[3]] = setup.get(s[3], 0.0) + (s[5] - s[4])
    for span, metric in SETUP_METRICS:
        metrics[metric] = setup.get(span, 0.0)
    plain_rps = block_medians(plain, workload, seconds)[0]
    traced_rps = block_medians(traced, workload, seconds)[0]
    metrics["trace.round_trip_ms"] = rt
    metrics["trace.overhead_fraction"] = (
        1.0 - traced_rps / plain_rps if plain_rps else 0.0
    )
    metrics["trace.absent_layers"] = len(dump["absent"])
    return metrics


def git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, read from
    ``.git`` so that nothing outside the checkout is touched."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.split()[-1:] == [ref]:
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's Python sources, paths included."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """One run of one workload; returns (run record, result document)."""
    import numpy
    import repro

    import check

    local = workloads.build_system(repro, workload)
    pool = workloads.draw_queries(repro, workload, local)
    texts = [q.text for q in pool]
    bodies = [json.dumps(workloads.payload(workload, t)).encode()
              for t in texts]
    if workload.distinct:
        timed = len(pool) - WARMUP_DISTINCT
        order = workloads.request_sequence(
            workload, list(range(timed)), seed, timed)
        warm = list(range(timed, len(pool)))
        size, span = REFERENCE_SAMPLE[workload.name]
        reference = set(random.Random(seed + 1).sample(order[:span], size))
    else:
        order = workloads.request_sequence(
            workload, list(range(len(pool))), seed,
            int(2000 * seconds) + 1000,
        )
        warm = list(range(len(pool)))
        reference = set()
    checker = check.AnswerChecker(local, workloads.K, workloads.DIAMETER)
    # Without a deadline every response is proven, so the direct-search
    # references are known to be needed and are computed during warm-up.
    needed = [] if workload.deadline_ms else [
        texts[i] for i in (reference if workload.distinct else warm)
    ]

    def prepare() -> None:
        for text in needed:
            checker.expected(text)

    os.makedirs(os.path.join(HERE, ".runs"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".runs"))
    launcher = os.path.join(HERE, "launcher.py")
    started: List[drive.Daemon] = []

    def start(spans_path: str = "") -> drive.Daemon:
        daemon = drive.Daemon(
            launcher, workload.name,
            os.path.join(workdir, f"daemon-{len(started)}.log"), spans_path,
        )
        started.append(daemon)
        daemon.wait_ready()
        return daemon

    def leg(daemon: drive.Daemon) -> Leg:
        return run_leg(daemon, workload, bodies, order, warm, seconds,
                       prepare)

    setup_times: List[float] = []
    try:
        if trace:
            legs = [leg(start())]
            spans_path = os.path.join(workdir, "spans.json")
            legs.append(leg(start(spans_path)))
            with open(spans_path, encoding="utf-8") as handle:
                dump = json.load(handle)
        else:
            for _ in range(SETUP_STARTS - 1):
                daemon = start()
                setup_times.append(daemon.ready_s)
                daemon.stop()
            daemon = start()
            setup_times.append(daemon.ready_s)
            legs = [leg(daemon)]
    except Exception:
        for daemon in started:
            with open(daemon.log_path, encoding="utf-8",
                      errors="replace") as handle:
                sys.stderr.write(handle.read()[-4000:])
        raise
    finally:
        for daemon in started:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failures: List[str] = []
    failed = attempted = 0
    for one in legs:
        failed += check_leg(one, checker, workload, texts, reference,
                            failures)
        attempted += len(one.warmup) + len(one.loop.samples)
    invariant = all(one.invariant for one in legs)
    if trace:
        values = per_layer(legs[0], legs[1], dump, workload, seconds)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(legs[0], workload, seconds, setup_times)
        units = dict(END_TO_END)

    sent = [texts[s.index] for s in legs[-1].loop.samples]
    free = {q.text: q.requires_free_nodes for q in pool}
    keywords = [len(checker.match(t).keywords) for t in sent]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "connections": workload.connections,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stats_invariant": invariant,
        "setup_starts_s": setup_times,
        "legs": [
            {
                "requests": len(one.loop.samples),
                "window_s": one.window_s,
                "steal_s": one.steal_s,
                "tail_percentile": workload.tail,
                "blocks": workload.blocks,
                "beyond_tail_per_block": workloads.samples_beyond(
                    len(one.ok) // workload.blocks, workload.tail),
            }
            for one in legs
        ],
        "properties": {
            "distinct_queries": len(set(sent)),
            "answer_cache_capacity": legs[-1].cache_capacity,
            "free_connector_share": ratio(
                sum(free[t] for t in sent), len(sent)),
            "keywords_per_query": ratio(sum(keywords), len(keywords)),
            "graph_nodes": local.graph.node_count,
            "graph_edges": local.graph.edge_count,
            "index": type(local.graph_index).__name__
            if local.graph_index is not None else None,
            "deadline_ms": workload.deadline_ms,
        },
    }
    if trace:
        record["absent_layers"] = dump["absent"]
    result = {
        "correct": failed == 0 and invariant,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    return record, result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the CI-Rank serving daemon."
    )
    parser.add_argument(
        "--workload", default="all",
        choices=sorted(workloads.WORKLOADS) + ["all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=workloads.NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        record, result = run_workload(
            workloads.WORKLOADS[name], args.seed, args.seconds,
            bool(args.trace),
        )
        results[name] = result
        print(json.dumps({"record": record}))
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} {value['value']:.6g} {value['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
