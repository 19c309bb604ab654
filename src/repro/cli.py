"""Command-line interface.

Subcommands::

    cirank search   --dataset imdb --query "halloran dunefort" --k 5
    cirank evaluate --dataset dblp --queries 10
    cirank inspect  --dataset imdb
    cirank save     --dataset imdb --out /tmp/deployment
    cirank search   --load /tmp/deployment --query "..."
    cirank export   --dataset dblp --out graph.graphml
    cirank index build --dataset imdb --out /tmp/star_index --workers 4
    cirank index info  --path /tmp/star_index
    cirank search   --index-path /tmp/star_index --query "..."
    cirank serve    --dataset imdb --port 8377 --deadline-ms 200
    cirank serve    --capture-path /tmp/queries.jsonl --log-level debug
    cirank client   --query "halloran dunefort" --deadline-ms 50
    cirank client   --stats
    cirank stats    --metrics
    cirank replay   --log /tmp/queries.jsonl --rate 2 --gate p99_ms=500
    cirank plan     --log /tmp/queries.jsonl --apply plan.json
    cirank serve    --plan plan.json

``search`` runs a top-k query (over a freshly generated dataset or a
saved deployment); ``evaluate`` runs the Fig. 8/9 comparison on a small
workload; ``inspect`` prints dataset/graph statistics; ``save`` builds
and persists a deployment; ``export`` writes the data graph as GraphML;
``index build`` materializes and persists a star/pairs index (optionally
across worker processes) and ``index info`` inspects one without
loading it — ``search --index-path`` then warm-starts from it.
``serve`` runs the long-lived asyncio front end (single-flight dedup,
query batching, deadline-bounded anytime answers — ``docs/SERVING.md``)
and ``client`` talks to it.  ``stats`` scrapes a running daemon's
counters, ``/metrics`` exposition, slow-query span trees, or (with
``--plan``) the planner's feature summary; ``replay`` re-fires a
captured workload log against a server at a multiple of its recorded
rate and checks latency gates — ``docs/OBSERVABILITY.md``.  ``plan``
runs the self-tuning planner over a capture (analyze → candidate
configs → replay-validated recommendation; ``docs/PLANNER.md``) and
``serve --plan`` adopts its output at startup.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .datasets.dblp import DblpConfig, generate_dblp
from .datasets.imdb import ImdbConfig, generate_imdb
from .datasets.workloads import WorkloadConfig, generate_workload
from .eval.harness import BANKS, CI_RANK, SPARK, EffectivenessHarness
from .eval.report import format_table
from .system import CIRankSystem

IMDB_MERGE_TABLES = ("actor", "actress", "director", "producer")


def _build_system(dataset: str, seed: int) -> CIRankSystem:
    if dataset == "imdb":
        db = generate_imdb(ImdbConfig(seed=seed))
        return CIRankSystem.from_database(db, merge_tables=IMDB_MERGE_TABLES)
    if dataset == "dblp":
        db = generate_dblp(DblpConfig(seed=seed))
        return CIRankSystem.from_database(db)
    raise SystemExit(f"unknown dataset {dataset!r} (use imdb or dblp)")


def _print_search_stats(system: CIRankSystem) -> None:
    """Render the last search's counters (the ``--stats`` flag)."""
    stats = system.last_search_stats
    if stats is not None:
        print("search stats:")
        if stats.served_from_cache:
            print("  served from the answer cache (no search ran)")
            print(f"  answers found:   {stats.answers_found}")
            print(f"  cache lookup:    {stats.cache_lookup_seconds:.6f}s")
        else:
            print(f"  expanded:        {stats.expanded}")
            print(f"  generated:       {stats.generated}")
            print(f"  enqueued:        {stats.enqueued}")
            print(f"  pruned (bound):  {stats.pruned_bound}")
            print(f"  pruned (diam):   {stats.pruned_diameter}")
            print(f"  pruned (dist):   {stats.pruned_distance}")
            print(f"  answers found:   {stats.answers_found}")
            print(f"  stopped early:   {stats.stopped_early}")
            print(f"  bound evals:     {stats.bound_evals}")
            print(f"  cheap admits:    {stats.cheap_admissions}")
            print(f"  admit capped:    {stats.admit_capped}")
            print(f"  tightened:       {stats.tightened}")
            print(f"  re-pushed:       {stats.repushed}")
            print("phase timers: disjoint self times")
            print(f"  admit bound:     {stats.bound_seconds:.6f}s")
            print(f"  cheap bound:     {stats.cheap_bound_seconds:.6f}s")
            print(f"  head tighten:    {stats.tighten_seconds:.6f}s")
            print(f"  expand (self):   {stats.expand_seconds:.6f}s")
            print(f"  scoring:         {stats.score_seconds:.6f}s")
            print(f"  cache lookup:    {stats.cache_lookup_seconds:.6f}s")
            print("arena:")
            print(f"  candidates:      {stats.arena_candidates}")
            print(f"  peak bytes:      {stats.arena_peak_bytes}")
            print(
                "  rolled back:     "
                f"{stats.arena_rollbacks} pruned initial rows"
            )
    caches = dict(system.last_cache_stats or {})
    answers_snap = caches.pop("answers", None)
    if answers_snap is not None:
        print("answer cache (hits/misses/invalidations/evictions):")
        print(
            f"  {answers_snap.hits}/{answers_snap.misses}"
            f"/{answers_snap.invalidations}/{answers_snap.evictions}"
            f"  {answers_snap.hit_rate:.1%} hit rate,"
            f" {answers_snap.size}/{answers_snap.maxsize} entries"
        )
    if caches:
        print("scorer caches (hits/misses/evictions, hit rate):")
        for name, snap in caches.items():
            print(
                f"  {name:12s} {snap.hits}/{snap.misses}/{snap.evictions}"
                f"  {snap.hit_rate:.1%}"
            )
    _print_index_build(system)


def _print_index_build(system: CIRankSystem) -> None:
    """Render how the attached graph index came to be (``--stats``)."""
    build = system.last_index_build
    if build is not None:
        print("index build:")
        print(f"  method:          {build.method}")
        print(f"  workers:         {build.workers}")
        print(f"  sources:         {build.sources}")
        print(f"  entries:         {build.entries}")
        print(f"  blocks:          {build.blocks}")
        print(f"  seconds:         {build.seconds:.3f}")
    elif system.index_warm_started:
        print("index build:")
        print("  warm-started from disk (no rebuild)")


def _stats_payload(system: CIRankSystem) -> Optional[dict]:
    """JSON-able stats for the single-document ``--json --stats`` mode.

    Everything — search counters (including the cheap-admit/tighten
    timer split and the arena section) and the answer/scorer cache
    hit/miss counters — rides inside the one ranking document so
    consumers never have to split concatenated JSON streams.
    """
    import dataclasses
    payload: dict = {}
    stats = system.last_search_stats
    if stats is not None:
        payload["search"] = dataclasses.asdict(stats)
    caches = system.last_cache_stats or {}
    if caches:
        payload["caches"] = {
            name: snap.as_dict() for name, snap in caches.items()
        }
    return payload or None


def _cmd_search(args: argparse.Namespace) -> int:
    if args.load:
        from .storage import load_system
        system = load_system(args.load)
    else:
        system = _build_system(args.dataset, args.seed)
    if args.index_path:
        system.attach_index(
            args.index_kind, path=args.index_path, workers=args.workers
        )
    elif args.star_index and system.graph_index is None:
        system.build_star_index(workers=args.workers)
    answers = system.search(args.query, k=args.k, diameter=args.diameter)
    if not answers:
        print("no answers")
        if args.stats:
            _print_search_stats(system)
        return 1
    for rank, answer in enumerate(answers, start=1):
        print(f"{rank:2d}. {system.describe(answer)}")
    if args.stats:
        _print_search_stats(system)
    if args.json:
        from .export import ranking_to_json
        stats = _stats_payload(system) if args.stats else None
        print(ranking_to_json(
            system.graph, answers, query=args.query, stats=stats
        ))
    return 0


def _cmd_save(args: argparse.Namespace) -> int:
    from .storage import save_system
    system = _build_system(args.dataset, args.seed)
    if args.star_index:
        system.build_star_index()
    path = save_system(system, args.out)
    print(f"saved deployment to {path}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from .storage import save_index
    system = _build_system(args.dataset, args.seed)
    kwargs = {"horizon": args.horizon, "workers": args.workers}
    if args.kind == "star":
        kwargs["max_ball"] = args.max_ball
        index = system.build_star_index(**kwargs)
    else:
        index = system.build_pairs_index(**kwargs)
    path = save_index(index, args.out)
    print(f"saved {args.kind} index to {path} "
          f"({index.entry_count} entries)")
    if args.stats:
        _print_index_build(system)
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .storage import index_is_stale, manifest_shards, read_manifest
    manifest = read_manifest(args.path)
    print(f"kind:        {manifest['kind']}")
    print(f"horizon:     {manifest['horizon']}")
    if manifest["kind"] == "star":
        print(f"star tables: {', '.join(manifest['star_relations'])}")
        print(f"max ball:    {manifest['max_ball'] or 'unlimited'}")
    print(f"node count:  {manifest['node_count']}")
    print(f"entries:     {manifest['entry_count']}")
    records = manifest_shards(manifest)
    # Legacy manifests recorded bare file names; fill sizes from disk
    # so the per-shard table stays useful either way.
    for record in records:
        if record["bytes"] is None:
            path = Path(args.path) / record["name"]
            if path.exists():
                record["bytes"] = path.stat().st_size
    known = [r["bytes"] for r in records if r["bytes"] is not None]
    total = f" ({sum(known)} bytes on disk)" if known else ""
    print(f"shards:      {len(records)}{total}")
    for record in records:
        sources = record["sources"] if record["sources"] is not None else "?"
        entries = record["entries"] if record["entries"] is not None else "?"
        size = record["bytes"] if record["bytes"] is not None else "?"
        print(
            f"  {record['name']:<18} sources={sources:<7} "
            f"entries={entries:<9} bytes={size}"
        )
    print(f"graph sha:   {manifest['graph_sha'][:16]}…")
    print(f"rates sha:   {manifest['rates_sha'][:16]}…")
    if args.check:
        system = _build_system(args.dataset, args.seed)
        reason = index_is_stale(args.path, system.graph, system.dampening)
        if reason is None:
            print(f"freshness:   OK for {args.dataset} seed {args.seed}")
        else:
            print(f"freshness:   STALE — {reason}")
            return 1
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments import ExperimentSuite, SuiteConfig
    suite = ExperimentSuite(SuiteConfig(seed=args.seed))
    ids = (
        ExperimentSuite.available()
        if args.experiment == "all"
        else [args.experiment]
    )
    for experiment in ids:
        print(suite.run(experiment).render())
        print()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .export import graph_to_graphml
    system = _build_system(args.dataset, args.seed)
    document = graph_to_graphml(system.graph)
    with open(args.out, "w") as handle:
        handle.write(document)
    print(f"wrote {args.out} ({system.graph.node_count} nodes, "
          f"{system.graph.edge_count} edges)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    system = _build_system(args.dataset, args.seed)
    if args.dataset == "imdb":
        config = WorkloadConfig.synthetic(queries=args.queries)
    else:
        config = WorkloadConfig.dblp(queries=args.queries)
    workload = generate_workload(system.graph, system.index, config)
    harness = EffectivenessHarness(
        system.graph, system.index, system.importance, workload,
        diameter=args.diameter,
    )
    results = harness.compare((SPARK, BANKS, CI_RANK))
    rows = [
        (name, result.mrr, result.precision)
        for name, result in results.items()
    ]
    print(format_table(
        ("system", "MRR", "precision"), rows,
        title=f"{args.dataset} ({len(workload)} queries)",
    ))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    system = _build_system(args.dataset, args.seed)
    graph = system.graph
    rows = [
        (relation, len(graph.nodes_of_relation(relation)))
        for relation in sorted(graph.relations())
    ]
    print(format_table(("relation", "nodes"), rows, title=args.dataset))
    print(f"total nodes:  {graph.node_count}")
    print(f"total edges:  {graph.edge_count}")
    top = system.importance.top(5)
    print("most important nodes:")
    for node in top:
        info = graph.info(node)
        print(f"  [{info.relation}] {info.text} "
              f"(p={system.importance[node]:.3g})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .config import ServingParams
    from .obs import configure_logging
    from .serving import CIRankDaemon, ServingServer

    configure_logging(args.log_level)
    if args.load:
        from .storage import load_system
        system = load_system(args.load)
    else:
        system = _build_system(args.dataset, args.seed)
    if args.index_path:
        system.attach_index(args.index_kind, path=args.index_path)
    elif args.star_index and system.graph_index is None:
        system.build_star_index()
    plan_doc = None
    if args.plan:
        import json as json_module
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan_doc = json_module.load(handle)
        system.apply_plan(plan_doc)
    params = ServingParams(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        deadline_ms=args.deadline_ms,
        heartbeat=args.heartbeat,
        dedup=not args.no_dedup,
        drain_seconds=args.drain_seconds,
        trace=not args.no_trace,
        trace_sample=args.trace_sample,
        slow_query_ms=args.slow_query_ms,
        metrics=not args.no_metrics,
        capture_path=args.capture_path,
    )
    if plan_doc is not None:
        # The plan's serving knobs (workers, batching) override the
        # flag values — the planner validated that combination.
        from .planner import PlanCandidate
        chosen = PlanCandidate.from_dict(
            plan_doc.get("chosen_config", plan_doc)
        )
        import dataclasses
        params = dataclasses.replace(
            chosen.serving_params(params), plan=args.plan,
        )

    async def run() -> None:
        server = ServingServer(CIRankDaemon(system, params))
        await server.start()
        print(
            f"serving {args.dataset if not args.load else args.load} on "
            f"http://{params.host}:{server.port} "
            f"(workers={params.workers}, dedup={params.dedup}, "
            f"default deadline={params.deadline_ms:g}ms) — "
            f"POST /shutdown to stop",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    print("drained; bye")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as json_module

    from .serving import ServingClient, ServingRequestFailed

    with ServingClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            if args.stats:
                document = client.stats()
            elif args.health:
                document = client.health()
            elif args.shutdown:
                document = client.shutdown()
            else:
                document = client.search(
                    args.query,
                    k=args.k,
                    diameter=args.diameter,
                    deadline_ms=args.deadline_ms,
                )
        except ServingRequestFailed as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            return 1
        except ConnectionError as exc:
            print(
                f"cannot reach {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
    if args.json or args.query is None:
        print(json_module.dumps(document, indent=2, sort_keys=True))
        return 0
    answers = document["answers"]
    if not answers:
        print("no answers")
    for rank, answer in enumerate(answers, start=1):
        print(f"{rank:2d}. [{answer['score']:.6g}] {answer['text']}")
    quality = "proven optimal" if document["proven"] else (
        f"anytime (gap {document['gap']:.6g})"
        if document["gap"] is not None else "anytime (no bound yet)"
    )
    origin = []
    if document["served_from_cache"]:
        origin.append("answer cache")
    if document["coalesced"]:
        origin.append("coalesced")
    if document["deadline_hit"]:
        origin.append("deadline hit")
    print(
        f"-- {quality}; {document['elapsed_ms']:.1f}ms"
        + (f" ({', '.join(origin)})" if origin else "")
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as json_module

    from .serving import ServingClient, ServingRequestFailed

    with ServingClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            if args.metrics:
                print(client.metrics(), end="")
            elif args.slow:
                document = client.slow_queries()
                print(json_module.dumps(document, indent=2, sort_keys=True))
            elif args.plan:
                from .planner import features_from_stats
                print(features_from_stats(client.stats()).render())
            else:
                document = client.stats()
                print(json_module.dumps(document, indent=2, sort_keys=True))
        except ServingRequestFailed as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            return 1
        except ConnectionError as exc:
            print(
                f"cannot reach {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
    return 0


def _parse_gates(specs: Sequence[str]) -> dict:
    """Parse ``NAME=VALUE`` gate specs (p50_ms=20, error_rate=0.01)."""
    gates = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"bad --gate {spec!r} (expected NAME=VALUE)")
        try:
            gates[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"bad --gate value in {spec!r}")
    return gates


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as json_module

    from .obs import configure_logging, read_query_log, replay

    configure_logging(args.log_level)
    records = read_query_log(args.log)
    if not records:
        print(f"no records in {args.log}", file=sys.stderr)
        return 1
    report = replay(
        args.host,
        args.port,
        records,
        rate=args.rate,
        concurrency=args.concurrency,
        honor_deadlines=not args.no_deadlines,
        gates=_parse_gates(args.gate) or None,
        timeout=args.timeout,
    )
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        latency = report.latency_ms
        print(
            f"replayed {report.total_requests} requests at "
            f"{args.rate:g}x over {report.elapsed_seconds:.2f}s "
            f"({report.throughput_qps:.1f} qps)"
        )
        if latency.get("count"):
            print(
                f"latency ms: p50={latency['p50']:.1f} "
                f"p95={latency['p95']:.1f} p99={latency['p99']:.1f} "
                f"max={latency['max']:.1f}"
            )
        lag = report.lag_ms
        if lag.get("count"):
            print(
                f"schedule lag ms: p50={lag['p50']:.1f} "
                f"p99={lag['p99']:.1f}"
            )
        print(
            f"coalesced={report.coalesced} "
            f"served_from_cache={report.served_from_cache} "
            f"deadline_hit={report.deadline_hit} errors={report.errors}"
        )
        for name, count in sorted(report.error_classes.items()):
            print(f"  error {name}: {count}")
        for violation in report.gate_violations:
            print(f"GATE VIOLATION: {violation}")
    return 1 if report.gate_violations else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .obs import configure_logging

    configure_logging(args.log_level)
    if args.from_stats:
        report = _plan_from_stats(args)
        if report is None:
            return 1
    else:
        if not args.log:
            print("plan needs --log or --from-stats", file=sys.stderr)
            return 1
        report = _plan_from_capture(args)
        if report is None:
            return 1
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    for path in (args.report, args.apply):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
    if args.report:
        print(f"\nwrote plan report to {args.report}")
    if args.apply:
        print(
            f"wrote applicable plan to {args.apply} "
            f"(adopt with: cirank serve --plan {args.apply})"
        )
    return 0


def _plan_from_capture(args: argparse.Namespace):
    """The full analyze → candidates → replay-validated loop."""
    from .obs import read_query_log
    from .planner import plan_capture

    records = read_query_log(args.log)
    if not records:
        print(f"no records in {args.log}", file=sys.stderr)
        return None
    if args.load:
        from .storage import load_system
        system = load_system(args.load)
    else:
        system = _build_system(args.dataset, args.seed)
    return plan_capture(
        system,
        records,
        max_candidates=args.max_candidates,
        rounds=args.rounds,
        budget=args.budget or None,
        transport=args.transport,
        concurrency=args.concurrency,
        probe=args.probe,
    )


def _plan_from_stats(args: argparse.Namespace):
    """Heuristic-only plan from a live daemon's ``/stats`` counters."""
    from .config import SearchParams
    from .planner import (
        PlanCandidate,
        features_from_stats,
        plan_from_features,
    )
    from .serving import ServingClient, ServingRequestFailed

    with ServingClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            document = client.stats()
        except (ServingRequestFailed, ConnectionError) as exc:
            print(
                f"cannot scrape {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return None
    features = features_from_stats(document)
    defaults = SearchParams()
    cache = document.get("answer_cache") or {}
    reference = PlanCandidate(
        name="reference",
        diameter=defaults.diameter,
        answer_cache_size=int(cache.get("maxsize", 256)),
        notes=("assumed defaults; /stats carries no search config",),
    )
    return plan_from_features(
        features, reference, max_candidates=args.max_candidates,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="cirank",
        description="CI-Rank keyword search over synthetic IMDB/DBLP data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=("imdb", "dblp"), default="imdb")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--diameter", type=int, default=4)

    p_search = sub.add_parser("search", help="run one top-k query")
    common(p_search)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--k", type=int, default=5)
    p_search.add_argument("--star-index", action="store_true")
    p_search.add_argument(
        "--index-path", default="",
        help="persisted index directory (warm-starts when fresh, "
             "rebuilds and saves back when stale or absent)",
    )
    p_search.add_argument(
        "--index-kind", choices=("star", "pairs"), default="star",
        help="index kind expected/built at --index-path",
    )
    p_search.add_argument(
        "--workers", type=int, default=1,
        help="processes for index construction",
    )
    p_search.add_argument(
        "--load", default="", help="saved deployment directory"
    )
    p_search.add_argument(
        "--json", action="store_true", help="also print the ranking as JSON"
    )
    p_search.add_argument(
        "--stats", action="store_true",
        help="print search counters and scorer cache hit rates",
    )
    p_search.set_defaults(func=_cmd_search)

    p_eval = sub.add_parser("evaluate", help="compare ranking functions")
    common(p_eval)
    p_eval.add_argument("--queries", type=int, default=10)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="print dataset statistics")
    common(p_inspect)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_save = sub.add_parser("save", help="build and persist a deployment")
    common(p_save)
    p_save.add_argument("--out", required=True)
    p_save.add_argument("--star-index", action="store_true")
    p_save.set_defaults(func=_cmd_save)

    p_export = sub.add_parser("export", help="write the graph as GraphML")
    common(p_export)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=_cmd_export)

    p_index = sub.add_parser(
        "index", help="build or inspect a persisted graph index"
    )
    index_sub = p_index.add_subparsers(dest="index_command", required=True)

    p_ibuild = index_sub.add_parser(
        "build", help="materialize a star/pairs index and persist it"
    )
    common(p_ibuild)
    p_ibuild.add_argument("--out", required=True, help="index directory")
    p_ibuild.add_argument("--kind", choices=("star", "pairs"), default="star")
    p_ibuild.add_argument(
        "--workers", type=int, default=1,
        help="processes for the kernel builder (1 = in-process)",
    )
    p_ibuild.add_argument("--horizon", type=int, default=8)
    p_ibuild.add_argument(
        "--max-ball", type=int, default=0,
        help="per-node ball size valve, star index only (0 = unlimited)",
    )
    p_ibuild.add_argument(
        "--stats", action="store_true", help="print build counters"
    )
    p_ibuild.set_defaults(func=_cmd_index_build)

    p_iinfo = index_sub.add_parser(
        "info", help="print a persisted index's manifest"
    )
    common(p_iinfo)
    p_iinfo.add_argument("--path", required=True, help="index directory")
    p_iinfo.add_argument(
        "--check", action="store_true",
        help="also verify freshness against --dataset/--seed",
    )
    p_iinfo.set_defaults(func=_cmd_index_info)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived asyncio serving front end"
    )
    common(p_serve)
    p_serve.add_argument(
        "--load", default="", help="saved deployment directory"
    )
    p_serve.add_argument(
        "--index-path", default="",
        help="persisted index directory to warm-start from",
    )
    p_serve.add_argument(
        "--index-kind", choices=("star", "pairs"), default="star",
    )
    p_serve.add_argument("--star-index", action="store_true")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8377,
        help="TCP port (0 binds an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="executor threads running searches",
    )
    p_serve.add_argument(
        "--max-batch-size", type=int, default=8,
        help="max queries dispatched to the pool as one batch",
    )
    p_serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="how long a forming batch waits for companions",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="default per-query deadline (0 = run to proven optimality)",
    )
    p_serve.add_argument(
        "--heartbeat", type=int, default=16,
        help="anytime snapshot cadence in queue pops (bounds overshoot)",
    )
    p_serve.add_argument(
        "--no-dedup", action="store_true",
        help="disable single-flight coalescing (for benchmarking)",
    )
    p_serve.add_argument(
        "--drain-seconds", type=float, default=10.0,
        help="graceful-shutdown budget for in-flight queries",
    )
    p_serve.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="stdlib logging level for the repro.* loggers",
    )
    p_serve.add_argument(
        "--no-trace", action="store_true",
        help="disable request span tracing",
    )
    p_serve.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of requests that get a span tree (0..1)",
    )
    p_serve.add_argument(
        "--slow-query-ms", type=float, default=500.0,
        help="root spans at/above this land in the GET /slow ring",
    )
    p_serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the /metrics registry",
    )
    p_serve.add_argument(
        "--capture-path", default="",
        help="rotating JSONL query log for capture + replay "
             "(empty = capture off)",
    )
    p_serve.add_argument(
        "--plan", default="",
        help="planner report JSON (cirank plan --apply) to adopt at "
             "startup; its search knobs apply to the system and its "
             "serving knobs override --workers/--max-batch-size/"
             "--max-wait-ms",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="query a running cirank serve instance"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8377)
    p_client.add_argument("--timeout", type=float, default=60.0)
    action = p_client.add_mutually_exclusive_group(required=True)
    action.add_argument("--query", help="run one search")
    action.add_argument(
        "--stats", action="store_true", help="print the serving counters"
    )
    action.add_argument(
        "--health", action="store_true", help="print the health document"
    )
    action.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to drain and exit",
    )
    p_client.add_argument("--k", type=int, default=None)
    p_client.add_argument("--diameter", type=int, default=None)
    p_client.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline override",
    )
    p_client.add_argument(
        "--json", action="store_true", help="print the raw response JSON"
    )
    p_client.set_defaults(func=_cmd_client)

    p_stats = sub.add_parser(
        "stats", help="scrape a running server's observability surfaces"
    )
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, default=8377)
    p_stats.add_argument("--timeout", type=float, default=60.0)
    stats_view = p_stats.add_mutually_exclusive_group()
    stats_view.add_argument(
        "--metrics", action="store_true",
        help="print the raw Prometheus text exposition (GET /metrics)",
    )
    stats_view.add_argument(
        "--slow", action="store_true",
        help="print the slow-query span trees (GET /slow)",
    )
    stats_view.add_argument(
        "--plan", action="store_true",
        help="print the planner's workload-feature summary derived "
             "from the live counters (what the planner would see)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_replay = sub.add_parser(
        "replay", help="re-drive a captured query log against a server"
    )
    p_replay.add_argument(
        "--log", required=True,
        help="capture JSONL written by cirank serve --capture-path",
    )
    p_replay.add_argument("--host", default="127.0.0.1")
    p_replay.add_argument("--port", type=int, default=8377)
    p_replay.add_argument("--timeout", type=float, default=120.0)
    p_replay.add_argument(
        "--rate", type=float, default=1.0,
        help="speed multiplier over the recorded arrival pace",
    )
    p_replay.add_argument("--concurrency", type=int, default=8)
    p_replay.add_argument(
        "--no-deadlines", action="store_true",
        help="strip recorded deadlines so every answer is proven",
    )
    p_replay.add_argument(
        "--gate", action="append", default=[], metavar="NAME=VALUE",
        help="latency/error ceiling, repeatable (p50_ms=20, p99_ms=500, "
             "error_rate=0.01); any violation exits 1",
    )
    p_replay.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
    )
    p_replay.add_argument(
        "--json", action="store_true", help="print the raw report JSON"
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_plan = sub.add_parser(
        "plan",
        help="derive a replay-validated configuration from a capture",
    )
    common(p_plan)
    source = p_plan.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--log",
        help="capture JSONL written by cirank serve --capture-path",
    )
    source.add_argument(
        "--from-stats", action="store_true",
        help="scrape a live daemon's /stats instead (heuristic only — "
             "no replay validation)",
    )
    p_plan.add_argument(
        "--load", default="", help="saved deployment directory"
    )
    p_plan.add_argument("--host", default="127.0.0.1")
    p_plan.add_argument("--port", type=int, default=8377)
    p_plan.add_argument("--timeout", type=float, default=60.0)
    p_plan.add_argument(
        "--max-candidates", type=int, default=6,
        help="candidate configurations proposed (reference excluded)",
    )
    p_plan.add_argument(
        "--rounds", type=int, default=2,
        help="successive-halving rounds over growing capture prefixes",
    )
    p_plan.add_argument(
        "--budget", type=int, default=0,
        help="replayed-request ceiling (0 = the whole capture)",
    )
    p_plan.add_argument(
        "--transport", choices=("direct", "http"), default="direct",
        help="measurement path: threaded in-process search, or a "
             "per-leg in-process server with socket replay",
    )
    p_plan.add_argument("--concurrency", type=int, default=4)
    p_plan.add_argument(
        "--probe", type=int, default=4,
        help="top query classes searched for observed answer diameters",
    )
    p_plan.add_argument(
        "--report", default="",
        help="write the full PlanReport JSON here",
    )
    p_plan.add_argument(
        "--apply", default="",
        help="write an adoptable plan here (cirank serve --plan FILE)",
    )
    p_plan.add_argument(
        "--json", action="store_true",
        help="print the raw report JSON instead of the summary",
    )
    p_plan.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate one of the paper's experiments"
    )
    p_repro.add_argument(
        "--experiment", default="fig8",
        help="fig6/fig7/fig8/fig9/fig11/fig12/table2 or 'all'",
    )
    p_repro.add_argument(
        "--seed", type=int, default=None,
        help="override every dataset/workload RNG seed (exact replay)",
    )
    p_repro.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
