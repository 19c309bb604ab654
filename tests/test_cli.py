"""Tests for the extended CLI (save / load / export / json)."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_save_requires_out(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["save", "--dataset", "imdb"])

    def test_search_flags(self):
        args = build_parser().parse_args([
            "search", "--query", "x", "--json", "--load", "/tmp/d",
        ])
        assert args.json and args.load == "/tmp/d"

    @pytest.mark.parametrize("command", ["search", "client"])
    def test_sharded_engine_is_rejected(self, command, capsys):
        """``--engine`` is gone: every engine name is an argparse error."""
        for engine in ("sharded", "arena", "object"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([
                    command, "--query", "x", "--engine", engine,
                ])
            assert excinfo.value.code == 2
            assert (
                "unrecognized arguments: --engine"
                in capsys.readouterr().err
            )

    def test_search_has_no_shards_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "search", "--query", "x", "--shards", "2",
            ])


class TestServingParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8377 and args.workers == 4
        assert args.deadline_ms == 0.0 and not args.no_dedup
        assert args.max_batch_size == 8 and args.heartbeat == 16

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "2", "--no-dedup",
            "--deadline-ms", "50", "--max-wait-ms", "0",
            "--load", "/tmp/dep", "--drain-seconds", "3",
        ])
        assert args.port == 0 and args.workers == 2 and args.no_dedup
        assert args.deadline_ms == 50.0 and args.max_wait_ms == 0.0
        assert args.load == "/tmp/dep" and args.drain_seconds == 3.0

    def test_client_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_actions_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "client", "--query", "x", "--stats",
            ])

    def test_client_search_flags(self):
        args = build_parser().parse_args([
            "client", "--query", "x", "--k", "3",
            "--deadline-ms", "25", "--json",
        ])
        assert args.query == "x" and args.k == 3
        assert args.deadline_ms == 25.0
        assert args.json and not args.stats


class TestObservabilityParsers:
    def test_serve_obs_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.log_level == "info" and not args.no_trace
        assert args.trace_sample == 1.0 and args.slow_query_ms == 500.0
        assert not args.no_metrics and args.capture_path == ""

    def test_serve_obs_flags(self):
        args = build_parser().parse_args([
            "serve", "--no-trace", "--no-metrics", "--log-level", "debug",
            "--trace-sample", "0.25", "--slow-query-ms", "100",
            "--capture-path", "/tmp/cap.jsonl",
        ])
        assert args.no_trace and args.no_metrics
        assert args.log_level == "debug" and args.trace_sample == 0.25
        assert args.slow_query_ms == 100.0
        assert args.capture_path == "/tmp/cap.jsonl"

    def test_stats_views_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--metrics", "--slow"])

    def test_stats_flags(self):
        args = build_parser().parse_args(["stats", "--metrics"])
        assert args.metrics and not args.slow
        args = build_parser().parse_args(["stats", "--slow"])
        assert args.slow and not args.metrics

    def test_replay_requires_log(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])

    def test_replay_flags(self):
        args = build_parser().parse_args([
            "replay", "--log", "/tmp/cap.jsonl", "--rate", "2",
            "--concurrency", "4", "--no-deadlines",
            "--gate", "p99_ms=500", "--gate", "error_rate=0.01",
        ])
        assert args.log == "/tmp/cap.jsonl" and args.rate == 2.0
        assert args.concurrency == 4 and args.no_deadlines
        assert args.gate == ["p99_ms=500", "error_rate=0.01"]

    def test_gate_specs_parse(self):
        from repro.cli import _parse_gates
        gates = _parse_gates(["p50_ms=20", "error_rate=0.01"])
        assert gates == {"p50_ms": 20.0, "error_rate": 0.01}

    def test_bad_gate_specs_exit(self):
        from repro.cli import _parse_gates
        with pytest.raises(SystemExit):
            _parse_gates(["p50_ms"])
        with pytest.raises(SystemExit):
            _parse_gates(["p50_ms=fast"])


class TestPlannerParsers:
    def test_plan_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_plan_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "plan", "--log", "/tmp/cap.jsonl", "--from-stats",
            ])

    def test_plan_flags(self):
        args = build_parser().parse_args([
            "plan", "--log", "/tmp/cap.jsonl", "--max-candidates", "3",
            "--rounds", "1", "--budget", "64", "--transport", "http",
            "--concurrency", "2", "--report", "/tmp/r.json",
            "--apply", "/tmp/p.json", "--json",
        ])
        assert args.log == "/tmp/cap.jsonl" and args.max_candidates == 3
        assert args.rounds == 1 and args.budget == 64
        assert args.transport == "http" and args.concurrency == 2
        assert args.report == "/tmp/r.json" and args.apply == "/tmp/p.json"
        assert args.json

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan", "--from-stats"])
        assert args.from_stats and args.transport == "direct"
        assert args.rounds == 2 and args.budget == 0

    def test_serve_accepts_a_plan(self):
        args = build_parser().parse_args(["serve", "--plan", "/tmp/p.json"])
        assert args.plan == "/tmp/p.json"
        assert build_parser().parse_args(["serve"]).plan == ""

    def test_stats_plan_view_is_exclusive_with_the_others(self):
        args = build_parser().parse_args(["stats", "--plan"])
        assert args.plan
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--plan", "--metrics"])


class TestPlanFlow:
    def test_capture_to_plan_to_adoptable_config(self, tmp_path, capsys):
        out = tmp_path / "deployment"
        assert main([
            "save", "--dataset", "dblp", "--seed", "3", "--out", str(out),
        ]) == 0
        capsys.readouterr()

        from repro.storage import load_system
        system = load_system(out)
        tokens = [
            t for t in sorted(system.index.vocabulary())
            if len(system.index.matching_nodes(t)) == 1
        ][:4]
        log = tmp_path / "capture.jsonl"
        with open(log, "w", encoding="utf-8") as handle:
            ts = 100.0
            for _ in range(2):
                for token in tokens:
                    handle.write(json.dumps({
                        "ts": ts, "query": token, "k": 3,
                        "fingerprint": "f",
                    }) + "\n")
                    ts += 0.1

        report_path = tmp_path / "report.json"
        apply_path = tmp_path / "plan.json"
        code = main([
            "plan", "--log", str(log), "--load", str(out),
            "--max-candidates", "2", "--rounds", "1",
            "--concurrency", "2", "--probe", "1",
            "--report", str(report_path), "--apply", str(apply_path),
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "chosen:" in output and "workload features" in output
        assert report_path.exists() and apply_path.exists()

        # The emitted plan round-trips into a config the daemon adopts.
        with open(apply_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert "chosen_config" in doc
        system.apply_plan(doc)

    def test_plan_with_empty_capture_fails(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        code = main(["plan", "--log", str(log)])
        assert code == 1
        assert "no records" in capsys.readouterr().err


class TestSaveLoadFlow:
    def test_save_then_search(self, tmp_path, capsys):
        out = tmp_path / "deployment"
        code = main([
            "save", "--dataset", "dblp", "--seed", "3",
            "--out", str(out), "--star-index",
        ])
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "index.json").exists()
        capsys.readouterr()

        # find a real token from the saved graph
        from repro.storage import load_system
        system = load_system(out)
        token = next(
            t for t in system.index.vocabulary()
            if len(system.index.matching_nodes(t)) == 1
        )
        code = main([
            "search", "--load", str(out), "--query", token, "--json",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "1." in output
        payload = json.loads(output[output.index("{"):])
        assert payload["query"] == token
        assert payload["answers"]


class TestExport:
    def test_export_graphml(self, tmp_path, capsys):
        out = tmp_path / "graph.graphml"
        code = main([
            "export", "--dataset", "dblp", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        root = ET.parse(out).getroot()
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert root.findall(f".//{ns}node")


class TestEvaluate:
    def test_evaluate_prints_comparison(self, capsys):
        code = main([
            "evaluate", "--dataset", "dblp", "--seed", "3", "--queries", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "CI-Rank" in out and "MRR" in out


class TestIndexCommands:
    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "build"])

    def test_build_then_info(self, tmp_path, capsys):
        out = tmp_path / "star_index"
        code = main([
            "index", "build", "--dataset", "dblp", "--seed", "3",
            "--out", str(out), "--horizon", "4", "--stats",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert (out / "index_manifest.json").exists()
        assert "method:" in printed and "kernel" in printed

        code = main([
            "index", "info", "--path", str(out),
            "--dataset", "dblp", "--seed", "3", "--check",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "kind:        star" in printed
        assert "freshness:   OK" in printed
        # Per-shard accounting straight from the manifest.
        assert "bytes on disk" in printed
        assert "shard_0000.npz" in printed
        assert "sources=" in printed and "bytes=" in printed

    def test_info_renders_legacy_manifest(self, tmp_path, capsys):
        out = tmp_path / "star_index"
        main([
            "index", "build", "--dataset", "dblp", "--seed", "3",
            "--out", str(out), "--horizon", "4",
        ])
        capsys.readouterr()
        manifest_path = out / "index_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = [r["name"] for r in manifest["shards"]]
        manifest_path.write_text(json.dumps(manifest))
        code = main(["index", "info", "--path", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        # Sizes come from disk, counts degrade to '?'.
        assert "shard_0000.npz" in printed
        assert "sources=?" in printed
        assert "bytes on disk" in printed

    def test_info_detects_wrong_seed(self, tmp_path, capsys):
        out = tmp_path / "star_index"
        main([
            "index", "build", "--dataset", "dblp", "--seed", "3",
            "--out", str(out), "--horizon", "4",
        ])
        capsys.readouterr()
        code = main([
            "index", "info", "--path", str(out),
            "--dataset", "dblp", "--seed", "4", "--check",
        ])
        printed = capsys.readouterr().out
        assert code == 1
        assert "STALE" in printed

    def test_search_warm_starts_from_index_path(self, tmp_path, capsys):
        out = tmp_path / "star_index"
        main([
            "index", "build", "--dataset", "dblp", "--seed", "3",
            "--out", str(out),
        ])
        capsys.readouterr()

        from repro.cli import _build_system
        system = _build_system("dblp", 3)
        token = next(
            t for t in system.index.vocabulary()
            if len(system.index.matching_nodes(t)) == 1
        )
        code = main([
            "search", "--dataset", "dblp", "--seed", "3",
            "--query", token, "--index-path", str(out), "--stats",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "warm-started from disk" in printed

    def test_pairs_kind(self, tmp_path, capsys):
        out = tmp_path / "pairs_index"
        code = main([
            "index", "build", "--dataset", "dblp", "--seed", "3",
            "--out", str(out), "--kind", "pairs", "--horizon", "3",
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["index", "info", "--path", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "kind:        pairs" in printed
