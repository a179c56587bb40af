"""The command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

SMALL_SIM = [
    "--events", "1500", "--subscribers", "4", "--timestamps", "30",
    "--event-rate", "4", "--grid", "80", "--seed", "3",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.strategy == "iGM"
        assert args.event_rate == 20.0
        assert args.dataset == "twitter"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--strategy", "magic"])

    @pytest.mark.parametrize("verb", [
        ["simulate"], ["record", "--trace", "t"], ["replay", "--trace", "t"], ["serve"],
    ])
    def test_every_verb_offers_the_four_strategies(self, verb, capsys):
        parser = build_parser()
        for strategy in ("VM", "GM", "iGM", "idGM"):
            assert parser.parse_args([*verb, "--strategy", strategy]).strategy == strategy
        for retired in ("iGM-vec", "idGM-vec"):
            with pytest.raises(SystemExit):
                parser.parse_args([*verb, "--strategy", retired])
        capsys.readouterr()

    def test_serve_defaults_to_igm(self):
        assert build_parser().parse_args(["serve"]).strategy == "iGM"


class TestSimulate:
    def test_runs_and_prints_figures(self, capsys):
        assert main(["simulate", "--strategy", "iGM", *SMALL_SIM]) == 0
        out = capsys.readouterr().out
        assert "location upd." in out
        assert "iGM" in out

    def test_gm_uses_full_mode(self, capsys):
        assert main(["simulate", "--strategy", "GM", *SMALL_SIM]) == 0
        assert "GM" in capsys.readouterr().out

    def test_taxi_movement(self, capsys):
        assert main(["simulate", "--movement", "taxi", *SMALL_SIM]) == 0
        assert "taxi" in capsys.readouterr().out

    def test_stats_prints_span_table(self, capsys):
        assert main(["simulate", "--stats", *SMALL_SIM]) == 0
        out = capsys.readouterr().out
        assert "per-stage latency" in out
        # the hot stages the run must have traced
        for stage in ("construct", "match", "publish", "ship"):
            assert stage in out
        assert "p95 ms" in out

    def test_without_stats_no_span_table(self, capsys):
        assert main(["simulate", *SMALL_SIM]) == 0
        assert "per-stage latency" not in capsys.readouterr().out

    def test_slow_span_threshold_parses(self):
        args = build_parser().parse_args(
            ["simulate", "--slow-span-ms", "2.5", "--stats"]
        )
        assert args.slow_span_ms == 2.5
        assert args.stats is True


class TestCompare:
    def test_all_strategies_in_output(self, capsys):
        assert main(["compare", *SMALL_SIM]) == 0
        out = capsys.readouterr().out
        for strategy in ("VM", "GM", "iGM", "idGM"):
            assert strategy in out
        assert "less communication" in out

    def test_stats_prints_one_table_per_strategy(self, capsys):
        assert main(["compare", "--stats", *SMALL_SIM]) == 0
        out = capsys.readouterr().out
        for strategy in ("VM", "GM", "iGM", "idGM"):
            assert f"per-stage latency ({strategy})" in out


class TestMatch:
    def test_indexes_agree_and_report(self, capsys):
        assert main(["match", "--events", "2000", "--queries", "8"]) == 0
        out = capsys.readouterr().out
        for name in ("Quadtree", "k-index", "OpIndex", "BEQ-Tree"):
            assert name in out
        assert "per query" in out


TINY_SIM = [
    "--events", "400", "--subscribers", "4", "--timestamps", "10",
    "--event-rate", "2", "--grid", "40", "--seed", "3",
]


class TestRecordReplay:
    def test_record_requires_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record"])

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "trace")
        assert main(["record", "--trace", trace, *TINY_SIM]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert (tmp_path / "trace" / "journal.log").exists()
        assert (tmp_path / "trace" / "meta.json").exists()

        log_path = str(tmp_path / "replay.log")
        assert main(["replay", "--trace", trace, "--out", log_path]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "sha256" in out

        # the same trace through a different configuration is identical
        assert main([
            "replay", "--trace", trace, "--shards", "2", "--batch-size", "4",
            "--expect", log_path,
        ]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_refuses_the_retired_cached_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["record", "--trace", str(trace), "--strategy", "GM", *TINY_SIM]) == 0
        meta_path = trace / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["matching_mode"] == "full"
        log_path = str(tmp_path / "replay.log")
        assert main(["replay", "--trace", str(trace), "--out", log_path]) == 0
        # a trace whose metadata names the mode VM/GM used to record under
        meta_path.write_text(json.dumps(dict(meta, matching_mode="cached")))
        with pytest.raises(ValueError, match="unknown matching mode"):
            main(["replay", "--trace", str(trace)])
        capsys.readouterr()
        assert main([
            "replay", "--trace", str(trace), "--matching-mode", "full",
            "--expect", log_path,
        ]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_refuses_the_retired_vec_strategy(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["record", "--trace", str(trace), *TINY_SIM]) == 0
        meta_path = trace / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert (meta["strategy"], meta["matching_mode"]) == ("iGM", "ondemand")
        log_path = str(tmp_path / "replay.log")
        assert main(["replay", "--trace", str(trace), "--out", log_path]) == 0
        # a trace whose metadata names the array core's retired twin
        meta_path.write_text(json.dumps(dict(meta, strategy="iGM-vec")))
        with pytest.raises(ValueError, match="unknown strategy"):
            main(["replay", "--trace", str(trace)])
        capsys.readouterr()
        assert main([
            "replay", "--trace", str(trace), "--strategy", "iGM",
            "--expect", log_path,
        ]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_diff_detects_divergence(self, tmp_path, capsys):
        trace = str(tmp_path / "trace")
        assert main(["record", "--trace", trace, *TINY_SIM]) == 0
        bogus = tmp_path / "bogus.log"
        bogus.write_text("t=1 sub=999 event=999\n")
        capsys.readouterr()
        assert main(["replay", "--trace", trace, "--expect", str(bogus)]) == 1
        assert "DIVERGED" in capsys.readouterr().err


class TestFigure:
    def test_lists_available_tables(self, capsys):
        # the benchmarks may or may not have run; both paths are valid
        code = main(["figure"])
        out = capsys.readouterr()
        assert code in (0, 1)

    def test_unknown_figure_errors(self):
        code = main(["figure", "fig99z"])
        assert code == 1
