"""Tests for the repro-experiments command-line interface."""

import pytest

from repro.cli import QUICK_NS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig2a"])
        assert args.command == "fig2a"
        assert args.scale == "quick"
        assert args.seed == 2015
        assert args.out is None

    def test_all_documented_commands_parse(self):
        parser = build_parser()
        for command in (
            "fig2a",
            "fig3",
            "fig5",
            "fig6",
            "table1",
            "table2",
            "repeats",
            "search",
            "bounds",
            "ablation",
            "cascade",
            "latency",
            "sorting",
            "robustness",
            "budget",
            "baselines",
            "all",
        ):
            assert parser.parse_args([command]).command == command

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_scale_and_overrides(self):
        args = build_parser().parse_args(
            ["fig3", "--scale", "paper", "--trials", "7", "--un", "50", "--ue", "10"]
        )
        assert args.scale == "paper"
        assert args.trials == 7
        assert args.un == 50
        assert args.ue == 10

    def test_fault_plan_parses_into_a_plan(self):
        args = build_parser().parse_args(
            ["robustness", "--fault-plan", "abandon=0.2,straggle=0.1:4"]
        )
        assert args.fault_plan.abandon_rate == 0.2
        assert args.fault_plan.straggle_rate == 0.1
        assert args.fault_plan.straggle_steps == 4
        assert build_parser().parse_args(["robustness"]).fault_plan is None

    def test_fault_plan_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--fault-plan", "explode=1"])


class TestMain:
    def test_fig2a_prints_series(self, capsys):
        assert main(["fig2a", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[fig2a]" in out
        assert "workers" in out

    def test_bounds_quick(self, capsys):
        assert main(["bounds", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[bounds]" in out
        assert "yes" in out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--seed", "1"]) == 0
        assert "[table1]" in capsys.readouterr().out

    def test_fig3_quick_uses_quick_ns(self, capsys):
        assert main(["fig3", "--seed", "1", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        for n in QUICK_NS:
            assert str(n) in out

    def test_csv_export(self, tmp_path, capsys):
        assert main(["fig2a", "--seed", "1", "--out", str(tmp_path)]) == 0
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1
        assert written[0].read_text().startswith("workers")

    def test_trace_export(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "bounds.trace.jsonl"
        assert main(["bounds", "--seed", "1", "--trace", str(trace_path)]) == 0
        assert f"(wrote trace {trace_path})" in capsys.readouterr().out
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert records[0]["kind"] == "cli_start"
        assert records[0]["command"] == "bounds"
        # The bounds check runs full pipelines, so the trace carries
        # phase spans, filter rounds and oracle batches end to end.
        assert {"span_start", "span_end", "filter_round", "oracle_batch"} <= kinds
        spans = {r["span"] for r in records if r["kind"] == "span_start"}
        assert {"cli", "maxfind", "phase1", "phase2"} <= spans

    def test_untraced_run_leaves_no_trace_file(self, tmp_path, capsys):
        assert main(["fig2a", "--seed", "1"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_search_command(self, capsys):
        assert main(["search", "--seed", "1"]) == 0
        assert "search-eval" in capsys.readouterr().out

    def test_budget_command(self, capsys):
        assert main(["budget", "--seed", "1"]) == 0
        assert "budget-planning" in capsys.readouterr().out

    def test_sorting_command(self, capsys):
        assert main(["sorting", "--seed", "1"]) == 0
        assert "sorting-quality" in capsys.readouterr().out

