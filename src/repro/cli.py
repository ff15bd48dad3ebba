"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments``)::

    repro-experiments fig2a
    repro-experiments fig3 --scale paper --trials 10
    repro-experiments fig5 --un 50 --ue 10
    repro-experiments table2 --seed 7
    repro-experiments all --scale quick --out results/
    repro-experiments fig3 --trace fig3.trace.jsonl
    repro-experiments fig3 --scale paper --jobs 8

``--scale quick`` (default) runs reduced sizes suitable for a laptop in
seconds; ``--scale paper`` uses the paper's n = 1000..5000 grid.
``--out DIR`` additionally writes one CSV per result.
``--trace PATH`` records a structured JSONL telemetry trace of the
whole invocation (phase spans, filter rounds, oracle batches); see
docs/OBSERVABILITY.md for the record schema.
``--jobs N`` fans the sweep grids (figs 3-10, the fault sweep) out
across N worker processes with bit-identical results (0 = all cores).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    EstimationConfig,
    FigureResult,
    SweepConfig,
    TableResult,
    figure3_from_sweep,
    figure4_from_sweep,
    figure5_from_sweep,
    figure6_from_estimation,
    figure7_from_estimation,
    figure9_from_sweep,
    figure10_from_estimation,
    run_baseline_shootout,
    run_bounds_check,
    run_budget_planning,
    run_cascade_experiment,
    run_epsilon_robustness,
    run_estimation_sweep,
    run_expert_discovery,
    run_expert_fraction_experiment,
    run_fatigue_experiment,
    run_fault_sweep,
    run_figure2_cars,
    run_figure2_dots,
    run_group_multiplier_ablation,
    run_latency_experiment,
    run_loss_counter_ablation,
    run_memoization_ablation,
    run_phase2_ablation,
    run_repeated_two_maxfind,
    run_search_evaluation,
    run_sorting_quality,
    run_sweep,
    run_table1_dots,
    run_table2_cars,
    survival_table,
)
from .experiments.cost_vs_n import PAPER_EXPERT_COSTS
from .platform.faults import FaultPlan
from .telemetry import JsonlSink, Tracer, use_tracer

__all__ = ["main", "build_parser"]

QUICK_NS = (500, 1000, 2000)
PAPER_NS = (1000, 2000, 3000, 4000, 5000)

COMMANDS = (
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
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
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'The Importance of Being "
            "Expert: Efficient Max-Finding in Crowdsourcing' (SIGMOD 2015)."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="what to reproduce")
    parser.add_argument("--seed", type=int, default=2015, help="RNG seed")
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="quick = reduced sizes; paper = the n = 1000..5000 grid",
    )
    parser.add_argument("--trials", type=int, default=None, help="trials per point")
    parser.add_argument("--un", type=int, default=10, help="u_n(n) parameter")
    parser.add_argument("--ue", type=int, default=5, help="u_e(n) parameter")
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for CSV exports"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the sweep grids (default 1 = serial, "
            "0 = all cores); results are bit-identical for any N"
        ),
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a structured JSONL telemetry trace of the run to PATH",
    )
    parser.add_argument(
        "--fault-plan",
        type=FaultPlan.parse,
        default=None,
        metavar="SPEC",
        help=(
            "base fault-injection plan for the robustness fault sweep, "
            "e.g. 'abandon=0.2,straggle=0.1:4,offline=0.05:6,malformed=0.02' "
            "(see docs/RELIABILITY.md)"
        ),
    )
    return parser


def _emit(result: FigureResult | TableResult, out: Path | None) -> None:
    print(result.to_text())
    print()
    if out is not None:
        identifier = (
            result.figure_id if isinstance(result, FigureResult) else result.table_id
        )
        safe = identifier.replace("(", "_").replace(")", "").replace("=", "")
        path = result.to_csv(out / f"{safe}.csv")
        print(f"(wrote {path})")
        print()


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    ns = PAPER_NS if args.scale == "paper" else QUICK_NS
    trials = args.trials if args.trials is not None else (5 if args.scale == "paper" else 3)
    return SweepConfig(ns=ns, u_n=args.un, u_e=args.ue, trials=trials)


def _estimation_config(args: argparse.Namespace) -> EstimationConfig:
    ns = PAPER_NS if args.scale == "paper" else QUICK_NS
    trials = args.trials if args.trials is not None else (5 if args.scale == "paper" else 3)
    return EstimationConfig(ns=ns, u_n=args.un, u_e=args.ue, trials=trials)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    rng = np.random.default_rng(args.seed)

    if args.trace is None:
        return _dispatch(args, rng)
    tracer = Tracer(sink=JsonlSink(args.trace))
    tracer.event(
        "cli_start", command=args.command, seed=args.seed, scale=args.scale
    )
    try:
        with use_tracer(tracer), tracer.span("cli", command=args.command):
            code = _dispatch(args, rng)
    finally:
        tracer.close()
    print(f"(wrote trace {args.trace})")
    return code


def _dispatch(args: argparse.Namespace, rng: np.random.Generator) -> int:
    """Run the selected command(s); shared by traced and untraced paths."""
    out: Path | None = args.out
    command = args.command

    if command in ("fig2a", "all"):
        _emit(run_figure2_dots(rng), out)
    if command in ("fig2b", "all"):
        _emit(run_figure2_cars(rng), out)

    if command in ("fig3", "fig4", "fig5", "fig9", "all"):
        data = run_sweep(_sweep_config(args), rng, jobs=args.jobs)
        if command in ("fig3", "all"):
            _emit(figure3_from_sweep(data), out)
        if command in ("fig4", "all"):
            _emit(figure4_from_sweep(data), out)
        if command in ("fig5", "all"):
            for ce in PAPER_EXPERT_COSTS:
                _emit(figure5_from_sweep(data, ce), out)
        if command in ("fig9", "all"):
            for ce in PAPER_EXPERT_COSTS:
                _emit(figure9_from_sweep(data, ce), out)

    if command in ("fig6", "fig7", "fig10", "all"):
        est = run_estimation_sweep(_estimation_config(args), rng, jobs=args.jobs)
        if command in ("fig6", "all"):
            _emit(figure6_from_estimation(est), out)
            _emit(survival_table(est), out)
        if command in ("fig7", "all"):
            for ce in PAPER_EXPERT_COSTS:
                _emit(figure7_from_estimation(est, ce), out)
        if command in ("fig10", "all"):
            for ce in PAPER_EXPERT_COSTS:
                _emit(figure10_from_estimation(est, ce), out)

    if command in ("table1", "all"):
        _emit(run_table1_dots(rng), out)
    if command in ("table2", "all"):
        _emit(run_table2_cars(rng), out)
    if command in ("repeats", "all"):
        _emit(run_repeated_two_maxfind("dots", rng), out)
        _emit(run_repeated_two_maxfind("cars", rng), out)
    if command in ("search", "all"):
        _emit(run_search_evaluation(rng), out)
    if command in ("bounds", "all"):
        _emit(run_bounds_check(rng), out)
    if command in ("ablation", "all"):
        _emit(run_memoization_ablation(rng), out)
        _emit(run_loss_counter_ablation(rng), out)
        _emit(run_phase2_ablation(rng), out)
        _emit(run_group_multiplier_ablation(rng), out)
    if command in ("cascade", "all"):
        _emit(run_cascade_experiment(rng), out)
        _emit(run_expert_fraction_experiment(rng), out)
        _emit(run_expert_discovery(rng), out)
    if command in ("latency", "all"):
        _emit(run_latency_experiment(rng), out)
    if command in ("sorting", "all"):
        _emit(run_sorting_quality(rng), out)
    if command in ("robustness", "all"):
        _emit(run_epsilon_robustness(rng), out)
        _emit(run_fatigue_experiment(rng), out)
        _emit(run_fault_sweep(rng, base_plan=args.fault_plan, jobs=args.jobs), out)
    if command in ("budget", "all"):
        _emit(run_budget_planning(rng), out)
    if command in ("baselines", "all"):
        _emit(run_baseline_shootout(rng), out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
