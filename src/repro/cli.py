"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments``)::

    repro-experiments fig2a
    repro-experiments fig3 --scale paper --trials 10
    repro-experiments fig5 --un 50 --ue 10
    repro-experiments table2 --seed 7
    repro-experiments all --scale quick --out results/
    repro-experiments fig3 --trace fig3.trace.jsonl
    repro-experiments fig3 --scale paper --jobs 8
    repro-experiments bench --jobs 4
    repro-experiments serve-sim --serve-jobs 8

``--scale quick`` (default) runs reduced sizes suitable for a laptop in
seconds; ``--scale paper`` uses the paper's n = 1000..5000 grid.
``--out DIR`` additionally writes one CSV per result.
``--trace PATH`` records a structured JSONL telemetry trace of the
whole invocation (phase spans, filter rounds, oracle batches); see
docs/OBSERVABILITY.md for the record schema.
``--jobs N`` fans the sweep grids (figs 3-10, the fault sweep) out
across N worker processes with bit-identical results (0 = all cores);
``bench`` times serial vs parallel on the selected grid, prints the
speedup table, and writes the ``BENCH_sweep.json`` perf baseline (see
docs/PERFORMANCE.md).
``serve-sim`` simulates a serving deployment: N concurrent jobs
multiplexed by the :mod:`repro.scheduler` engine over shared pools,
printing the throughput/cache table and writing the
``BENCH_scheduler.json`` artifact (see docs/SCHEDULER.md).
``resume`` runs the serve-sim workload with durable state in
``--state-dir``: a fresh directory starts cold, a directory holding a
(possibly torn) journal resumes it bit-identically without re-buying
settled batches, and ``outcomes.json`` is written for parity checks;
``--crash-after N`` arms the SIGKILL-after-N-journal-appends test
hook.  ``bench-durability`` measures cold vs. journal-resume vs.
warm-cache runs and writes ``BENCH_durability.json`` (see
docs/DURABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
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
from .experiments.artifacts import append_jsonl_atomic, write_json_atomic
from .experiments.bench import (
    bench_identical,
    bench_table,
    oracle_bench_table,
    run_bench_comparison,
    write_bench_json,
)
from .experiments.bench_durability import (
    durability_bench_table,
    outcomes_payload,
    run_durability_bench,
    run_durable_workload,
    write_durability_bench_json,
)
from .experiments.bench_scheduler import (
    default_workload,
    run_scheduler_bench,
    scheduler_bench_table,
    write_scheduler_bench_json,
)
from .experiments.bench_service import (
    run_service_bench,
    service_bench_table,
    write_service_bench_json,
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
    "bench",
    "serve-sim",
    "bench-service",
    "resume",
    "bench-durability",
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
        "--serve-jobs",
        type=int,
        default=8,
        metavar="N",
        help="serve-sim only: concurrent jobs to multiplex (default 8)",
    )
    parser.add_argument(
        "--quantum",
        type=int,
        default=0,
        metavar="K",
        help=(
            "serve-sim only: fair-share bound, max comparison tasks one "
            "pool grants per scheduler tick (default 0 = unlimited, the "
            "regime where fused settlement has whole batches to work on; "
            "set a small K to exercise fair-share throttling)"
        ),
    )
    parser.add_argument(
        "--service-jobs",
        type=int,
        default=1000,
        metavar="N",
        help="bench-service only: jobs to drive over HTTP (default 1000)",
    )
    parser.add_argument(
        "--service-concurrency",
        type=int,
        default=32,
        metavar="N",
        help="bench-service only: concurrent client workers (default 32)",
    )
    parser.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "resume / bench-durability: directory for durable state "
            "(journal + persistent comparison store)"
        ),
    )
    parser.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help=(
            "resume only: SIGKILL this process after N journal appends "
            "(crash-recovery test hook)"
        ),
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


#: Schema tag on every results/BENCH_history.jsonl record.
BENCH_HISTORY_SCHEMA = "repro.bench_history/v1"


def _git_sha() -> str | None:
    """The short HEAD SHA for provenance, or ``None`` outside a repo."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _append_history(
    out: Path | None, command: str, numbers: dict[str, object]
) -> None:
    """Append one provenance line to ``results/BENCH_history.jsonl``.

    Every ``bench*`` subcommand (and ``serve-sim``) records its key
    numbers plus the git SHA and wall-clock time, so perf trends are
    greppable across runs without diffing full artifacts.  The append
    is atomic (tmp+fsync+rename), safe under concurrent CI shards.
    """
    import time

    record = {
        "schema": BENCH_HISTORY_SCHEMA,
        "command": command,
        "git_sha": _git_sha(),
        "unix_time": round(time.time(), 3),  # repro-lint: disable=DET002 -- provenance stamp only
        **numbers,
    }
    directory = out if out is not None else Path("results")
    path = append_jsonl_atomic(directory / "BENCH_history.jsonl", record)
    print(f"(appended {path})")


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: timed serial-vs-parallel comparison.

    Prints the speedup and vectorized-vs-scalar oracle tables and
    writes the ``BENCH_sweep.json`` perf baseline (atomically) into
    ``--out`` (default ``results/``).  Exits nonzero when any
    bit-identity check failed — a correctness regression, not a perf
    number — so the CI perf job fails loudly.
    """
    payload = run_bench_comparison(
        seed=args.seed,
        sweep_config=_sweep_config(args),
        estimation_config=_estimation_config(args),
        jobs=args.jobs if args.jobs != 1 else None,
    )
    print(bench_table(payload).to_text())
    print()
    print(oracle_bench_table(payload).to_text())
    print()
    out = args.out if args.out is not None else Path("results")
    path = write_bench_json(payload, out / "BENCH_sweep.json")
    print(f"(wrote {path})")
    _append_history(
        args.out,
        "bench",
        {
            "seed": args.seed,
            "identical": bench_identical(payload),
            "speedups": {
                name: sweep.get("speedup")
                for name, sweep in payload["sweeps"].items()
            },
        },
    )
    if not bench_identical(payload):
        print("BENCH FAILED: a bit-identity check returned false")
        return 1
    return 0


def _run_serve_sim(args: argparse.Namespace) -> int:
    """The ``serve-sim`` subcommand: scheduler throughput benchmark.

    Runs the three-arm comparison (isolated / scheduled fused /
    scheduled fused+cache), prints the throughput table, and writes
    the ``BENCH_scheduler.json`` artifact (atomically) into ``--out``
    (default ``results/``).  Exits nonzero when the cache-off fused arm
    diverged from isolated execution, or when fused settlement failed
    to beat the isolated baseline's throughput — the first is a
    correctness regression, the second a perf one; either should fail
    the CI smoke loudly.
    """
    payload = run_scheduler_bench(
        seed=args.seed,
        n_jobs=args.serve_jobs,
        quantum=args.quantum if args.quantum > 0 else None,
    )
    print(scheduler_bench_table(payload).to_text())
    print()
    out = args.out if args.out is not None else Path("results")
    path = write_scheduler_bench_json(payload, out / "BENCH_scheduler.json")
    print(f"(wrote {path})")
    fused = payload["scheduled_fused"]
    cached = payload["scheduled_cached"]
    _append_history(
        args.out,
        "serve-sim",
        {
            "seed": args.seed,
            "n_jobs": args.serve_jobs,
            "isolated_jobs_per_sec": payload["isolated"]["jobs_per_sec"],
            "fused_jobs_per_sec": fused["jobs_per_sec"],
            "cached_jobs_per_sec": cached["jobs_per_sec"],
            "fused_identical": fused["identical_to_isolated"],
            "cache_hit_rate": cached["cache_hit_rate"],
        },
    )
    if not fused["identical_to_isolated"]:
        print("BENCH FAILED: cache-off fused scheduling diverged from isolated")
        return 1
    isolated_rate = payload["isolated"]["jobs_per_sec"]
    if (
        isolated_rate is not None
        and fused["jobs_per_sec"] is not None
        and fused["jobs_per_sec"] < isolated_rate
    ):
        print("BENCH FAILED: fused settlement slower than isolated execution")
        return 1
    return 0


def _run_bench_service(args: argparse.Namespace) -> int:
    """The ``bench-service`` subcommand: the HTTP layer under load.

    Boots a real loopback :class:`ServiceServer`, drives
    ``--service-jobs`` jobs through ``--service-concurrency`` client
    workers over real sockets, prints the latency/throughput table,
    and writes ``BENCH_service.json`` (atomically) into ``--out``
    (default ``results/``).  Exits nonzero on any 5xx response, any
    unsettled job, or any HTTP-vs-in-process parity mismatch — the
    serving layer must never be the thing that changes an answer.
    """
    payload = run_service_bench(
        seed=args.seed,
        n_jobs=args.service_jobs,
        concurrency=args.service_concurrency,
    )
    print(service_bench_table(payload).to_text())
    print()
    out = args.out if args.out is not None else Path("results")
    path = write_service_bench_json(payload, out / "BENCH_service.json")
    print(f"(wrote {path})")
    _append_history(
        args.out,
        "bench-service",
        {
            "seed": args.seed,
            "n_jobs": payload["workload"]["n_jobs"],
            "concurrency": payload["workload"]["concurrency"],
            "jobs_per_sec": payload["jobs_per_sec"],
            "latency_p50_s": payload["latency_s"]["p50"],
            "latency_p99_s": payload["latency_s"]["p99"],
            "server_errors": payload["server_errors"],
            "parity_identical": payload["parity"]["identical"],
        },
    )
    if not payload["ok"]:
        print(
            "BENCH FAILED: "
            f"{payload['server_errors']} 5xx responses, "
            f"{payload['settled_ok']}/{payload['workload']['n_jobs']} settled, "
            f"parity identical={payload['parity']['identical']}"
        )
        return 1
    return 0


def _run_resume(args: argparse.Namespace) -> int:
    """The ``resume`` subcommand: durable serve-sim run in a state dir.

    Runs the standard scheduler workload with journaling and cache
    persistence rooted at ``--state-dir``.  On a fresh directory this
    is simply a durable run; pointed at the state of a killed run it
    recovers the journal (truncating any torn tail), replays every
    settled batch without touching the platform, and finishes the rest
    live.  Either way the settle outcomes land in
    ``<state-dir>/outcomes.json`` (written atomically) so the
    crash-recovery harness can compare interrupted-then-resumed against
    uninterrupted runs bit-for-bit.
    """
    if args.state_dir is None:
        print("resume requires --state-dir", file=sys.stderr)
        return 2
    workload = default_workload(seed=args.seed, n_jobs=args.serve_jobs)
    outcomes, scheduler, wall_s = run_durable_workload(
        workload,
        args.state_dir,
        quantum=args.quantum if args.quantum > 0 else None,
        crash_after=args.crash_after,
    )
    payload = outcomes_payload(outcomes, scheduler, wall_s)
    path = write_json_atomic(args.state_dir / "outcomes.json", payload)
    run = payload["run"]
    print(
        f"settled {len(outcomes)} jobs in {run['wall_s']}s "
        f"(replayed {run['replayed_batches']} batches from the journal, "
        f"cache {run['cache_hits']} hits / {run['cache_misses']} misses)"
    )
    print(f"(wrote {path})")
    return 0


def _run_bench_durability(args: argparse.Namespace) -> int:
    """The ``bench-durability`` subcommand: cold / resume / warm arms.

    Needs a fresh ``--state-dir`` (a temporary directory is used when
    the flag is omitted); prints the durability table and writes the
    ``BENCH_durability.json`` artifact (atomically) into ``--out``
    (default ``results/``).  Exits nonzero when the resume or warm arm
    was not bit-identical to the cold run — a durability correctness
    regression, not a perf number.
    """
    if args.state_dir is not None:
        payload = run_durability_bench(
            args.state_dir,
            seed=args.seed,
            n_jobs=args.serve_jobs,
            quantum=args.quantum if args.quantum > 0 else None,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
            payload = run_durability_bench(
                tmp,
                seed=args.seed,
                n_jobs=args.serve_jobs,
                quantum=args.quantum if args.quantum > 0 else None,
            )
    print(durability_bench_table(payload).to_text())
    print()
    out = args.out if args.out is not None else Path("results")
    path = write_durability_bench_json(payload, out / "BENCH_durability.json")
    print(f"(wrote {path})")
    _append_history(
        args.out,
        "bench-durability",
        {
            "seed": args.seed,
            "cold_wall_s": payload["cold"]["wall_s"],
            "resume_wall_s": payload["resume"]["wall_s"],
            "warm_wall_s": payload["warm"]["wall_s"],
            "resume_identical": payload["resume"]["identical_to_cold"],
            "warm_answers_match": payload["warm"]["answers_match_cold"],
        },
    )
    if not (
        payload["resume"]["identical_to_cold"] and payload["warm"]["answers_match_cold"]
    ):
        print("BENCH FAILED: a resumed/warm run diverged from the cold run")
        return 1
    return 0


def _dispatch(args: argparse.Namespace, rng: np.random.Generator) -> int:
    """Run the selected command(s); shared by traced and untraced paths."""
    out: Path | None = args.out
    command = args.command

    if command in ("fig2a", "all"):
        _emit(run_figure2_dots(rng), out)
    if command in ("fig2b", "all"):
        _emit(run_figure2_cars(rng), out)

    if command == "bench":
        return _run_bench(args)
    if command == "serve-sim":
        return _run_serve_sim(args)
    if command == "bench-service":
        return _run_bench_service(args)
    if command == "resume":
        return _run_resume(args)
    if command == "bench-durability":
        return _run_bench_durability(args)

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
