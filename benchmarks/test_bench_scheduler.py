"""Scheduler throughput baseline: shared-pool multiplexing vs isolated.

Runs the three-arm comparison of
:mod:`repro.experiments.bench_scheduler` — each job on a private
platform, the same jobs multiplexed by the :mod:`repro.scheduler`
engine with fused tick settlement (verified bit-identical to
isolated), and fused with the cross-job cache on — prints the
throughput/cache table, and persists ``results/BENCH_scheduler.json``.

Run with ``pytest benchmarks/test_bench_scheduler.py -s``.
"""

from pathlib import Path

from repro.experiments.bench_scheduler import (
    run_scheduler_bench,
    scheduler_bench_table,
    write_scheduler_bench_json,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def test_bench_scheduler_baseline(emit):
    payload = run_scheduler_bench(seed=2015, n_jobs=8)
    fused = payload["scheduled_fused"]
    assert fused["identical_to_isolated"], (
        "fused scheduling diverged from isolated execution"
    )
    cached = payload["scheduled_cached"]
    assert cached["cache_hit_rate"] > 0, "repeated catalogs produced no cache hits"
    assert cached["judgments_saved"] > 0
    assert cached["money_saved"] > 0
    assert payload["isolated"]["wall_s"] > 0 and cached["wall_s"] > 0
    path = write_scheduler_bench_json(payload, RESULTS_DIR / "BENCH_scheduler.json")
    assert path.exists()
    emit(scheduler_bench_table(payload), "bench_scheduler")
