"""Scheduler throughput benchmark: N jobs shared vs. N jobs isolated.

The multi-job scheduler's pitch is economic: a host system answering
many queries over shared pools should settle more jobs per second and
— with the cross-job memo cache — buy strictly fewer judgments than
the same jobs executed in isolation.  This module measures both claims
on one seeded workload and packages the numbers as a JSON payload
conventionally stored at ``results/BENCH_scheduler.json``:

* **isolated** — every job on its own private platform (the status
  quo before :mod:`repro.scheduler`), with the same spawned seeds the
  scheduler would assign;
* **scheduled_fused** — the cooperative loop over shared pools with
  fused tick settlement: all fast-path-eligible requests of a tick
  settled in one platform pass per pool (one decide call per worker
  model),
  verified *bit-identical* to the isolated baseline before any timing
  is reported (the determinism contract of ``docs/SCHEDULER.md``);
* **scheduled_cached** — fused settlement plus the cross-job memo
  cache, reusing judgments across jobs (strictly cheaper, so not
  expected to be bit-identical); reports hit rate and judgments/money
  saved.

Entry points: the ``repro-experiments serve-sim`` CLI subcommand and
the ``benchmarks/test_bench_scheduler.py`` harness, both writing the
artifact atomically via
:func:`~repro.experiments.artifacts.write_json_atomic`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..platform.platform import CrowdPlatform
from ..platform.workforce import WorkerPool
from ..scheduler import CrowdScheduler
from ..jobs import CrowdMaxJob, CrowdTopKJob, JobPhaseConfig
from ..workers.threshold import ThresholdWorkerModel
from .base import TableResult
from .artifacts import write_json_atomic

__all__ = [
    "SCHEDULER_BENCH_SCHEMA",
    "SchedulerWorkload",
    "default_workload",
    "run_scheduler_bench",
    "scheduler_bench_table",
    "write_scheduler_bench_json",
]

#: Schema tag stamped into every BENCH_scheduler.json payload.
SCHEDULER_BENCH_SCHEMA = "repro.bench_scheduler/v3"

#: Spawn-key salt separating catalog generation from job seeding, so a
#: workload's instances never correlate with its scheduler streams.
_CATALOG_STREAM = 0xCA7A


class SchedulerWorkload:
    """A reproducible multi-job workload over a few shared catalogs.

    ``catalogs`` distinct planted instances are generated once (from
    ``seed``), and ``n_jobs`` jobs cycle over them — every fourth job a
    TOP-3 query, the rest MAX — so repeated-catalog traffic exercises
    the cross-job cache exactly as the CrowdDB scenario would.
    ``pools()`` and ``jobs()`` build *fresh* objects per call, so the
    isolated / cache-off / cache-on arms never share mutable state.
    """

    def __init__(
        self,
        seed: int = 2015,
        n_jobs: int = 8,
        n: int = 150,
        u_n: int = 5,
        catalogs: int = 2,
    ):
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        if catalogs < 1:
            raise ValueError("catalogs must be at least 1")
        from ..core.generators import planted_instance

        self.seed = seed
        self.n_jobs = n_jobs
        self.n = n
        self.u_n = u_n
        self.catalogs = catalogs
        rng = np.random.default_rng(np.random.SeedSequence([seed, _CATALOG_STREAM]))
        self.instances = [
            planted_instance(
                n=n, u_n=u_n, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng
            )
            for _ in range(catalogs)
        ]

    def pools(self) -> dict[str, WorkerPool]:
        """Fresh shared pools: a cheap crowd and a small expert bench."""
        return {
            "crowd": WorkerPool.homogeneous(
                "crowd", ThresholdWorkerModel(delta=1.0), size=20, cost_per_judgment=1.0
            ),
            "experts": WorkerPool.homogeneous(
                "experts",
                ThresholdWorkerModel(delta=0.25, is_expert=True),
                size=3,
                cost_per_judgment=20.0,
            ),
        }

    def jobs(self) -> list[CrowdMaxJob]:
        """Fresh job objects, cycling catalogs; every 4th is TOP-3."""
        out: list[CrowdMaxJob] = []
        for k in range(self.n_jobs):
            instance = self.instances[k % self.catalogs]
            phase1 = JobPhaseConfig(pool="crowd")
            phase2 = JobPhaseConfig(pool="experts")
            if k % 4 == 3:
                out.append(
                    CrowdTopKJob(instance, u_n=self.u_n, k=3, phase1=phase1, phase2=phase2)
                )
            else:
                out.append(
                    CrowdMaxJob(instance, u_n=self.u_n, phase1=phase1, phase2=phase2)
                )
        return out


def default_workload(seed: int = 2015, n_jobs: int = 8) -> SchedulerWorkload:
    """The workload the CLI and CI smoke run (8 jobs, 2 catalogs)."""
    return SchedulerWorkload(seed=seed, n_jobs=n_jobs)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _job_fingerprints(per_job: dict[int, tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    return [per_job[index] for index in sorted(per_job)]


def _run_isolated(workload: SchedulerWorkload) -> dict[int, tuple[Any, ...]]:
    """The baseline: each job alone, seeded as the scheduler would.

    Replays the scheduler's admission-order spawn discipline (one
    root child per job, split into algorithm + platform streams), so
    cache-off scheduling must reproduce these exact results.
    """
    root = np.random.SeedSequence(workload.seed)
    per_job: dict[int, tuple[Any, ...]] = {}
    for index, job in enumerate(workload.jobs()):
        job_seed, platform_seed = root.spawn(1)[0].spawn(2)
        platform = CrowdPlatform(
            workload.pools(), rng=np.random.default_rng(platform_seed)
        )
        result = job.execute(platform, np.random.default_rng(job_seed))
        per_job[index] = (
            tuple(result.answer),
            round(platform.ledger.total_cost, 9),
            platform.ledger.operations(),
        )
    return per_job


def _run_scheduled(
    workload: SchedulerWorkload,
    cache: bool,
    quantum: int | None,
) -> tuple[dict[int, tuple[Any, ...]], CrowdScheduler]:
    scheduler = CrowdScheduler(
        workload.pools(),
        root_seed=workload.seed,
        cache=cache,
        quantum=quantum,
    )
    for job in workload.jobs():
        scheduler.submit(job)
    outcomes = scheduler.run()
    per_job: dict[int, tuple[Any, ...]] = {}
    for outcome in outcomes:
        assert outcome.result is not None, outcome.error
        platform = outcome.ticket.platform
        assert platform is not None
        per_job[outcome.ticket.index] = (
            tuple(outcome.result.answer),
            round(platform.ledger.total_cost, 9),
            platform.ledger.operations(),
        )
    return per_job, scheduler


def run_scheduler_bench(
    seed: int = 2015,
    n_jobs: int = 8,
    quantum: int | None = None,
    workload: SchedulerWorkload | None = None,
) -> dict[str, Any]:
    """Run all three arms and return the BENCH_scheduler payload.

    The default ``quantum=None`` admits every parked request each tick
    — the regime where fusion has material to work with; a small
    quantum throttles admission to one request per pool per tick and
    degrades the fused arm to serial behaviour.
    """
    if workload is None:
        workload = default_workload(seed=seed, n_jobs=n_jobs)

    isolated_s, isolated = _timed(lambda: _run_isolated(workload))
    fused_s, (fused, _) = _timed(
        lambda: _run_scheduled(workload, cache=False, quantum=quantum)
    )
    cached_s, (cached, cached_scheduler) = _timed(
        lambda: _run_scheduled(workload, cache=True, quantum=quantum)
    )

    fused_identical = _job_fingerprints(isolated) == _job_fingerprints(fused)
    judgments_isolated = sum(ops for _, _, ops in isolated.values())
    judgments_cached = sum(ops for _, _, ops in cached.values())
    money_isolated = sum(cost for _, cost, _ in isolated.values())
    money_cached = sum(cost for _, cost, _ in cached.values())
    memo = cached_scheduler.cache
    assert memo is not None

    # Provenance stamp on the artifact; comparisons read the measured
    # fields, never this, so the payload stays seed-comparable.
    generated_unix = round(time.time(), 3)  # repro-lint: disable=DET002 -- provenance stamp only
    n_settled = len(cached)

    def _rate(wall_s: float) -> float | None:
        return round(n_settled / wall_s, 3) if wall_s > 0 else None

    return {
        "schema": SCHEDULER_BENCH_SCHEMA,
        "seed": workload.seed,
        "generated_unix": generated_unix,
        "workload": {
            "n_jobs": workload.n_jobs,
            "n": workload.n,
            "u_n": workload.u_n,
            "catalogs": workload.catalogs,
            "quantum": quantum,
        },
        "isolated": {
            "wall_s": round(isolated_s, 6),
            "jobs_per_sec": _rate(isolated_s),
            "judgments": judgments_isolated,
            "money": round(money_isolated, 2),
        },
        "scheduled_fused": {
            "wall_s": round(fused_s, 6),
            "jobs_per_sec": _rate(fused_s),
            "identical_to_isolated": fused_identical,
            "speedup_vs_isolated": (
                round(isolated_s / fused_s, 3) if fused_s > 0 else None
            ),
        },
        "scheduled_cached": {
            "wall_s": round(cached_s, 6),
            "jobs_per_sec": _rate(cached_s),
            "judgments": judgments_cached,
            "money": round(money_cached, 2),
            "cache_hits": memo.hits,
            "cache_misses": memo.misses,
            "cache_hit_rate": round(memo.hit_rate, 4),
            "judgments_saved": judgments_isolated - judgments_cached,
            "money_saved": round(money_isolated - money_cached, 2),
        },
    }


def scheduler_bench_table(payload: dict[str, Any]) -> TableResult:
    """Render a BENCH_scheduler payload as the table the CLI prints."""
    workload = payload["workload"]
    table = TableResult(
        table_id="bench-scheduler",
        title=(
            f"scheduler throughput: {workload['n_jobs']} jobs over "
            f"{workload['catalogs']} catalogs (n={workload['n']})"
        ),
        headers=["arm", "wall (s)", "jobs/s", "judgments", "money", "notes"],
    )
    isolated = payload["isolated"]
    fused = payload["scheduled_fused"]
    cached = payload["scheduled_cached"]
    identity = (
        "bit-identical to isolated"
        if fused["identical_to_isolated"]
        else "NOT identical to isolated"
    )

    table.add_row(
        [
            "isolated",
            isolated["wall_s"],
            isolated["jobs_per_sec"],
            isolated["judgments"],
            isolated["money"],
            "one private platform per job",
        ]
    )
    table.add_row(
        [
            "scheduled (fused)",
            fused["wall_s"],
            fused["jobs_per_sec"],
            isolated["judgments"],
            isolated["money"],
            f"{fused['speedup_vs_isolated']}x vs isolated; {identity}",
        ]
    )
    table.add_row(
        [
            "scheduled (fused+cache)",
            cached["wall_s"],
            cached["jobs_per_sec"],
            cached["judgments"],
            cached["money"],
            (
                f"hit rate {cached['cache_hit_rate']:.1%}, saved "
                f"{cached['judgments_saved']} judgments / "
                f"{cached['money_saved']} money"
            ),
        ]
    )
    table.notes.append(
        "cache-off fused scheduling is verified bit-identical to "
        "isolated execution before timings are reported; see "
        "docs/SCHEDULER.md"
    )
    return table


def write_scheduler_bench_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Persist the artifact atomically (safe under concurrent shards)."""
    return write_json_atomic(path, payload)
