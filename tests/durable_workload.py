"""The durable scheduler workload the durability suites and the SIGKILL harness run.

Not a test module (no ``test_`` prefix, so pytest does not collect it):
``tests/test_scheduler_durability.py`` imports the builders, and
``tests/test_durability_recovery.py`` runs the file as a script, in a
separate process it can SIGKILL::

    PYTHONPATH=src python tests/durable_workload.py --state-dir DIR \\
        [--jobs N] [--crash-after N]

The script runs the standard workload (seed 2015, ``N`` jobs over two
catalogs, unlimited quantum) with durable state in ``DIR``.  On a fresh
directory this is simply a durable run; pointed at the state of a
killed run it recovers the journal (truncating any torn tail), replays
every settled batch without touching the platform, and finishes the
rest live.  Either way the settle outcomes land in
``DIR/outcomes.json`` (written atomically) so the harness can compare
interrupted-then-resumed against uninterrupted runs bit-for-bit.
``--crash-after N`` arms the SIGKILL-after-N-journal-appends hook.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.durability import DurabilityPolicy
from repro.experiments.artifacts import write_json_atomic
from repro.jobs import CrowdMaxJob, CrowdTopKJob, JobPhaseConfig
from repro.platform.workforce import WorkerPool
from repro.scheduler import CrowdScheduler, DurableComparisonCache
from repro.scheduler.engine import JobOutcome
from repro.telemetry import Tracer
from repro.workers.threshold import ThresholdWorkerModel

#: Schema tag of the ``outcomes.json`` parity artifact the script writes.
RESUME_SCHEMA = "repro.resume/v1"

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
        from repro.core.generators import planted_instance

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


def run_durable_workload(
    workload: SchedulerWorkload,
    state_dir: str | Path,
    quantum: int | None = 64,
    crash_after: int | None = None,
    tracer: Tracer | None = None,
) -> tuple[list[JobOutcome], CrowdScheduler, float]:
    """Run (or resume) the workload with durable state in ``state_dir``.

    Builds a journaling, cache-persisting scheduler, submits the
    workload, and runs it; if the directory's journal already records
    this workload, the run resumes from it.  Returns the outcomes, the
    scheduler (for replay/cache statistics), and the wall-clock
    seconds.  ``crash_after`` arms the journal's SIGKILL test hook;
    ``tracer`` traces the run.
    """
    policy = DurabilityPolicy(state_dir, crash_after_appends=crash_after)
    scheduler = CrowdScheduler(
        workload.pools(),
        root_seed=workload.seed,
        quantum=quantum,
        tracer=tracer,
        durability=policy,
    )
    for job in workload.jobs():
        scheduler.submit(job)
    start = time.perf_counter()
    outcomes = scheduler.run()
    return outcomes, scheduler, time.perf_counter() - start


def _ledger_state(outcome: JobOutcome) -> dict[str, list[float]]:
    platform = outcome.ticket.platform
    assert platform is not None
    return {
        label: [entry.operations, entry.money]
        for label, entry in sorted(platform.ledger.entries.items())
    }


def outcomes_payload(
    outcomes: list[JobOutcome], scheduler: CrowdScheduler, wall_s: float
) -> dict[str, Any]:
    """The ``outcomes.json`` parity artifact for one (resumed) run.

    The ``jobs`` section carries everything the crash-recovery harness
    compares bit-for-bit — answers, costs (unrounded floats), ledger
    entries, and step counters — while ``run`` carries replay/cache
    statistics that legitimately differ between an interrupted and an
    uninterrupted run (wall clock, batches replayed).
    """
    jobs: list[dict[str, Any]] = []
    for outcome in outcomes:
        result = outcome.result
        jobs.append(
            {
                "job_index": outcome.ticket.index,
                "settle_index": outcome.settle_index,
                "status": outcome.status,
                "answer": list(result.answer) if result is not None else None,
                "total_cost": result.total_cost if result is not None else None,
                "naive_comparisons": (
                    result.naive_comparisons if result is not None else None
                ),
                "expert_comparisons": (
                    result.expert_comparisons if result is not None else None
                ),
                "logical_steps": result.logical_steps if result is not None else None,
                "physical_steps": result.physical_steps if result is not None else None,
                "ledger": _ledger_state(outcome),
            }
        )
    cache = scheduler.cache
    return {
        "schema": RESUME_SCHEMA,
        "jobs": jobs,
        "run": {
            "wall_s": round(wall_s, 6),
            "ticks": scheduler.ticks,
            "replayed_batches": scheduler.replayed_batches,
            "replayed_operations": scheduler.replayed_operations,
            "cache_hits": cache.hits if cache is not None else None,
            "cache_misses": cache.misses if cache is not None else None,
            "warm_entries": (
                cache.warm_entries
                if isinstance(cache, DurableComparisonCache)
                else None
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    """Run or resume the standard workload in ``--state-dir``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", type=Path, required=True)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--crash-after", type=int, default=None)
    args = parser.parse_args(argv)
    workload = SchedulerWorkload(n_jobs=args.jobs)
    outcomes, scheduler, wall_s = run_durable_workload(
        workload, args.state_dir, quantum=None, crash_after=args.crash_after
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


if __name__ == "__main__":
    raise SystemExit(main())
