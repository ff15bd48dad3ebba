"""``shared_pools``: a host answering many queries over shared pools, with durable state.

One round is two passes over a fresh state directory inside the
checkout:

* the *cold* pass: ``N_JOBS`` jobs over ``CATALOGS`` repeated catalogs
  (every fourth a TOP-3 query) in one ``CrowdScheduler`` run with fused
  settlement, the cross-job cache and a journaling, cache-persisting
  ``DurabilityPolicy``;
* the *restart* pass: a second scheduler on the same directory recovers
  the journal and replays every batch, as after a crash.

The directory is removed at the end of each round, so every round starts
cold.  Throughput counts the cold pass's jobs against the whole round
(cold pass, restart pass, clean-up), so a slower recovery shows.
"""

from __future__ import annotations

import os
import shutil
import statistics
from pathlib import Path
from typing import Any

import numpy as np

from harness import ROOT, Phase, perf
from repro import api
from repro.core.bounds import (
    expert_comparisons_lower_bound_deterministic,
    naive_comparisons_lower_bound,
    survivor_upper_bound,
)

N_JOBS = 64
CATALOGS = 8
N = 200
U_N, U_E = 10, 2
TOP_K = 3
TOPK_EVERY = 4
COST_N, COST_E = 1.0, 20.0

#: Where rounds keep their state directories (one per process and seed).
STATE_ROOT = ROOT / ".perfbench_state"


class _SettleClock:
    """Job mixin stamping the moment the job's step generator returns."""

    settled_at = 0.0

    def steps(self) -> Any:
        result = yield from super().steps()  # type: ignore[misc]
        self.settled_at = perf()
        return result


class _MaxJob(_SettleClock, api.CrowdMaxJob):
    pass


class _TopKJob(_SettleClock, api.CrowdTopKJob):
    pass


def _pools() -> dict[str, api.WorkerPool]:
    return {
        "crowd": api.WorkerPool.homogeneous(
            "crowd", api.ThresholdWorkerModel(delta=1.0), size=20, cost_per_judgment=COST_N
        ),
        "experts": api.WorkerPool.homogeneous(
            "experts",
            api.ThresholdWorkerModel(delta=0.25, is_expert=True),
            size=3,
            cost_per_judgment=COST_E,
        ),
    }


def _signature(outcome: Any) -> tuple[Any, ...]:
    """Everything a replay must reproduce bit-for-bit."""
    result = outcome.result
    ledger = outcome.ticket.platform.ledger
    return (
        outcome.ticket.index,
        outcome.status,
        None if result is None else tuple(result.to_dict().items()),
        tuple((label, e.operations, e.money) for label, e in sorted(ledger.entries.items())),
    )


class SharedPools:
    def __init__(self, seed: int):
        self.seed = seed
        self.instances: list[api.ProblemInstance] = []
        self.state_dir = STATE_ROOT / f"{os.getpid()}-{seed}"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0xCA7A])
        self.instances = [
            api.planted_instance(n=N, u_n=U_N, u_e=U_E, delta_n=1.0, delta_e=0.25, rng=rng)
            for _ in range(CATALOGS)
        ]
        self._round(Phase(0.0, [], [], 0, 0), [])

    def timed(self, seconds: float, recorder: object) -> Phase:
        phase = Phase(0.0, [], [], 0, 0)
        restarts: list[float] = []
        start = perf()
        while True:
            self._round(phase, restarts)
            if perf() - start >= seconds:
                break
        phase.wall_s = perf() - start
        phase.counts["restart_pass_s"] = statistics.median(restarts)
        phase.extra["recovery_s"] = (phase.counts["restart_pass_s"], "s")
        return phase

    def teardown(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def close(self) -> None:
        self.teardown()
        try:
            STATE_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _jobs(self) -> list[api.CrowdMaxJob]:
        phase1 = api.JobPhaseConfig(pool="crowd")
        phase2 = api.JobPhaseConfig(pool="experts")
        jobs: list[api.CrowdMaxJob] = []
        for k in range(N_JOBS):
            instance = self.instances[k % CATALOGS]
            if k % TOPK_EVERY == TOPK_EVERY - 1:
                jobs.append(_TopKJob(instance, u_n=U_N, k=TOP_K, phase1=phase1, phase2=phase2))
            else:
                jobs.append(_MaxJob(instance, u_n=U_N, phase1=phase1, phase2=phase2))
        return jobs

    def _pass(self, state_dir: Path) -> tuple[list[Any], Any, list[api.CrowdMaxJob], float, float]:
        jobs = self._jobs()
        start = perf()
        scheduler = api.CrowdScheduler(
            _pools(),
            root_seed=self.seed,
            quantum=None,
            durability=api.DurabilityPolicy(state_dir),
        )
        for job in jobs:
            scheduler.submit(job)
        outcomes = scheduler.run()
        return outcomes, scheduler, jobs, start, perf()

    def _round(self, phase: Phase, restarts: list[float]) -> None:
        state_dir = self.state_dir
        if state_dir.exists():
            raise RuntimeError(f"state directory {state_dir} is not fresh")
        cold, cold_sched, jobs, start, _ = self._pass(state_dir)
        journal_bytes = os.path.getsize(state_dir / "journal.jsonl")
        store_bytes = sum(
            p.stat().st_size for p in state_dir.iterdir() if p.name.startswith("comparisons")
        )
        warm, warm_sched, _, restart_start, restart_end = self._pass(state_dir)
        shutil.rmtree(state_dir)
        restarts.append(restart_end - restart_start)

        bought = sum(o.ticket.platform.ledger.operations() for o in cold)
        rebought = sum(o.ticket.platform.ledger.operations() for o in warm)
        rebought -= warm_sched.replayed_operations
        if rebought:
            phase.problems.append(f"restart pass re-bought {rebought} judgments")
        replayed = {_signature(o)[0]: _signature(o) for o in warm}
        for outcome in cold:
            phase.attempted += 1
            job = jobs[outcome.ticket.index]
            if outcome.status != "ok" or replayed.get(outcome.ticket.index) != _signature(outcome):
                phase.failed += 1
                phase.problems.append(
                    f"job {outcome.ticket.index}: status {outcome.status}, "
                    f"restart {'differs' if outcome.status == 'ok' else 'n/a'}"
                )
                continue
            phase.latencies_s.append(job.settled_at - start)
            phase.money.append(outcome.cost)
            result = outcome.result
            u = U_N if job.kind == "max" else U_N + TOP_K - 1
            phase.add("jobs", 1)
            phase.add("naive", result.naive_comparisons)
            phase.add("expert", result.expert_comparisons)
            phase.add("naive_lb", naive_comparisons_lower_bound(N, u))
            phase.add("survivors", len(result.survivors))
            phase.add("survivor_bound", survivor_upper_bound(u))
            if job.kind == "max":
                phase.add("expert_in_lb", result.expert_comparisons)
                phase.add("expert_lb", expert_comparisons_lower_bound_deterministic(U_N))
        phase.add("judgments_bought", bought)
        phase.add("journal_bytes", journal_bytes)
        phase.add("store_bytes", store_bytes)
        phase.add("replayed_batches", warm_sched.replayed_batches)
        phase.add("restarts", 1)
