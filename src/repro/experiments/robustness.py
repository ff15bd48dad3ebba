"""Robustness experiments: relaxing the paper's analysis assumptions.

Three sweeps probing assumptions the paper makes "for the sake of
presentation":

* **Residual-error sweep** — §4, Remark: "we assume that both residual
  errors eps_n and eps_e are equal to 0.  Our results can be extended
  to any value less than 1/2."  The sweep runs Algorithm 1 with
  ``eps_n = eps_e = eps`` over a grid of eps values and reports the
  returned rank and the survival rate of the true maximum: graceful
  degradation up to eps well below 1/2, collapse as eps approaches it.
* **Fatigue sweep** — workers degrade during the job
  (:mod:`repro.workers.drift`); with continuous gold probing the
  platform bans workers *mid-job* once fatigue pushes them under the
  bar, and the job still completes with the remaining workforce.
* **Fault sweep** — the paper assumes every requested judgment arrives;
  :func:`run_fault_sweep` injects task abandonment at growing rates
  (plus an optional base plan of stragglers/offline windows, e.g. from
  the CLI's ``--fault-plan``) and measures accuracy, cost, and the
  resilience counters as the retry layer absorbs the damage.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.generators import planted_instance
from ..core.maxfinder import ExpertAwareMaxFinder
from ..parallel import RunSpec, execute_runs, failure_notes, spawn_run_seeds
from ..platform.faults import FaultPlan, RetryPolicy
from ..platform.gold import GoldPolicy
from ..platform.job import ComparisonTask
from ..platform.platform import CrowdPlatform
from ..platform.workforce import WorkerPool
from ..jobs import CrowdMaxJob, JobPhaseConfig
from ..workers.aggregation import MajorityOfKModel
from ..workers.drift import FatigueWorkerModel
from ..workers.expert import WorkerClass, make_worker_classes
from ..workers.threshold import ThresholdWorkerModel
from .base import TableResult

__all__ = ["run_epsilon_robustness", "run_fatigue_experiment", "run_fault_sweep"]


def run_epsilon_robustness(
    rng: np.random.Generator,
    n: int = 500,
    u_n: int = 8,
    u_e: int = 3,
    epsilons: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45),
    trials: int = 5,
) -> TableResult:
    """Algorithm 1 accuracy as the residual error eps grows."""
    table = TableResult(
        table_id="robustness-eps",
        title=f"Algorithm 1 under residual error eps (n={n}, u_n={u_n})",
        headers=[
            "eps",
            "rank (avg)",
            "max survived",
            "rank w/ 5-vote majority (avg)",
            "max survived w/ majority",
        ],
    )
    for eps in epsilons:
        naive, expert = make_worker_classes(
            delta_n=1.0, delta_e=0.25, eps_n=eps, eps_e=eps
        )
        # Redundancy arm: each naive comparison is the majority of 5
        # independent judgments, amplifying 1 - eps back toward 1 above
        # the threshold (the mechanism behind the paper's "extends to
        # any value less than 1/2" — at 5x the phase-1 cost).
        amplified = WorkerClass(
            name="naive-x5",
            model=MajorityOfKModel(naive.model, k=5, is_expert=False),
            cost_per_comparison=5 * naive.cost_per_comparison,
        )
        plain_finder = ExpertAwareMaxFinder(naive=naive, expert=expert, u_n=u_n)
        amplified_finder = ExpertAwareMaxFinder(
            naive=amplified, expert=expert, u_n=u_n
        )
        ranks: list[int] = []
        amp_ranks: list[int] = []
        survived = 0
        amp_survived = 0
        for _ in range(trials):
            instance = planted_instance(
                n=n, u_n=u_n, u_e=u_e, delta_n=1.0, delta_e=0.25, rng=rng
            )
            result = plain_finder.run(instance, rng)
            ranks.append(instance.rank_of(result.winner))
            survived += int(instance.max_index in result.survivors)
            amp_result = amplified_finder.run(instance, rng)
            amp_ranks.append(instance.rank_of(amp_result.winner))
            amp_survived += int(instance.max_index in amp_result.survivors)
        table.add_row(
            [
                eps,
                float(np.mean(ranks)),
                f"{survived}/{trials}",
                float(np.mean(amp_ranks)),
                f"{amp_survived}/{trials}",
            ]
        )
    table.notes.append(
        "expected: the plain algorithm degrades as eps grows; majority "
        "amplification restores the eps ~ 0 behaviour (at 5x phase-1 "
        "cost) for any eps bounded away from 1/2 — the paper's claimed "
        "extension, made concrete"
    )
    return table


def run_fatigue_experiment(
    rng: np.random.Generator,
    n_items: int = 30,
    pool_size: int = 12,
    fatigue_rate: float = 0.02,
    judgments_per_task: int = 3,
    n_batches: int = 6,
) -> TableResult:
    """Mid-job bans of fatiguing workers under continuous gold probing."""
    base = ThresholdWorkerModel(delta=1.0)
    roster = [
        FatigueWorkerModel(base, fatigue_rate=fatigue_rate, max_extra_error=0.45)
        for _ in range(pool_size)
    ]
    pool = WorkerPool.from_models("naive", list(roster), cost_per_judgment=1.0)
    gold = GoldPolicy.from_values(
        rng.uniform(0.0, 300.0, size=30),
        rng,
        n_pairs=20,
        gold_fraction=0.25,
        min_gold_answers=4,
        ban_threshold=0.7,
        # easy gold: honest-but-rested workers pass comfortably
        min_relative_difference=0.5,
    )
    platform = CrowdPlatform({"naive": pool}, rng, gold=gold)
    values = rng.uniform(0.0, 300.0, size=n_items)

    table = TableResult(
        table_id="robustness-fatigue",
        title=(
            f"worker fatigue vs continuous gold probing "
            f"(pool={pool_size}, fatigue_rate={fatigue_rate:g})"
        ),
        headers=["batch", "active workers", "banned so far", "batch accuracy"],
    )
    for batch_idx in range(n_batches):
        pairs = [
            (int(a), int(b))
            for a, b in zip(
                rng.integers(0, n_items, size=25), rng.integers(0, n_items, size=25)
            )
            if a != b and values[a] != values[b]
        ]
        tasks = [
            ComparisonTask(
                task_id=k,
                first=a,
                second=b,
                value_first=float(values[a]),
                value_second=float(values[b]),
                required_judgments=judgments_per_task,
            )
            for k, (a, b) in enumerate(pairs)
        ]
        report = platform.submit_batch("naive", tasks)
        truth = [values[a] > values[b] for a, b in pairs]
        accuracy = float(np.mean([x == t for x, t in zip(report.answers, truth)]))
        banned = sum(1 for w in pool.workers if w.banned)
        table.add_row(
            [batch_idx + 1, len(pool.active_members), banned, accuracy]
        )
    table.notes.append(
        "expected: bans accumulate as fatigue sets in, keeping the kept "
        "judgments' accuracy from collapsing with the workers"
    )
    return table


def _fault_trial(
    rng: np.random.Generator,
    *,
    n: int,
    u_n: int,
    u_e: int,
    plan: FaultPlan,
    retry: RetryPolicy,
) -> dict[str, Any]:
    """One independent (abandon rate, trial) run of the two-phase job."""
    instance = planted_instance(
        n=n, u_n=u_n, u_e=u_e, delta_n=1.0, delta_e=0.25, rng=rng
    )
    pools = {
        "naive": WorkerPool.homogeneous(
            "naive", ThresholdWorkerModel(delta=1.0), size=12
        ),
        "expert": WorkerPool.homogeneous(
            "expert",
            ThresholdWorkerModel(delta=0.25, is_expert=True),
            size=4,
            cost_per_judgment=10.0,
            id_offset=1000,
        ),
    }
    platform = CrowdPlatform(
        pools, rng, faults=plan if plan.active else None, retry=retry
    )
    job = CrowdMaxJob(
        instance,
        u_n=u_n,
        phase1=JobPhaseConfig("naive"),
        phase2=JobPhaseConfig("expert"),
    )
    result = job.execute(platform, rng)
    return {
        "rank": instance.rank_of(result.winner),
        "cost": result.total_cost,
        "steps": result.physical_steps,
        "faults": platform.faults_injected_total,
        "retries": platform.retries_total,
        "degraded": platform.tasks_degraded_total,
    }


def run_fault_sweep(
    rng: np.random.Generator,
    n: int = 120,
    u_n: int = 4,
    u_e: int = 2,
    abandon_rates: tuple[float, ...] = (0.0, 0.1, 0.25, 0.4),
    trials: int = 3,
    base_plan: FaultPlan | None = None,
    jobs: int = 1,
) -> TableResult:
    """Accuracy and cost of the two-phase job vs the abandonment rate.

    Each trial runs a full :class:`~repro.jobs.CrowdMaxJob` through a
    platform whose :class:`~repro.platform.faults.FaultPlan` abandons
    the given fraction of assignments (on top of ``base_plan``'s other
    fault rates, if provided — the CLI's ``--fault-plan``), with a
    bounded-retry :class:`~repro.platform.faults.RetryPolicy`.  Degraded
    tasks and injected faults are read off the platform's aggregate
    counters.

    The (rate, trial) grid executes on ``jobs`` processes with per-run
    spawned seeds — bit-identical rows for any ``jobs``; isolated run
    failures become table notes instead of killing the sweep.
    """
    base = base_plan if base_plan is not None else FaultPlan.none()
    retry = RetryPolicy(max_attempts=8, backoff_base=1.0, backoff_factor=2.0)
    table = TableResult(
        table_id="robustness-faults",
        title=(
            f"two-phase job under task abandonment "
            f"(n={n}, u_n={u_n}, base plan: {base.describe()})"
        ),
        headers=[
            "abandon rate",
            "rank (avg)",
            "cost (avg)",
            "physical steps (avg)",
            "faults injected (avg)",
            "retries (avg)",
            "tasks degraded (avg)",
        ],
    )
    grid: list[tuple] = []
    for rate in abandon_rates:
        plan = FaultPlan(
            abandon_rate=rate,
            straggle_rate=base.straggle_rate,
            straggle_steps=base.straggle_steps,
            offline_rate=base.offline_rate,
            offline_steps=base.offline_steps,
            malformed_rate=base.malformed_rate,
        )
        for trial in range(trials):
            grid.append((rate, plan, trial))
    seeds = spawn_run_seeds(rng, len(grid))
    specs = [
        RunSpec(
            index=i,
            fn=_fault_trial,
            seed=seed,
            params={"n": n, "u_n": u_n, "u_e": u_e, "plan": plan, "retry": retry},
            label=f"faults[rate={rate:g},trial={trial}]",
        )
        for i, ((rate, plan, trial), seed) in enumerate(zip(grid, seeds))
    ]
    results = execute_runs(specs, jobs=jobs)

    failures = [run for run in results if not run.ok]
    by_rate: dict[float, list[dict]] = {rate: [] for rate in abandon_rates}
    for (rate, _plan, _trial), run in zip(grid, results):
        if run.ok:
            by_rate[rate].append(run.value)
    for rate in abandon_rates:
        rows = by_rate[rate]
        if rows:
            table.add_row(
                [
                    rate,
                    float(np.mean([r["rank"] for r in rows])),
                    float(np.mean([r["cost"] for r in rows])),
                    float(np.mean([r["steps"] for r in rows])),
                    float(np.mean([r["faults"] for r in rows])),
                    float(np.mean([r["retries"] for r in rows])),
                    float(np.mean([r["degraded"] for r in rows])),
                ]
            )
        else:
            table.add_row([rate] + [float("nan")] * 6)
    table.notes.extend(failure_notes(failures))
    table.notes.append(
        "expected: cost and physical steps grow with the abandonment "
        "rate while the retry layer holds the returned rank steady; "
        "degraded tasks stay rare until the pool is badly starved"
    )
    return table
