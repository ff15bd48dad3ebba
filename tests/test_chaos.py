"""Chaos suite: randomized fault plans against the full job stack.

The acceptance invariant of the resilience layer (docs/RELIABILITY.md):
for *any* fault plan, retry policy, and budget cap, a crowd job either
returns a :class:`CrowdJobResult` or raises one of the typed errors
(:class:`BudgetExceededError`, :class:`DegradedBatchError`) — the
generic stall ``RuntimeError`` of the seed platform is unreachable,
partial work is preserved, and the ledger never stands above its cap.

The suite is seeded through the ``CHAOS_SEED`` environment variable so
CI can sweep several seeds (see the ``chaos`` job in ci.yml); with
hypothesis derandomized, a given seed is exactly reproducible.
"""

import os

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - chaos CI installs hypothesis
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.platform.accounting import CostLedger
from repro.platform.errors import CostCapError, DegradedBatchError
from repro.platform.faults import FaultPlan, RetryPolicy
from repro.platform.gold import GoldPolicy
from repro.platform.job import ComparisonTask
from repro.platform.platform import CrowdPlatform
from repro.platform.workforce import WorkerPool
from repro.jobs import (
    BudgetExceededError,
    CrowdJobResult,
    CrowdMaxJob,
    JobPhaseConfig,
    ResiliencePolicy,
)
from repro.workers.threshold import ThresholdWorkerModel

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

CHAOS_SETTINGS = settings(
    max_examples=int(os.environ.get("CHAOS_EXAMPLES", "15")),
    deadline=None,
    derandomize=True,
    database=None,
)

_CAP_TOL = 1e-9


def chaos_rng(case: int) -> np.random.Generator:
    return np.random.default_rng([CHAOS_SEED, case])


def sample_retry(rng: np.random.Generator, allow_raise: bool = True) -> RetryPolicy:
    """A random-but-valid retry policy."""
    choices = ["settle", "raise"] if allow_raise else ["settle"]
    return RetryPolicy(
        max_attempts=None if rng.random() < 0.5 else int(rng.integers(1, 6)),
        deadline_steps=None if rng.random() < 0.5 else int(rng.integers(5, 80)),
        backoff_base=float(rng.choice([0.0, 1.0, 2.0])),
        backoff_factor=float(rng.choice([1.0, 2.0])),
        backoff_cap=8.0,
        on_degraded=str(rng.choice(choices)),
    )


def build_platform(rng, with_gold, hard_cap, faults, retry):
    naive = WorkerPool.homogeneous(
        "naive",
        ThresholdWorkerModel(delta=2.0),
        size=6,
        availability=0.8,
    )
    expert = WorkerPool.homogeneous(
        "expert",
        ThresholdWorkerModel(delta=0.5),
        size=4,
        cost_per_judgment=5.0,
        availability=0.9,
        id_offset=1000,
    )
    gold = None
    if with_gold:
        gold = GoldPolicy.from_values(
            np.linspace(0.0, 50.0, 12), rng, n_pairs=6, min_gold_answers=3
        )
    return CrowdPlatform(
        {"naive": naive, "expert": expert},
        rng,
        ledger=CostLedger(hard_cap=hard_cap),
        gold=gold,
        faults=faults,
        retry=retry,
    )


class TestBatchChaosInvariant:
    """submit_batch under arbitrary faults: settle or typed error."""

    @CHAOS_SETTINGS
    @given(case=st.integers(min_value=0, max_value=10**6))
    def test_batches_settle_or_raise_typed(self, case):
        rng = chaos_rng(case)
        faults = FaultPlan.sample(rng)
        retry = sample_retry(rng)
        hard_cap = None if rng.random() < 0.5 else float(rng.uniform(3.0, 60.0))
        platform = build_platform(
            rng, with_gold=bool(rng.random() < 0.5), hard_cap=hard_cap,
            faults=faults, retry=retry,
        )
        tasks = [
            ComparisonTask(
                task_id=k,
                first=2 * k,
                second=2 * k + 1,
                value_first=float(rng.uniform(0.0, 50.0)),
                value_second=float(rng.uniform(0.0, 50.0)),
                required_judgments=int(rng.integers(1, 4)),
            )
            for k in range(int(rng.integers(1, 5)))
        ]
        try:
            report = platform.submit_batch("naive", tasks)
        except DegradedBatchError as exc:
            assert retry.on_degraded == "raise"
            report = exc.report  # fully settled: check it like a return
        except CostCapError:
            assert hard_cap is not None
            report = None
        if report is not None:
            assert len(report.answers) == len(tasks)
            assert len(report.task_reports) == len(tasks)
            for task, task_report in zip(tasks, report.task_reports):
                assert task_report.judgments_kept <= task.required_judgments
                if task_report.status == "ok":
                    assert task_report.judgments_kept == task.required_judgments
                else:
                    assert task_report.reason in (
                        "deadline",
                        "retries_exhausted",
                        "pool_exhausted",
                        "stalled",
                    )
        if hard_cap is not None:
            assert platform.ledger.total_cost <= hard_cap + _CAP_TOL


class TestJobChaosInvariant:
    """CrowdMaxJob.execute under arbitrary faults: result or typed error."""

    @CHAOS_SETTINGS
    @given(case=st.integers(min_value=0, max_value=10**6))
    def test_jobs_terminate_with_result_or_typed_error(self, case):
        rng = chaos_rng(case)
        faults = FaultPlan.sample(rng, max_rate=0.3)
        retry = sample_retry(rng, allow_raise=False)
        hard_cap = None if rng.random() < 0.5 else float(rng.uniform(20.0, 400.0))
        platform = build_platform(
            rng, with_gold=bool(rng.random() < 0.3), hard_cap=None,
            faults=faults, retry=retry,
        )
        values = rng.permutation(np.linspace(0.0, 40.0, 24))
        resilient = bool(rng.random() < 0.5)
        job = CrowdMaxJob(
            values,
            u_n=3,
            phase1=JobPhaseConfig("naive"),
            phase2=JobPhaseConfig("expert", judgments_per_comparison=2),
            hard_cap=hard_cap,
            resilience=ResiliencePolicy() if resilient else None,
        )
        try:
            result = job.execute(platform, rng)
        except BudgetExceededError as exc:
            assert hard_cap is not None
            # partial work is preserved and the bill respects the cap
            assert isinstance(exc.partial, CrowdJobResult)
            assert exc.partial.degraded and exc.partial.degraded_reason == "budget"
            assert exc.partial.answer == []
            assert exc.spent <= exc.cap + _CAP_TOL
            assert exc.partial.total_cost <= hard_cap + _CAP_TOL
        else:
            assert isinstance(result, CrowdJobResult)
            assert len(result.answer) == 1
            assert 0 <= result.winner < len(values)
            if hard_cap is not None:
                assert result.total_cost <= hard_cap + _CAP_TOL
            if result.degraded:
                assert result.degraded_reason == "expert_pool_exhausted"
        # the job-scoped cap is uninstalled afterwards either way
        assert platform.ledger.hard_cap is None

    @CHAOS_SETTINGS
    @given(case=st.integers(min_value=0, max_value=10**6))
    def test_strict_platform_policy_surfaces_degraded_batches(self, case):
        # With on_degraded="raise" as the *platform* default, a plain
        # CrowdMaxJob may additionally raise DegradedBatchError — but
        # still never the generic stall RuntimeError.
        rng = chaos_rng(case)
        faults = FaultPlan.sample(rng, max_rate=0.3)
        retry = sample_retry(rng)
        platform = build_platform(
            rng, with_gold=False, hard_cap=None, faults=faults, retry=retry
        )
        values = rng.permutation(np.linspace(0.0, 40.0, 16))
        job = CrowdMaxJob(
            values,
            u_n=2,
            phase1=JobPhaseConfig("naive"),
            phase2=JobPhaseConfig("expert"),
        )
        try:
            result = job.execute(platform, rng)
        except DegradedBatchError as exc:
            assert retry.on_degraded == "raise"
            assert exc.report.task_reports
        else:
            assert len(result.answer) == 1
