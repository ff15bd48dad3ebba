"""Tests for repro.jobs (the CrowdDB-style job API)."""

import numpy as np
import pytest

from repro.core.generators import planted_instance
from repro.platform.platform import CrowdPlatform
from repro.platform.workforce import WorkerPool
from repro.jobs import (
    BudgetExceededError,
    CrowdJobResult,
    CrowdMaxJob,
    CrowdTopKJob,
    JobPhaseConfig,
    ResiliencePolicy,
)
from repro.workers.base import PerfectWorkerModel
from repro.workers.threshold import ThresholdWorkerModel


@pytest.fixture
def platform(rng):
    naive_pool = WorkerPool.homogeneous(
        "crowd", ThresholdWorkerModel(delta=1.0), size=20, cost_per_judgment=1.0
    )
    expert_pool = WorkerPool.homogeneous(
        "experts",
        ThresholdWorkerModel(delta=0.25, is_expert=True),
        size=3,
        cost_per_judgment=20.0,
    )
    return CrowdPlatform({"crowd": naive_pool, "experts": expert_pool}, rng)


@pytest.fixture
def instance(rng):
    return planted_instance(n=200, u_n=5, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng)


def max_job(instance, **kwargs):
    return CrowdMaxJob(
        instance,
        u_n=5,
        phase1=JobPhaseConfig(pool="crowd"),
        phase2=JobPhaseConfig(pool="experts"),
        **kwargs,
    )


class TestCrowdMaxJob:
    def test_end_to_end(self, rng, platform, instance):
        result = max_job(instance).execute(platform, rng)
        assert isinstance(result, CrowdJobResult)
        assert instance.distance_to_max(result.winner) <= 2 * 0.25 + 1e-9
        assert result.total_cost > 0
        assert result.logical_steps > 0
        assert result.physical_steps > 0

    def test_bill_matches_the_ledger(self, rng, platform, instance):
        result = max_job(instance).execute(platform, rng)
        assert platform.ledger.total_cost == pytest.approx(result.total_cost)
        # per-pool attribution exists
        assert platform.ledger.operations("crowd") == result.naive_comparisons
        assert platform.ledger.operations("experts") == result.expert_comparisons

    def test_worst_case_cost_formula(self, platform, instance):
        job = max_job(instance)
        expected = 4 * 200 * 5 * 1.0 + int(np.ceil(2 * 9**1.5)) * 20.0
        assert job.worst_case_cost(platform) == pytest.approx(expected)

    def test_budget_cap_blocks_overruns_up_front(self, rng, platform, instance):
        job = max_job(instance, budget_cap=100.0)
        with pytest.raises(ValueError, match="budget cap"):
            job.execute(platform, rng)
        # nothing was spent
        assert platform.ledger.total_cost == 0.0

    def test_generous_cap_allows_execution(self, rng, platform, instance):
        job = max_job(instance, budget_cap=1e7)
        result = job.execute(platform, rng)
        assert result.total_cost <= 1e7

    def test_redundancy_multiplies_cost(self, rng, platform, instance):
        single = max_job(instance).execute(platform, rng)
        rng2 = np.random.default_rng(999)
        platform2_pools = {
            "crowd": WorkerPool.homogeneous(
                "crowd", ThresholdWorkerModel(delta=1.0), size=20
            ),
            "experts": WorkerPool.homogeneous(
                "experts",
                ThresholdWorkerModel(delta=0.25, is_expert=True),
                size=5,
                cost_per_judgment=20.0,
            ),
        }
        platform2 = CrowdPlatform(platform2_pools, rng2)
        redundant = CrowdMaxJob(
            instance,
            u_n=5,
            phase1=JobPhaseConfig(pool="crowd", judgments_per_comparison=3),
            phase2=JobPhaseConfig(pool="experts"),
        ).execute(platform2, rng2)
        # ~3x the phase-1 judgments for a comparable comparison count
        assert (
            platform2.ledger.operations("crowd")
            >= 2 * redundant.naive_comparisons
        )
        del single

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            CrowdMaxJob(
                instance,
                u_n=0,
                phase1=JobPhaseConfig(pool="a"),
                phase2=JobPhaseConfig(pool="b"),
            )
        with pytest.raises(ValueError):
            JobPhaseConfig(pool="a", judgments_per_comparison=0)


class TestMidFlightBudget:
    def test_hard_cap_stops_the_job_with_partial_result(self, rng, platform, instance):
        job = max_job(instance, hard_cap=50.0)
        with pytest.raises(BudgetExceededError) as excinfo:
            job.execute(platform, rng)
        err = excinfo.value
        assert isinstance(err.partial, CrowdJobResult)
        assert err.partial.answer == []  # no winner was settled
        assert err.partial.degraded
        assert err.partial.degraded_reason == "budget"
        assert err.spent <= err.cap + 1e-9
        # the bill never exceeds the cap, and the paid work is kept
        assert platform.ledger.total_cost <= 50.0 + 1e-9
        assert err.partial.total_cost == pytest.approx(platform.ledger.total_cost)
        assert platform.judgment_log
        # the job-scoped cap is uninstalled afterwards
        assert platform.ledger.hard_cap is None

    def test_generous_hard_cap_is_invisible(self, rng, platform, instance):
        result = max_job(instance, hard_cap=1e7).execute(platform, rng)
        assert isinstance(result, CrowdJobResult)
        assert not result.degraded
        assert platform.ledger.hard_cap is None

    def test_hard_cap_tightens_but_never_loosens_an_existing_cap(
        self, rng, platform, instance
    ):
        platform.ledger.hard_cap = 40.0
        job = max_job(instance, hard_cap=1e7)
        with pytest.raises(BudgetExceededError):
            job.execute(platform, rng)
        assert platform.ledger.total_cost <= 40.0 + 1e-9
        assert platform.ledger.hard_cap == 40.0  # restored, not overwritten

    def test_topk_honours_the_hard_cap(self, rng, platform, instance):
        job = CrowdTopKJob(
            instance,
            u_n=5,
            k=3,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
            hard_cap=50.0,
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            job.execute(platform, rng)
        assert excinfo.value.partial.degraded_reason == "budget"
        assert platform.ledger.total_cost <= 50.0 + 1e-9

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            max_job(instance, hard_cap=0.0)


class TestResiliencePolicy:
    def resilient_job(self, instance, policy=None):
        return CrowdMaxJob(
            instance,
            u_n=5,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
            resilience=policy if policy is not None else ResiliencePolicy(),
        )

    def test_healthy_path_matches_the_plain_job(self, instance):
        # With a healthy expert pool a resilient job is a drop-in: the
        # strict adapter only changes behaviour when a batch degrades.
        results = []
        for resilience in (None, ResiliencePolicy()):
            run_rng = np.random.default_rng(777)
            pools = {
                "crowd": WorkerPool.homogeneous(
                    "crowd", ThresholdWorkerModel(delta=1.0), size=20
                ),
                "experts": WorkerPool.homogeneous(
                    "experts",
                    ThresholdWorkerModel(delta=0.25, is_expert=True),
                    size=3,
                    cost_per_judgment=20.0,
                ),
            }
            job = CrowdMaxJob(
                instance,
                u_n=5,
                phase1=JobPhaseConfig(pool="crowd"),
                phase2=JobPhaseConfig(pool="experts"),
                resilience=resilience,
            )
            results.append(job.execute(CrowdPlatform(pools, run_rng), run_rng))
        plain, resilient = results
        assert resilient.winner == plain.winner
        assert resilient.total_cost == pytest.approx(plain.total_cost)
        assert not resilient.degraded

    def test_falls_back_when_the_expert_pool_is_banned_out(self, rng):
        values = np.asarray(np.random.default_rng(5).permutation(60), dtype=float)
        pools = {
            "crowd": WorkerPool.homogeneous("crowd", PerfectWorkerModel(), size=10),
            "experts": WorkerPool.homogeneous(
                "experts", PerfectWorkerModel(), size=3, cost_per_judgment=20.0
            ),
        }
        platform = CrowdPlatform(pools, rng)
        for worker in pools["experts"].workers:
            worker.banned = True
        result = self.resilient_job(values).execute(platform, rng)
        assert result.degraded
        assert result.degraded_reason == "expert_pool_exhausted"
        # perfect naive workers at redundancy 5 still find the true max
        assert values[result.winner] == values.max()
        # the fallback comparisons are billed to the naive pool
        assert result.expert_comparisons == 0
        assert platform.ledger.operations("experts") == 0
        assert platform.ledger.operations("crowd") > 0

    def test_plain_job_does_not_degrade_gracefully(self, rng):
        # The contrast case: without a resilience policy, a banned-out
        # expert pool silently yields coin-flip majorities (the result
        # is *not* flagged) — the reason ResiliencePolicy exists.
        values = np.asarray(np.random.default_rng(5).permutation(60), dtype=float)
        pools = {
            "crowd": WorkerPool.homogeneous("crowd", PerfectWorkerModel(), size=10),
            "experts": WorkerPool.homogeneous(
                "experts", PerfectWorkerModel(), size=3, cost_per_judgment=20.0
            ),
        }
        platform = CrowdPlatform(pools, rng)
        for worker in pools["experts"].workers:
            worker.banned = True
        result = CrowdMaxJob(
            values,
            u_n=5,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        ).execute(platform, rng)
        assert not result.degraded  # silent — no flag, answers are noise

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(fallback_redundancy=0)


class TestCrowdTopKJob:
    def test_topk_end_to_end(self, rng, platform, instance):
        job = CrowdTopKJob(
            instance,
            u_n=5,
            k=3,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
        result = job.execute(platform, rng)
        assert len(result.answer) == 3
        assert len(set(result.answer)) == 3
        # every returned element comes from the survivor set
        assert set(result.answer) <= set(result.survivors.tolist())

    def test_topk_exact_with_perfect_pools(self, rng, instance):
        pools = {
            "crowd": WorkerPool.homogeneous("crowd", PerfectWorkerModel(), size=10),
            "experts": WorkerPool.homogeneous(
                "experts", PerfectWorkerModel(), size=3
            ),
        }
        platform = CrowdPlatform(pools, rng)
        job = CrowdTopKJob(
            instance,
            u_n=1,
            k=4,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
        result = job.execute(platform, rng)
        assert result.answer == [int(e) for e in instance.top_indices(4)]

    def test_topk_worst_case_uses_inflated_u(self, platform, instance):
        small = CrowdTopKJob(
            instance,
            u_n=5,
            k=1,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
        large = CrowdTopKJob(
            instance,
            u_n=5,
            k=6,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
        assert large.worst_case_cost(platform) > small.worst_case_cost(platform)

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            CrowdTopKJob(
                instance,
                u_n=5,
                k=0,
                phase1=JobPhaseConfig(pool="a"),
                phase2=JobPhaseConfig(pool="b"),
            )


class TestSubmitSettleProtocol:
    """The uniform two-step protocol the scheduler engine drives."""

    def test_execute_equals_submit_then_settle(self, instance):
        results = []
        for style in ("execute", "submit"):
            run_rng = np.random.default_rng(321)
            pools = {
                "crowd": WorkerPool.homogeneous(
                    "crowd", ThresholdWorkerModel(delta=1.0), size=20
                ),
                "experts": WorkerPool.homogeneous(
                    "experts",
                    ThresholdWorkerModel(delta=0.25, is_expert=True),
                    size=3,
                    cost_per_judgment=20.0,
                ),
            }
            platform = CrowdPlatform(pools, run_rng)
            job = max_job(instance)
            if style == "execute":
                results.append(job.execute(platform, run_rng))
            else:
                results.append(job.submit(platform, run_rng).settle())
        direct, staged = results
        assert staged.answer == direct.answer
        assert staged.total_cost == pytest.approx(direct.total_cost)

    def test_settle_without_submit_is_an_error(self, instance):
        with pytest.raises(RuntimeError, match="submit"):
            max_job(instance).settle()

    def test_settle_consumes_the_binding(self, rng, platform, instance):
        job = max_job(instance).submit(platform, rng)
        job.settle()
        with pytest.raises(RuntimeError, match="submit"):
            job.settle()

    def test_budget_rejection_happens_at_submit_not_settle(
        self, rng, platform, instance
    ):
        job = max_job(instance, budget_cap=100.0)
        with pytest.raises(ValueError, match="budget cap"):
            job.submit(platform, rng)
        # rejected before any binding: nothing to settle, nothing spent
        assert platform.ledger.total_cost == 0.0
        with pytest.raises(RuntimeError, match="submit"):
            job.settle()

    def test_mid_flight_breach_surfaces_at_settle_with_partial(
        self, rng, platform, instance
    ):
        job = max_job(instance, hard_cap=50.0)
        job.submit(platform, rng)  # the cap check passes; breach is mid-flight
        with pytest.raises(BudgetExceededError) as excinfo:
            job.settle()
        assert excinfo.value.partial.degraded_reason == "budget"
        assert platform.ledger.total_cost <= 50.0 + 1e-9

    def test_degradation_propagates_through_the_staged_path(self, rng):
        values = np.asarray(np.random.default_rng(5).permutation(60), dtype=float)
        pools = {
            "crowd": WorkerPool.homogeneous("crowd", PerfectWorkerModel(), size=10),
            "experts": WorkerPool.homogeneous(
                "experts", PerfectWorkerModel(), size=3, cost_per_judgment=20.0
            ),
        }
        platform = CrowdPlatform(pools, rng)
        for worker in pools["experts"].workers:
            worker.banned = True
        job = CrowdMaxJob(
            values,
            u_n=5,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
            resilience=ResiliencePolicy(fallback_redundancy=5),
        )
        result = job.submit(platform, rng).settle()
        assert result.degraded
        assert result.degraded_reason == "expert_pool_exhausted"
