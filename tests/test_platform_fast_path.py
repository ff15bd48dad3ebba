"""The platform's vectorized fast path: parity, invariance, gating.

The fast path (see ``CrowdPlatform._submit_batch_vectorized``) settles a
fault-free batch from ndarrays instead of the physical-step loop.  It
draws per-judgment uniforms from a private counter-based Philox stream,
so it is *not* bit-identical to the step loop's draws — parity tests
therefore use flip-invariant deterministic models (the answer does not
depend on presentation order), where both paths must agree exactly on
answers, costs, and collection counts.  Stochastic models are covered by
the chunking-invariance and determinism properties instead.
"""

import numpy as np
import pytest

from repro.platform.accounting import CostLedger
from repro.platform.faults import FaultPlan, RetryPolicy
from repro.platform.gold import GoldPair, GoldPolicy
from repro.platform.job import ComparisonTask
from repro.platform.platform import CrowdPlatform
from repro.platform.workforce import WorkerPool
from repro.workers.adversarial import AdversarialWorkerModel
from repro.workers.base import PerfectWorkerModel, WorkerModel
from repro.workers.threshold import (
    BelowThresholdBehavior,
    BiasedErrorBehavior,
    CoinFlipBehavior,
    ThresholdWorkerModel,
)


class _LoopOnlyModel(WorkerModel):
    """A perfect comparator without a uniform-driven decide (forces the
    step loop)."""

    def decide(self, values_i, values_j, rng, indices_i=None, indices_j=None):
        return np.asarray(values_i) >= np.asarray(values_j)


class _LoopOnlyAdversary(AdversarialWorkerModel):
    """An adversary that declines the uniform-driven decide (forces the
    step loop)."""

    def supports_uniform_decide(self):
        return False


class _OpaqueBehavior(BelowThresholdBehavior):
    """A below-threshold behavior without a uniform-driven form."""

    def first_wins(self, values_i, values_j, rng, indices_i=None, indices_j=None):
        return np.zeros(len(np.asarray(values_i)), dtype=bool)


def batch_of_tasks(pairs, values, required=3):
    return [
        ComparisonTask(
            task_id=k,
            first=i,
            second=j,
            value_first=values[i],
            value_second=values[j],
            required_judgments=required,
        )
        for k, (i, j) in enumerate(pairs)
    ]


def make_platform(model, seed=7, size=5, **kwargs):
    pool = WorkerPool.homogeneous(
        "naive", model, size=size, availability=kwargs.pop("availability", 1.0)
    )
    return CrowdPlatform({"naive": pool}, np.random.default_rng(seed), **kwargs)


PAIRS = [(1, 0), (0, 2), (3, 1), (2, 4), (4, 0), (1, 2)]
VALUES = [1.0, 9.0, 4.0, 7.5, 2.5]


class TestStepLoopParity:
    """Flip-invariant models must agree exactly across the two paths.

    Each model is paired with a loop-only twin that answers the same
    but has no uniform-driven decide, which keeps its platform on the
    step loop.
    """

    @pytest.mark.parametrize(
        "model, loop_only",
        [
            (PerfectWorkerModel(), _LoopOnlyModel()),
            (
                AdversarialWorkerModel(delta=2.0, policy="stable"),
                _LoopOnlyAdversary(delta=2.0, policy="stable"),
            ),
        ],
        ids=["perfect", "stable-adversary"],
    )
    def test_answers_costs_and_counts_match(self, model, loop_only):
        fast = make_platform(model)
        step = make_platform(loop_only)
        tasks = batch_of_tasks(PAIRS, VALUES, required=3)
        report_fast = fast.submit_batch("naive", tasks)
        report_step = step.submit_batch("naive", batch_of_tasks(PAIRS, VALUES, required=3))

        assert fast.fast_batches_total == 1
        assert step.fast_batches_total == 0
        assert report_fast.answers == report_step.answers
        assert report_fast.judgments_collected == report_step.judgments_collected
        assert fast.ledger.total_cost == step.ledger.total_cost
        assert len(fast.judgment_log) == len(step.judgment_log)
        assert sum(w.judgments_made for w in fast.pools["naive"].workers) == sum(
            w.judgments_made for w in step.pools["naive"].workers
        )
        # NOTE: physical_steps is deliberately not asserted equal — the
        # step loop's greedy assignment can take one step more than the
        # fast path's ideal ceil(judgments / workers) packing.
        assert report_fast.physical_steps <= report_step.physical_steps

    def test_fast_path_task_reports_are_all_ok(self):
        fast = make_platform(PerfectWorkerModel())
        report = fast.submit_batch("naive", batch_of_tasks(PAIRS, VALUES))
        assert [t.status for t in report.task_reports] == ["ok"] * len(PAIRS)
        assert report.judgments_discarded == 0
        assert report.faults_injected == 0

    def test_distinct_workers_per_task(self):
        fast = make_platform(PerfectWorkerModel(), size=5)
        fast.submit_batch("naive", batch_of_tasks(PAIRS, VALUES, required=5))
        by_task: dict[int, set[int]] = {}
        for judgment in fast.judgment_log:
            by_task.setdefault(judgment.task_id, set()).add(judgment.worker_id)
        assert all(len(workers) == 5 for workers in by_task.values())

    def test_majority_answers_respect_vote_counts(self):
        fast = make_platform(PerfectWorkerModel())
        report = fast.submit_batch("naive", batch_of_tasks(PAIRS, VALUES, required=3))
        # Perfect workers are unanimous, so the majority answer is just
        # the value comparison.
        expected = [VALUES[i] > VALUES[j] for i, j in PAIRS]
        assert report.answers == expected


class TestChunkingInvariance:
    """Judgment draws depend on global sequence number, not batching."""

    def stochastic_model(self):
        return ThresholdWorkerModel(delta=0.4, epsilon=0.1, below=CoinFlipBehavior())

    def run_batches(self, splits, seed=99):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=40).tolist()
        ii = rng.integers(0, 40, size=30)
        jj = (ii + 1 + rng.integers(0, 39, size=30)) % 40  # distinct partners
        pairs = list(zip(ii.tolist(), jj.tolist()))
        platform = make_platform(self.stochastic_model(), seed=seed)
        answers: list[bool] = []
        start = 0
        for size in splits:
            chunk = pairs[start : start + size]
            start += size
            tasks = [
                ComparisonTask(
                    task_id=start + k,
                    first=i,
                    second=j,
                    value_first=values[i],
                    value_second=values[j],
                    required_judgments=3,
                )
                for k, (i, j) in enumerate(chunk)
            ]
            answers.extend(platform.submit_batch("naive", tasks).answers)
        assert start == len(pairs), "splits must cover every pair"
        stream = [j.first_wins for j in platform.judgment_log]
        assert platform.fast_batches_total == len(splits)
        return answers, stream

    def test_split_points_do_not_change_outcomes(self):
        whole_answers, whole_stream = self.run_batches([30])
        for splits in ([15, 15], [1, 29], [10, 10, 10]):
            answers, stream = self.run_batches(splits)
            assert answers == whole_answers
            assert stream == whole_stream

    def test_same_seed_replays_bit_identically(self):
        first = self.run_batches([30])
        second = self.run_batches([30])
        assert first == second

    def test_different_seeds_differ(self):
        # Sanity: the stochastic model actually exercises randomness.
        a, _ = self.run_batches([30], seed=99)
        b, _ = self.run_batches([30], seed=100)
        assert a != b


class TestFastPathGating:
    """Every resilience feature must force the physical-step loop."""

    def submit(self, platform, retry=None):
        return platform.submit_batch(
            "naive", batch_of_tasks(PAIRS, VALUES), retry=retry
        )

    def test_clean_batch_takes_the_fast_path(self):
        platform = make_platform(PerfectWorkerModel())
        self.submit(platform)
        assert platform.fast_batches_total == 1

    def test_active_fault_plan_forces_step_loop(self):
        platform = make_platform(
            PerfectWorkerModel(), faults=FaultPlan(abandon_rate=0.2)
        )
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_inactive_fault_plan_keeps_fast_path(self):
        platform = make_platform(PerfectWorkerModel(), faults=FaultPlan())
        self.submit(platform)
        assert platform.fast_batches_total == 1

    def test_gold_policy_forces_step_loop(self):
        gold = GoldPolicy(
            pairs=[GoldPair(first=90, second=91, value_first=9.0, value_second=1.0)],
            gold_fraction=0.2,
        )
        platform = make_platform(PerfectWorkerModel(), gold=gold)
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_gold_task_forces_step_loop(self):
        platform = make_platform(PerfectWorkerModel())
        tasks = batch_of_tasks(PAIRS, VALUES)
        tasks.append(
            ComparisonTask(
                task_id=99,
                first=1,
                second=0,
                value_first=9.0,
                value_second=1.0,
                required_judgments=1,
                is_gold=True,
                gold_first_wins=True,
            )
        )
        platform.submit_batch("naive", tasks)
        assert platform.fast_batches_total == 0

    def test_max_attempts_forces_step_loop(self):
        platform = make_platform(PerfectWorkerModel())
        self.submit(platform, retry=RetryPolicy(max_attempts=2))
        assert platform.fast_batches_total == 0

    def test_deadline_forces_step_loop(self):
        platform = make_platform(PerfectWorkerModel())
        self.submit(platform, retry=RetryPolicy(deadline_steps=10))
        assert platform.fast_batches_total == 0

    def test_hard_cap_forces_step_loop(self):
        platform = make_platform(
            PerfectWorkerModel(), ledger=CostLedger(hard_cap=1e6)
        )
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_partial_availability_forces_step_loop(self):
        platform = make_platform(PerfectWorkerModel(), availability=0.9)
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_banned_worker_forces_step_loop(self):
        platform = make_platform(PerfectWorkerModel())
        platform.pools["naive"].workers[0].banned = True
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_unsupported_model_forces_step_loop(self):
        platform = make_platform(_LoopOnlyModel())
        self.submit(platform)
        assert platform.fast_batches_total == 0

    def test_unsupported_below_behavior_forces_step_loop(self):
        model = ThresholdWorkerModel(delta=0.4, below=_OpaqueBehavior())
        platform = make_platform(model)
        self.submit(platform)
        assert platform.fast_batches_total == 0


class TestUniformDecideSupport:
    """Support detection and pointwise semantics of the uniform API."""

    def test_perfect_model_supports_and_matches(self):
        model = PerfectWorkerModel()
        assert model.supports_uniform_decide()
        vi = np.array([1.0, 2.0, 3.0])
        vj = np.array([2.0, 2.0, 1.0])
        uniforms = np.full((3, 2), 0.5)
        assert model.decide_from_uniforms(vi, vj, uniforms).tolist() == [
            False,
            True,
            True,
        ]

    def test_loop_only_model_does_not_support(self):
        assert not _LoopOnlyModel().supports_uniform_decide()

    def test_threshold_support_delegates_to_behavior(self):
        assert ThresholdWorkerModel(delta=0.1).supports_uniform_decide()
        assert not ThresholdWorkerModel(
            delta=0.1, below=_OpaqueBehavior()
        ).supports_uniform_decide()

    def test_epsilon_error_uses_first_uniform_column(self):
        model = ThresholdWorkerModel(delta=0.0, epsilon=0.3)
        vi = np.array([9.0, 9.0])
        vj = np.array([1.0, 1.0])
        # Column 0 is the epsilon roll: below epsilon -> error.
        uniforms = np.array([[0.1, 0.9], [0.9, 0.9]])
        assert model.decide_from_uniforms(vi, vj, uniforms).tolist() == [False, True]

    def test_coin_flip_uses_second_uniform_column(self):
        model = ThresholdWorkerModel(delta=1.0, below=CoinFlipBehavior())
        vi = np.array([0.5, 0.5])
        vj = np.array([0.4, 0.4])  # within delta: indistinguishable
        uniforms = np.array([[0.9, 0.2], [0.9, 0.8]])
        assert model.decide_from_uniforms(vi, vj, uniforms).tolist() == [True, False]

    def test_biased_error_matches_scalar_semantics(self):
        model = ThresholdWorkerModel(
            delta=1.0, below=BiasedErrorBehavior(perr=0.25)
        )
        vi = np.array([0.5, 0.5])
        vj = np.array([0.2, 0.2])  # hard pair, first is truly better
        # Column 1 drives the biased roll: below perr -> error.
        uniforms = np.array([[0.9, 0.1], [0.9, 0.6]])
        assert model.decide_from_uniforms(vi, vj, uniforms).tolist() == [False, True]
