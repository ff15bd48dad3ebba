"""Tests for repro.core.oracle (memoization, counting, billing)."""

import numpy as np
import pytest

import repro.core.oracle as oracle_module
from repro.core.oracle import ComparisonOracle
from repro.platform.accounting import CostLedger
from repro.workers.adversarial import AdversarialWorkerModel
from repro.workers.base import PerfectWorkerModel
from repro.workers.probabilistic import FixedErrorWorkerModel
from repro.workers.threshold import ThresholdWorkerModel


def make_oracle(rng, values=(1.0, 2.0, 3.0, 4.0), model=None, **kwargs):
    model = model if model is not None else PerfectWorkerModel()
    return ComparisonOracle(np.asarray(values), model, rng, **kwargs)


class TestBasicQueries:
    def test_perfect_worker_returns_true_winner(self, rng):
        oracle = make_oracle(rng)
        assert oracle.compare(0, 3) == 3
        assert oracle.compare(3, 0) == 3

    def test_rejects_same_element(self, rng):
        oracle = make_oracle(rng)
        with pytest.raises(ValueError):
            oracle.compare(1, 1)

    def test_rejects_out_of_range(self, rng):
        oracle = make_oracle(rng)
        with pytest.raises(ValueError):
            oracle.compare(0, 10)
        with pytest.raises(ValueError):
            oracle.compare(-1, 2)

    def test_rejects_mismatched_batch_shapes(self, rng):
        oracle = make_oracle(rng)
        with pytest.raises(ValueError):
            oracle.compare_pairs(np.asarray([0, 1]), np.asarray([2]))

    def test_empty_batch(self, rng):
        oracle = make_oracle(rng)
        result = oracle.compare_pairs(np.asarray([], dtype=np.intp), np.asarray([], dtype=np.intp))
        assert len(result) == 0
        assert oracle.comparisons == 0

    def test_rejects_empty_values(self, rng):
        with pytest.raises(ValueError):
            ComparisonOracle(np.asarray([]), PerfectWorkerModel(), rng)


class TestMemoization:
    def test_repeat_query_is_not_recharged(self, rng):
        oracle = make_oracle(rng)
        oracle.compare(0, 1)
        oracle.compare(0, 1)
        oracle.compare(1, 0)
        assert oracle.comparisons == 1
        assert oracle.requests == 3

    def test_memoized_answers_are_consistent_even_for_random_workers(self, rng):
        model = FixedErrorWorkerModel(error_probability=0.49)
        oracle = make_oracle(rng, values=(1.0, 1.0001), model=model)
        first = oracle.compare(0, 1)
        for _ in range(20):
            assert oracle.compare(0, 1) == first
            assert oracle.compare(1, 0) == first

    def test_duplicates_within_one_batch_agree(self, rng):
        model = FixedErrorWorkerModel(error_probability=0.49)
        oracle = make_oracle(rng, values=(1.0, 1.0001), model=model)
        ii = np.zeros(50, dtype=np.intp)
        jj = np.ones(50, dtype=np.intp)
        winners = oracle.compare_pairs(ii, jj)
        assert len(set(winners.tolist())) == 1
        assert oracle.comparisons == 1

    def test_memoize_off_pays_every_time(self, rng):
        oracle = make_oracle(rng, memoize=False)
        oracle.compare(0, 1)
        oracle.compare(0, 1)
        assert oracle.comparisons == 2

    def test_return_fresh_mask(self, rng):
        oracle = make_oracle(rng)
        winners, fresh = oracle.compare_pairs(
            np.asarray([0, 0]), np.asarray([1, 2]), return_fresh=True
        )
        assert fresh.tolist() == [True, True]
        winners, fresh = oracle.compare_pairs(
            np.asarray([0, 0]), np.asarray([1, 3]), return_fresh=True
        )
        assert fresh.tolist() == [False, True]

    def test_forget_clears_memo(self, rng):
        oracle = make_oracle(rng)
        oracle.compare(0, 1)
        oracle.forget()
        oracle.compare(0, 1)
        assert oracle.comparisons == 2

    def test_dict_fallback_for_large_instances(self, rng):
        oracle = make_oracle(rng, dense_memo_limit=2)
        assert oracle._memo_dict is not None
        assert oracle._memo_matrix is None
        first = oracle.compare(0, 1)
        assert oracle.compare(1, 0) == first
        assert oracle.comparisons == 1
        # fresh mask through the dict path too
        _, fresh = oracle.compare_pairs(
            np.asarray([0, 2]), np.asarray([1, 3]), return_fresh=True
        )
        assert fresh.tolist() == [False, True]

    def test_default_limit_picks_dense_memo(self, rng):
        oracle = make_oracle(rng)
        assert oracle.dense_memo_limit == oracle_module.DEFAULT_DENSE_MEMO_LIMIT
        assert oracle._memo_matrix is not None
        assert oracle._memo_dict is None

    def test_dict_fallback_batch_semantics_match_dense(self, rng):
        # The two memo backends must be observationally identical:
        # replay the same request stream through both and compare
        # winners and counters exactly.
        values = tuple(float(v) for v in range(12))
        dense = make_oracle(rng, values=values)
        sparse = make_oracle(np.random.default_rng(12345), values=values, dense_memo_limit=0)
        streams = [
            (np.asarray([0, 1, 2, 0]), np.asarray([5, 6, 7, 5])),
            (np.asarray([5, 1, 9]), np.asarray([0, 6, 10])),
            (np.asarray([9, 11]), np.asarray([10, 3])),
        ]
        for ii, jj in streams:
            w_dense, f_dense = dense.compare_pairs(ii, jj, return_fresh=True)
            w_sparse, f_sparse = sparse.compare_pairs(ii, jj, return_fresh=True)
            assert w_dense.tolist() == w_sparse.tolist()
            assert f_dense.tolist() == f_sparse.tolist()
        assert dense.comparisons == sparse.comparisons
        assert dense.requests == sparse.requests

    def test_dict_fallback_duplicates_within_batch_agree(self, rng):
        model = FixedErrorWorkerModel(error_probability=0.49)
        oracle = make_oracle(
            rng, values=(1.0, 1.0001), model=model, dense_memo_limit=1
        )
        ii = np.zeros(50, dtype=np.intp)
        jj = np.ones(50, dtype=np.intp)
        winners = oracle.compare_pairs(ii, jj)
        assert len(set(winners.tolist())) == 1
        assert oracle.comparisons == 1

    def test_dict_fallback_forget_clears_memo(self, rng):
        oracle = make_oracle(rng, dense_memo_limit=0)
        oracle.compare(0, 1)
        oracle.forget()
        oracle.compare(0, 1)
        assert oracle.comparisons == 2

    def test_rejects_negative_dense_memo_limit(self, rng):
        with pytest.raises(ValueError):
            make_oracle(rng, dense_memo_limit=-1)


class TestOrientation:
    def test_first_loses_adversary_sees_request_orientation(self, rng):
        # Two values within the threshold: the adversary makes the
        # *queried-first* element lose; the memo then pins the outcome.
        model = AdversarialWorkerModel(delta=10.0, policy="first_loses")
        oracle = make_oracle(rng, values=(5.0, 5.5), model=model)
        assert oracle.compare(0, 1) == 1  # 0 asked first -> loses
        # Re-asking in either orientation replays the memoized outcome.
        assert oracle.compare(1, 0) == 1

    def test_first_loses_opposite_first_request(self, rng):
        model = AdversarialWorkerModel(delta=10.0, policy="first_loses")
        oracle = make_oracle(rng, values=(5.0, 5.5), model=model)
        assert oracle.compare(1, 0) == 0


class TestAccounting:
    def test_cost_property(self, rng):
        oracle = make_oracle(rng, cost_per_comparison=2.5)
        oracle.compare(0, 1)
        oracle.compare(0, 2)
        assert oracle.cost == 5.0

    def test_ledger_is_charged_per_fresh_comparison(self, rng):
        ledger = CostLedger()
        oracle = make_oracle(rng, cost_per_comparison=3.0, ledger=ledger, label="naive")
        oracle.compare(0, 1)
        oracle.compare(0, 1)  # memo hit: not charged
        oracle.compare(1, 2)
        assert ledger.operations("naive") == 2
        assert ledger.money("naive") == 6.0

    def test_default_label_follows_expert_flag(self, rng):
        naive = make_oracle(rng, model=ThresholdWorkerModel(delta=0.0))
        expert = make_oracle(rng, model=ThresholdWorkerModel(delta=0.0, is_expert=True))
        assert naive.label == "naive"
        assert expert.label == "expert"

    def test_reset_counts_preserves_memo(self, rng):
        oracle = make_oracle(rng)
        oracle.compare(0, 1)
        oracle.reset_counts()
        assert oracle.comparisons == 0
        oracle.compare(0, 1)  # memo hit: still free
        assert oracle.comparisons == 0
        assert oracle.requests == 1


class TestInstanceInput:
    def test_accepts_problem_instance(self, rng):
        from repro.core.instance import ProblemInstance

        instance = ProblemInstance(values=[1.0, 9.0])
        oracle = ComparisonOracle(instance, PerfectWorkerModel(), rng)
        assert oracle.compare(0, 1) == 1


class TestScalarBatchParity:
    """``compare`` is bit-identical to a length-1 ``compare_pairs``.

    The scalar fast path shares the memo, counters, and — for a fresh
    pair — the exact ``model.decide`` invocation of the batch path, so
    an interleaved query sequence must produce the same winners, RNG
    stream, and accounting whichever entry point serves it.
    """

    def _sequence(
        self,
        use_batch,
        dense_memo_limit=None,
        seed=2024,
        oracle_seed=7,
        n=20,
        queries=300,
    ):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=n)
        model = ThresholdWorkerModel(delta=0.3, epsilon=0.1)
        kwargs = {}
        if dense_memo_limit is not None:
            kwargs["dense_memo_limit"] = dense_memo_limit
        oracle = ComparisonOracle(
            values, model, np.random.default_rng(oracle_seed), **kwargs
        )
        qrng = np.random.default_rng(seed + 2)
        out = []
        for _ in range(queries):
            i = int(qrng.integers(0, n))
            j = int((i + 1 + qrng.integers(0, n - 1)) % n)
            if use_batch:
                winner = int(
                    oracle.compare_pairs(np.asarray([i]), np.asarray([j]))[0]
                )
            else:
                winner = oracle.compare(i, j)
            out.append(winner)
        return out, oracle.comparisons, oracle.requests

    @pytest.mark.parametrize("dense_memo_limit", [None, 0], ids=["dense", "dict"])
    def test_scalar_matches_length_one_batch(self, dense_memo_limit):
        scalar = self._sequence(False, dense_memo_limit)
        batch = self._sequence(True, dense_memo_limit)
        assert scalar == batch

    @pytest.mark.parametrize("dense_memo_limit", [None, 0], ids=["dense", "dict"])
    def test_scalar_loop_matches_one_batch_with_repeats(self, dense_memo_limit):
        # One batch with repeated pairs, replayed once more: fresh pairs,
        # in-batch duplicates and memo hits all cross the batch path.
        n, pairs = 300, 4000
        rng = np.random.default_rng(2015)
        values = rng.random(n)
        ii = rng.integers(0, n, pairs)
        jj = (ii + 1 + rng.integers(0, n - 1, pairs)) % n
        ii, jj = np.concatenate([ii, ii]), np.concatenate([jj, jj])

        def build():
            return ComparisonOracle(
                values,
                AdversarialWorkerModel(delta=0.3, policy="first_loses"),
                np.random.default_rng(2015),
                dense_memo_limit=dense_memo_limit,
            )

        scalar, batch = build(), build()
        scalar_winners = [scalar.compare(int(a), int(b)) for a, b in zip(ii, jj)]
        batch_winners = batch.compare_pairs(ii, jj)
        assert scalar_winners == batch_winners.tolist()
        assert scalar.comparisons == batch.comparisons < pairs
        assert scalar.requests == batch.requests == 2 * pairs

    def test_stochastic_answers_actually_vary(self):
        # Sanity for the parity test: the same queries under a
        # different oracle RNG change some answers, so the equality
        # above is not vacuous.
        a, _, _ = self._sequence(False, oracle_seed=7)
        b, _, _ = self._sequence(False, oracle_seed=8)
        assert a != b


class TestFirstWinsMode:
    """``return_first_wins`` agrees with winner-id mode bit for bit.

    The boolean mode answers "did the first element win?" straight from
    the memo code, skipping the winner-id materialisation; a fresh pair
    must consume the exact same worker decision either way, so two
    oracles built from the same seed and fed the same query stream — one
    per mode — stay in lockstep.
    """

    def _oracle(self, dense_memo_limit, n=24, seed=11):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, size=n)
        kwargs = {}
        if dense_memo_limit is not None:
            kwargs["dense_memo_limit"] = dense_memo_limit
        return ComparisonOracle(
            values,
            ThresholdWorkerModel(delta=0.3, epsilon=0.1),
            np.random.default_rng(seed),
            **kwargs,
        )

    @pytest.mark.parametrize("dense_memo_limit", [None, 0], ids=["dense", "dict"])
    def test_matches_winner_ids(self, dense_memo_limit):
        a = self._oracle(dense_memo_limit)
        b = self._oracle(dense_memo_limit)
        qrng = np.random.default_rng(99)
        n = a.n
        for _ in range(40):
            size = int(qrng.integers(1, n // 2))
            ii = qrng.choice(n, size=size, replace=False).astype(np.intp)
            jj = np.asarray([(i + 1 + int(qrng.integers(0, n - 1))) % n for i in ii], dtype=np.intp)
            # Repeat queries hit the memo, so both branches are covered.
            winners = a.compare_pairs(ii, jj, assume_unique=True, validate=False)
            first_won = b.compare_pairs(
                ii, jj, assume_unique=True, validate=False, return_first_wins=True
            )
            assert first_won.dtype == np.bool_
            np.testing.assert_array_equal(first_won, winners == ii)
        assert a.comparisons == b.comparisons
        assert a.requests == b.requests

    @pytest.mark.parametrize("dense_memo_limit", [None, 0], ids=["dense", "dict"])
    def test_return_fresh_combo(self, dense_memo_limit):
        oracle = self._oracle(dense_memo_limit)
        ii = np.asarray([0, 2, 4], dtype=np.intp)
        jj = np.asarray([1, 3, 5], dtype=np.intp)
        first_won, fresh = oracle.compare_pairs(
            ii, jj, return_fresh=True, assume_unique=True,
            validate=False, return_first_wins=True,
        )
        assert fresh.all()
        again, fresh2 = oracle.compare_pairs(
            ii, jj, return_fresh=True, assume_unique=True,
            validate=False, return_first_wins=True,
        )
        assert not fresh2.any()
        np.testing.assert_array_equal(first_won, again)

    def test_requires_assume_unique(self):
        oracle = self._oracle(None)
        with pytest.raises(ValueError, match="assume_unique"):
            oracle.compare_pairs(
                np.asarray([0, 1], dtype=np.intp),
                np.asarray([1, 2], dtype=np.intp),
                return_first_wins=True,
            )

    def test_empty_batch_is_bool(self):
        oracle = self._oracle(None)
        out = oracle.compare_pairs(
            np.asarray([], dtype=np.intp),
            np.asarray([], dtype=np.intp),
            assume_unique=True,
            return_first_wins=True,
        )
        assert out.dtype == np.bool_ and len(out) == 0
