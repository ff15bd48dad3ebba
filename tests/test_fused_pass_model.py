"""The fused platform pass against a per-judgment reference model.

``CrowdPlatform.fast_batch_prepare`` / ``fast_batch_decide`` /
``fast_batch_finalize`` settle one batch per tenant platform for a
pool as a single array pass.  The reference below settles the same
batches one judgment at a time, straight from the RNG discipline in
``docs/PERFORMANCE.md``: judgment ``t`` of a tenant reads Philox block
``t`` of that tenant's key and goes to worker ``t mod P``; it is
flipped, decided, and voted, and a tied task takes the coin of its
first judgment.  Each batch is charged in order on its tenant's
ledgers, and a refused batch moves no counter and no worker tally.
Everything is compared bit for bit.
"""

import numpy as np
import pytest

from repro.platform.accounting import CostLedger
from repro.platform.errors import CostCapError
from repro.platform.job import BatchReport
from repro.platform.platform import CrowdPlatform, FastBatch
from repro.platform.workforce import WorkerPool
from repro.scheduler.engine import _ChainedLedger
from repro.workers.threshold import ThresholdWorkerModel

K = 6
#: Tenants 1, 3 and 4 share one capped ledger; the cap refuses a middle batch.
SHARED = (1, 3, 4)


def make_pools():
    sharp = ThresholdWorkerModel(delta=0.5)
    blunt = ThresholdWorkerModel(delta=2.0)
    return {
        # Two model groups, interleaved, so a plan's judgments split.
        "crowd": WorkerPool.from_models(
            "crowd", [sharp if k % 3 else blunt for k in range(20)], cost_per_judgment=1.0
        ),
        "experts": WorkerPool.homogeneous(
            "experts", ThresholdWorkerModel(delta=0.25), size=3, cost_per_judgment=7.5
        ),
    }


class Tenant:
    """The reference model of one tenant platform."""

    def __init__(self, seed, ledgers):
        self.key = int(np.random.default_rng(seed).integers(0, 2**63))
        self.seq = self.logical = self.physical = self.batches = 0
        self.ledgers = ledgers

    def settle(self, pool, ii, jj, vi, vj, required):
        """(answers, report), or None when a ledger refuses the batch."""
        n = int(required.sum())
        t = self.seq + np.arange(n)
        self.seq += n
        self.logical += 1
        if any(not ledger.can_afford(n * pool.cost_per_judgment) for ledger in self.ledgers):
            return None
        votes = np.zeros(len(required), dtype=int)
        coin = np.zeros(len(required), dtype=bool)
        first = np.cumsum(required) - required
        for q, task in enumerate(np.repeat(np.arange(len(required)), required)):
            bits = np.random.Philox(key=self.key)
            bits.advance(int(t[q]))
            u = np.random.Generator(bits).random(4)
            worker = pool.workers[t[q] % len(pool.workers)]
            a, b = (jj, ii) if u[0] < 0.5 else (ii, jj)
            va, vb = (vj, vi) if u[0] < 0.5 else (vi, vj)
            raw = worker.model.decide_from_uniforms(
                va[task : task + 1], vb[task : task + 1], u[None, 1:3],
                indices_i=a[task : task + 1], indices_j=b[task : task + 1],
            )[0]
            votes[task] += bool(raw) != (u[0] < 0.5)
            if q == first[task]:
                coin[task] = u[3] < 0.5
            worker.judgments_made += 1
        for ledger in self.ledgers:
            ledger.charge(pool.name, n, pool.cost_per_judgment)
        steps = -(-n // len(pool.workers))
        self.physical += steps
        self.batches += 1
        answers = np.where(2 * votes == required, coin, 2 * votes > required)
        return answers, BatchReport(
            answers=[], physical_steps=steps, judgments_collected=n, judgments_discarded=0
        )


def make_world(cap):
    """K tenant platforms over one set of pools, plus their models."""
    pools, model_pools = make_pools(), make_pools()
    capped, model_capped = CostLedger(hard_cap=cap), CostLedger(hard_cap=cap)
    platforms, tenants = [], []
    for k in range(K):
        parent = capped if k in SHARED else CostLedger()
        platforms.append(
            CrowdPlatform(
                pools,
                rng=np.random.default_rng(100 + k),
                ledger=_ChainedLedger(parent=parent),
            )
        )
        model_parent = model_capped if k in SHARED else CostLedger()
        tenants.append(Tenant(100 + k, [model_parent, CostLedger()]))
    return platforms, pools, tenants, model_pools


def random_batches(rng, pool_name, n_tasks_max=40):
    """One batch per tenant: indices, values and 1-5 (or 1-3) judgments a task."""
    most = 5 if pool_name == "crowd" else 3
    out = []
    for _ in range(K):
        n = int(rng.integers(1, n_tasks_max))
        ii = rng.integers(0, 60, n)
        jj = (ii + rng.integers(1, 60, n)) % 60
        values = rng.normal(size=60).cumsum() * 0.3
        out.append((ii, jj, values[ii], values[jj], rng.integers(1, most + 1, n)))
    return out


def fused(platforms, pool, batches):
    plan = CrowdPlatform.fast_batch_prepare(
        pool, [FastBatch(p, *batch) for p, batch in zip(platforms, batches)]
    )
    return CrowdPlatform.fast_batch_finalize(
        pool, plan, CrowdPlatform.fast_batch_decide(pool, plan)
    )


def assert_same(settled, expected):
    for got, want in zip(settled, expected, strict=True):
        if want is None:
            assert isinstance(got, CostCapError)
            continue
        assert not isinstance(got, CostCapError), got
        assert got[0].dtype == bool
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


def ledger_facts(ledger):
    return {label: (e.operations, e.money) for label, e in ledger.entries.items()}


class TestFusedPassModel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_pass_equals_per_judgment_model(self, seed):
        rng = np.random.default_rng(seed)
        platforms, pools, tenants, model_pools = make_world(cap=175.0)
        refused = 0
        for _ in range(3):
            for pool_name in ("crowd", "experts"):
                batches = random_batches(rng, pool_name)
                settled = fused(platforms, pools[pool_name], batches)
                expected = [
                    tenant.settle(model_pools[pool_name], *batch)
                    for tenant, batch in zip(tenants, batches)
                ]
                assert_same(settled, expected)
                refused += sum(e is None for e in expected)
        assert refused, "the capped ledger never refused a batch"
        for platform, tenant in zip(platforms, tenants):
            assert (
                platform._fast_seq,
                platform.logical_steps,
                platform.physical_steps_total,
                platform.fast_batches_total,
            ) == (tenant.seq, tenant.logical, tenant.physical, tenant.batches)
            assert ledger_facts(platform.ledger) == ledger_facts(tenant.ledgers[1])
            assert ledger_facts(platform.ledger.parent) == ledger_facts(tenant.ledgers[0])
        for name in pools:
            assert [w.judgments_made for w in pools[name].workers] == [
                w.judgments_made for w in model_pools[name].workers
            ]

    def test_a_refused_middle_batch_keeps_its_error_to_itself(self):
        """Charged in order: 30 fits, 20 would pass the cap of 45, 10 fits."""
        pools = make_pools()
        pool = pools["crowd"]
        tenant = CostLedger(hard_cap=45.0)
        platforms = [
            CrowdPlatform(pools, rng=np.random.default_rng(k), ledger=_ChainedLedger(parent=tenant))
            for k in range(3)
        ]
        batches = [
            (np.arange(n), np.arange(n) + 1, np.zeros(n), np.ones(n), np.ones(n, dtype=np.intp))
            for n in (30, 20, 10)
        ]
        settled = fused(platforms, pool, batches)
        assert [isinstance(s, CostCapError) for s in settled] == [False, True, False]
        assert tenant.total_cost == 40.0
        assert [p.ledger.total_cost for p in platforms] == [30.0, 0.0, 10.0]
        assert [p.fast_batches_total for p in platforms] == [1, 0, 1]
        assert [p._fast_seq for p in platforms] == [30, 20, 10]
        assert sum(w.judgments_made for w in pool.workers) == 40
