"""Tests for repro.scheduler (the multi-job cooperative engine).

The determinism contract under test (see docs/SCHEDULER.md):

* identical runs (same root seed, submission order, and config) are
  bit-identical — settle order, answers, costs, telemetry;
* with the cache off, each job's *result and cost* are invariant to
  the quantum and to co-scheduled jobs, and exactly equal isolated
  execution with the scheduler's spawn discipline (settle *order* may
  legitimately shift with the quantum);
* with the cache on, jobs get cheaper but stay run-to-run reproducible.
"""

import numpy as np
import pytest

from repro.core.generators import planted_instance
from repro.platform.platform import CrowdPlatform
from repro.platform.workforce import WorkerPool
from repro.scheduler import (
    ComparisonMemoCache,
    CrowdScheduler,
    SchedulerSaturatedError,
    fingerprint_instance,
)
from repro.jobs import CrowdMaxJob, CrowdTopKJob, JobPhaseConfig
from repro.telemetry import Tracer
from repro.workers.threshold import ThresholdWorkerModel

N_JOBS = 6
CATALOGS = 2


def make_pools():
    return {
        "crowd": WorkerPool.homogeneous(
            "crowd", ThresholdWorkerModel(delta=1.0), size=12, cost_per_judgment=1.0
        ),
        "experts": WorkerPool.homogeneous(
            "experts",
            ThresholdWorkerModel(delta=0.25, is_expert=True),
            size=3,
            cost_per_judgment=20.0,
        ),
    }


def make_catalogs(seed=2015, n=80):
    rng = np.random.default_rng(seed)
    return [
        planted_instance(n=n, u_n=3, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng)
        for _ in range(CATALOGS)
    ]


def make_jobs(catalogs, n_jobs=N_JOBS, **kwargs):
    """Fresh job objects cycling the catalogs; every 4th is TOP-2."""
    jobs = []
    phase1 = JobPhaseConfig(pool="crowd")
    phase2 = JobPhaseConfig(pool="experts")
    for k in range(n_jobs):
        instance = catalogs[k % len(catalogs)]
        if k % 4 == 3:
            jobs.append(
                CrowdTopKJob(instance, u_n=3, k=2, phase1=phase1, phase2=phase2, **kwargs)
            )
        else:
            jobs.append(
                CrowdMaxJob(instance, u_n=3, phase1=phase1, phase2=phase2, **kwargs)
            )
    return jobs


def run_workload(seed=2015, cache=False, quantum=16, tracer=None, n_jobs=N_JOBS):
    scheduler = CrowdScheduler(
        make_pools(), root_seed=seed, cache=cache, quantum=quantum, tracer=tracer
    )
    for job in make_jobs(make_catalogs(seed), n_jobs=n_jobs):
        scheduler.submit(job)
    return scheduler, scheduler.run()


def outcome_fingerprint(outcome):
    answer = tuple(outcome.result.answer) if outcome.result is not None else None
    return (outcome.ticket.index, outcome.status, answer, round(outcome.cost, 9))


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        _, first = run_workload(cache=True)
        _, second = run_workload(cache=True)
        # full settle-order equality, not just per-job equality
        assert [outcome_fingerprint(o) for o in first] == [
            outcome_fingerprint(o) for o in second
        ]

    def test_per_job_results_invariant_to_quantum_without_cache(self):
        _, narrow = run_workload(cache=False, quantum=4)
        _, wide = run_workload(cache=False, quantum=None)
        by_index = lambda outs: {  # noqa: E731
            o.ticket.index: outcome_fingerprint(o) for o in outs
        }
        assert by_index(narrow) == by_index(wide)

    def test_cache_off_equals_isolated_execution(self):
        """The heart of the contract: multiplexing is invisible.

        Each job run alone — seeded exactly as the scheduler seeds it
        (one root child per admission, split into algorithm + platform
        streams) — produces the same answer and the same bill as the
        same job co-scheduled with five others over shared pools.
        """
        catalogs = make_catalogs()
        root = np.random.SeedSequence(2015)
        isolated = {}
        for index, job in enumerate(make_jobs(catalogs)):
            job_seed, platform_seed = root.spawn(1)[0].spawn(2)
            platform = CrowdPlatform(
                make_pools(), rng=np.random.default_rng(platform_seed)
            )
            result = job.execute(platform, np.random.default_rng(job_seed))
            isolated[index] = (
                tuple(result.answer),
                round(platform.ledger.total_cost, 9),
            )

        _, outcomes = run_workload(cache=False)
        scheduled = {
            o.ticket.index: (tuple(o.result.answer), round(o.cost, 9))
            for o in outcomes
        }
        assert scheduled == isolated

    def test_settle_indices_are_sequential(self):
        _, outcomes = run_workload(cache=False)
        assert [o.settle_index for o in outcomes] == list(range(N_JOBS))
        assert all(
            (o.result is None) != (o.error is None) for o in outcomes
        )


class TestMemoCache:
    def test_repeated_catalogs_hit_the_cache(self):
        scheduler, outcomes = run_workload(cache=True)
        cache = scheduler.cache
        assert cache is not None
        assert cache.hits > 0
        assert 0 < cache.hit_rate <= 1
        assert all(o.status == "ok" for o in outcomes)

    def test_cache_reduces_judgments_bought(self):
        plain_sched, plain = run_workload(cache=False)
        cached_sched, cached = run_workload(cache=True)
        spent = lambda outs: sum(o.cost for o in outs)  # noqa: E731
        assert spent(cached) < spent(plain)

    def test_cached_run_is_reproducible(self):
        _, first = run_workload(cache=True)
        _, second = run_workload(cache=True)
        assert [outcome_fingerprint(o) for o in first] == [
            outcome_fingerprint(o) for o in second
        ]

    def test_lookup_and_store_roundtrip(self):
        cache = ComparisonMemoCache()
        fp = "abc123"
        i = np.asarray([0, 1], dtype=np.intp)
        j = np.asarray([2, 3], dtype=np.intp)
        answers = np.asarray([True, False])
        cache.store_batch(fp, "crowd", 1, i, j, answers)
        hit, got = cache.lookup_batch(fp, "crowd", 1, i, j)
        assert hit.all()
        assert (got == answers).all()
        # the reversed pair orientation is normalised, answer flipped
        hit_rev, got_rev = cache.lookup_batch(fp, "crowd", 1, j, i)
        assert hit_rev.all()
        assert (got_rev == ~answers).all()
        # different redundancy is a different key
        miss, _ = cache.lookup_batch(fp, "crowd", 3, i, j)
        assert not miss.any()

    def test_invalidate(self):
        cache = ComparisonMemoCache()
        i = np.asarray([0], dtype=np.intp)
        j = np.asarray([1], dtype=np.intp)
        cache.store_batch("fp1", "crowd", 1, i, j, np.asarray([True]))
        cache.store_batch("fp2", "crowd", 1, i, j, np.asarray([True]))
        assert len(cache) == 2
        assert cache.invalidate(fingerprint="fp1") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_fingerprint_distinguishes_instances(self):
        catalogs = make_catalogs()
        assert fingerprint_instance(catalogs[0]) != fingerprint_instance(catalogs[1])
        assert fingerprint_instance(catalogs[0]) == fingerprint_instance(catalogs[0])


class TestAdmissionControl:
    def test_saturation(self):
        scheduler = CrowdScheduler(make_pools(), root_seed=1, max_pending=2)
        jobs = make_jobs(make_catalogs(), n_jobs=3)
        scheduler.submit(jobs[0])
        scheduler.submit(jobs[1])
        with pytest.raises(SchedulerSaturatedError) as excinfo:
            scheduler.submit(jobs[2])
        assert excinfo.value.capacity == 2

    def test_submit_after_run_is_an_error(self):
        scheduler = CrowdScheduler(make_pools(), root_seed=1)
        jobs = make_jobs(make_catalogs(), n_jobs=2)
        scheduler.submit(jobs[0])
        scheduler.run()
        with pytest.raises(RuntimeError, match="run"):
            scheduler.submit(jobs[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CrowdScheduler({}, root_seed=1)
        with pytest.raises(ValueError):
            CrowdScheduler(make_pools(), root_seed=1, quantum=0)
        with pytest.raises(ValueError):
            CrowdScheduler(make_pools(), root_seed=1, max_pending=0)

    def test_empty_run_settles_nothing(self):
        scheduler = CrowdScheduler(make_pools(), root_seed=1)
        assert scheduler.run() == []


class TestTenantBudgets:
    def test_tenant_cap_binds_jobs_jointly(self):
        scheduler = CrowdScheduler(
            make_pools(),
            root_seed=2015,
            cache=False,
            tenant_caps={"small": 100.0},
        )
        for job in make_jobs(make_catalogs(), n_jobs=2):
            scheduler.submit(job, tenant="small")
        outcomes = scheduler.run()
        assert {o.status for o in outcomes} == {"budget_exceeded"}
        for outcome in outcomes:
            assert outcome.error is not None
            assert outcome.error.partial.degraded_reason == "budget"
        # the joint bill respects the tenant cap
        assert scheduler.tenant_ledger("small").total_cost <= 100.0 + 1e-9

    def test_tenants_are_isolated(self):
        scheduler = CrowdScheduler(
            make_pools(),
            root_seed=2015,
            cache=False,
            tenant_caps={"capped": 50.0},
        )
        jobs = make_jobs(make_catalogs(), n_jobs=2)
        scheduler.submit(jobs[0], tenant="capped")
        scheduler.submit(jobs[1], tenant="free")
        outcomes = {o.tenant: o for o in scheduler.run()}
        assert outcomes["capped"].status == "budget_exceeded"
        assert outcomes["free"].status == "ok"


class TestTelemetry:
    def test_scheduler_records_and_replayed_job_spans(self):
        tracer = Tracer()
        run_workload(cache=True, tracer=tracer)
        kinds = {r["kind"] for r in tracer.records}
        assert {
            "job_admitted",
            "scheduler_tick",
            "batch_coalesced",
            "cache_hit",
            "job_settled",
        } <= kinds
        admitted = tracer.records_of_kind("job_admitted")
        assert [r["job_index"] for r in admitted] == list(range(N_JOBS))
        # per-job spans reach the scheduler's trace stamped with the index
        starts = [
            r
            for r in tracer.records_of_kind("span_start")
            if r.get("span") in ("job.max", "job.topk")
        ]
        assert len(starts) == N_JOBS
        assert sorted(r["job_index"] for r in starts) == list(range(N_JOBS))

    @pytest.mark.parametrize(
        "quantum, cache",
        [(16, False), (16, True), (None, False), (None, True)],
        ids=["q16-cache-off", "q16-cache-on", "qall-cache-off", "qall-cache-on"],
    )
    def test_job_records_stream_between_admission_and_settle(self, quantum, cache):
        """One live stream: every record lands once, in one ``seq``
        order, and each job's records lie between its ``job_admitted``
        and its ``job_settled``."""
        tracer = Tracer()
        run_workload(cache=cache, quantum=quantum, tracer=tracer)
        seqs = [r["seq"] for r in tracer.records]
        assert seqs == list(range(len(seqs)))
        kinds_by_job: dict[int, list[str]] = {}
        for record in tracer.records:
            if "job_index" in record:
                kinds_by_job.setdefault(record["job_index"], []).append(record["kind"])
        assert sorted(kinds_by_job) == list(range(N_JOBS))
        for kinds in kinds_by_job.values():
            assert kinds[0] == "job_admitted" and kinds.count("job_admitted") == 1
            assert kinds[-1] == "job_settled" and kinds.count("job_settled") == 1
            assert {"span_start", "span_end", "oracle_batch"} <= set(kinds)
        assert not any("job_seq" in r or "job_t" in r for r in tracer.records)
