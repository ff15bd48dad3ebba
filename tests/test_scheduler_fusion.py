"""Tests for fused tick settlement (cross-job batch fusion).

The tentpole contract (see docs/SCHEDULER.md): fused settlement —
all fast-path-eligible parked requests of a tick settled in one
platform pass per (pool, worker-model) group — is *bit-identical* to
serving every request alone (the :class:`SerialScheduler` reference
below), which in turn equals isolated per-job execution.  Answers,
money, judgment counts, per-tenant ledgers and cache traffic must all
agree, across quanta, job mixes and with the cross-job cache on.  The
scheduler runs only jobs that expose a ``steps()`` generator.
"""

import numpy as np
import pytest

from repro.platform.platform import CrowdPlatform
from repro.scheduler import CrowdScheduler
from repro.telemetry import Tracer
from repro.telemetry.names import EVENT_KINDS, SPAN_NAMES, TIMER_NAMES

from test_scheduler import make_catalogs, make_jobs, make_pools

N_JOBS = 6


class SerialScheduler(CrowdScheduler):
    """The parity reference: every admitted request is served alone.

    Admission, seeding, journal replay and resume are the engine's
    own; only the settle phase differs.  Each request is looked up in
    the cache and its misses bought through the platform's own
    ``compare_batch`` before the next request is touched, so no two
    requests ever share a platform pass, a decide call or a cache
    snapshot.
    """

    def _settle_requests(self, admitted):
        replay = self._replayed(admitted)
        for ticket in admitted:
            request, ticket.request = ticket.request, None
            ticket._inflight = request
            slot = replay.get(ticket.index)
            if slot is not None:
                self._replay_serve(ticket, request, *slot)
                continue
            lookup = self._lookup(ticket, request)
            if len(lookup.miss):
                self._buy(lookup)
            else:
                self._record_serve(lookup)


def run_arm(scheduler_cls, seed=2015, quantum=None, cache=False, tracer=None, jobs=None):
    scheduler = scheduler_cls(
        make_pools(),
        root_seed=seed,
        cache=cache,
        quantum=quantum,
        tracer=tracer,
    )
    for job in jobs if jobs is not None else make_jobs(make_catalogs(seed), n_jobs=N_JOBS):
        scheduler.submit(job)
    return scheduler, scheduler.run()


def per_job_facts(outcomes):
    """Answers, money, and judgment counts, keyed by admission index."""
    facts = {}
    for outcome in outcomes:
        assert outcome.result is not None, outcome.error
        platform = outcome.ticket.platform
        facts[outcome.ticket.index] = (
            tuple(outcome.result.answer),
            round(platform.ledger.total_cost, 9),
            platform.ledger.operations(),
        )
    return facts


class TestFusedParity:
    @pytest.mark.parametrize("quantum", [4, 16, None])
    def test_fused_equals_serial(self, quantum):
        _, fused = run_arm(CrowdScheduler, quantum=quantum)
        _, serial = run_arm(SerialScheduler, quantum=quantum)
        assert per_job_facts(fused) == per_job_facts(serial)

    @pytest.mark.parametrize("quantum", [4, None])
    def test_fused_equals_serial_with_cache(self, quantum):
        """The overlap flush makes every fused lookup see the store
        state one-at-a-time service would have: same hits, same bills."""
        fused_scheduler, fused = run_arm(CrowdScheduler, quantum=quantum, cache=True)
        serial_scheduler, serial = run_arm(SerialScheduler, quantum=quantum, cache=True)
        assert per_job_facts(fused) == per_job_facts(serial)
        fused_cache, serial_cache = fused_scheduler.cache, serial_scheduler.cache
        assert fused_cache.hits > 0
        assert (fused_cache.hits, fused_cache.misses, len(fused_cache)) == (
            serial_cache.hits,
            serial_cache.misses,
            len(serial_cache),
        )

    def test_fused_equals_isolated(self):
        """Fusion is invisible: same answers, same bill, same judgment
        count as each job run alone with the scheduler's seeding."""
        catalogs = make_catalogs()
        root = np.random.SeedSequence(2015)
        isolated = {}
        for index, job in enumerate(make_jobs(catalogs, n_jobs=N_JOBS)):
            job_seed, platform_seed = root.spawn(1)[0].spawn(2)
            platform = CrowdPlatform(
                make_pools(), rng=np.random.default_rng(platform_seed)
            )
            result = job.execute(platform, np.random.default_rng(job_seed))
            isolated[index] = (
                tuple(result.answer),
                round(platform.ledger.total_cost, 9),
                platform.ledger.operations(),
            )
        _, fused = run_arm(CrowdScheduler, quantum=None)
        assert per_job_facts(fused) == isolated

    @pytest.mark.parametrize("n_jobs", [1, 3, 6])
    def test_parity_across_job_mixes(self, n_jobs):
        jobs = lambda: make_jobs(make_catalogs(), n_jobs=n_jobs)  # noqa: E731
        _, fused = run_arm(CrowdScheduler, jobs=jobs())
        _, serial = run_arm(SerialScheduler, jobs=jobs())
        assert per_job_facts(fused) == per_job_facts(serial)

    def test_tenant_ledgers_match(self):
        def run(scheduler_cls):
            scheduler = scheduler_cls(make_pools(), root_seed=2015, cache=False)
            for k, job in enumerate(make_jobs(make_catalogs(), n_jobs=4)):
                scheduler.submit(job, tenant="even" if k % 2 == 0 else "odd")
            scheduler.run()
            return {
                tenant: round(scheduler.tenant_ledger(tenant).total_cost, 9)
                for tenant in ("even", "odd")
            }

        assert run(CrowdScheduler) == run(SerialScheduler)

    def test_fused_cached_run_is_reproducible(self):
        _, first = run_arm(CrowdScheduler, cache=True)
        _, second = run_arm(CrowdScheduler, cache=True)
        assert per_job_facts(first) == per_job_facts(second)


class TestFusionTelemetry:
    def test_names_are_declared(self):
        assert "batch_fused" in EVENT_KINDS
        assert {
            "scheduler.tick.settle",
            "scheduler.tick.scatter",
            "scheduler.tick.resume",
        } <= SPAN_NAMES
        assert {
            "scheduler.tick.settle.duration",
            "scheduler.tick.scatter.duration",
            "scheduler.tick.resume.duration",
        } <= TIMER_NAMES

    def test_fused_run_emits_batch_fused_and_phase_spans(self):
        tracer = Tracer()
        run_arm(CrowdScheduler, quantum=None, tracer=tracer)
        fused = tracer.records_of_kind("batch_fused")
        assert fused, "no batch_fused event in a fused run"
        assert all(r["requests"] >= 1 and r["judgments"] >= 1 for r in fused)
        spans = {r.get("span") for r in tracer.records_of_kind("span_start")}
        assert {
            "scheduler.tick.settle",
            "scheduler.tick.scatter",
            "scheduler.tick.resume",
        } <= spans

    def test_serial_run_emits_no_batch_fused(self):
        tracer = Tracer()
        run_arm(SerialScheduler, quantum=None, tracer=tracer)
        assert tracer.records_of_kind("batch_fused") == []


class TestStepsProtocol:
    def test_job_without_steps_is_refused_before_seeding(self):
        class SettleOnlyJob:
            """A ``submit()/settle()``-only job: no ``steps()`` generator."""

            def __init__(self, job):
                self._job = job
                self.instance = job.instance
                self.kind = job.kind

            def submit(self, platform, rng, tracer=None):
                self._job.submit(platform, rng, tracer=tracer)
                return self

            def settle(self):
                return self._job.settle()

        first, second = make_jobs(make_catalogs(), n_jobs=2)
        scheduler = CrowdScheduler(make_pools(), root_seed=2015, cache=False)
        with pytest.raises(TypeError, match="steps"):
            scheduler.submit(SettleOnlyJob(first))
        ticket = scheduler.submit(second)
        expected = CrowdScheduler(make_pools(), root_seed=2015, cache=False).submit(second)
        assert ticket.index == 0
        assert ticket.rng.bit_generator.state == expected.rng.bit_generator.state
        assert (
            ticket._platform_rng.bit_generator.state
            == expected._platform_rng.bit_generator.state
        )

    def test_synchronous_compare_batch_fails_the_job(self):
        class EagerJob:
            """Calls the platform from inside its generator instead of
            yielding the call as an ``OracleCall`` step."""

            def __init__(self, job):
                self.instance = job.instance
                self.kind = job.kind

            def submit(self, platform, rng, tracer=None):
                self._platform = platform
                return self

            def steps(self):
                answers, _ = self._platform.compare_batch(
                    "crowd", np.array([0]), np.array([1]), np.zeros(1), np.ones(1)
                )
                yield answers

        eager_job, plain_job = make_jobs(make_catalogs(), n_jobs=2)
        scheduler = CrowdScheduler(make_pools(), root_seed=2015, cache=False)
        eager = scheduler.submit(EagerJob(eager_job))
        plain = scheduler.submit(plain_job)
        scheduler.run()
        assert eager.outcome.status == "failed"
        assert isinstance(eager.outcome.error, RuntimeError)
        assert "OracleCall" in str(eager.outcome.error)
        assert eager.outcome.cost == 0.0
        assert plain.outcome.status == "ok"
