"""The scheduler runner: generations of :class:`CrowdScheduler` behind HTTP.

:class:`~repro.scheduler.engine.CrowdScheduler` is deliberately
one-shot — its job set is fixed before the clock starts so admission
order (and therefore seeding) is unambiguous.  A long-lived HTTP
service reconciles that with dynamic submissions by running
**generations**: the runner thread drains the admission queue, builds
fresh pools and a fresh scheduler, settles the batch, maps the
outcomes back onto the wire records, and loops.

Two pieces of state deliberately outlive a generation:

* the **tenant ledgers** dict, injected into every scheduler via
  ``tenant_ledgers=``, so a tenant cap bounds lifetime spend across
  generations, not one batch's;
* nothing else — pools are rebuilt from a deterministic factory each
  generation (stateless across generations) and the cache is off, so
  an explicitly-seeded job's result does not depend on which
  generation served it or what shared the schedule.  That invariance
  is the HTTP↔in-process parity contract ``tests/test_service_http.py``
  and the ``http_load`` benchmark workload check.

Per-job telemetry is bridged per generation: the scheduler stamps
``job_index`` on every job-scoped record as it is emitted, and an
:class:`_EventBridgeSink` appends each such record to the generation's
held events (:meth:`ServiceState.hold_events`), which reach the owning
jobs' event streams (the ``/events`` endpoint) in emission order, in
one loop call when the generation ends, before any of its jobs
settles.  A job's ``job_settled`` is therefore the last record of its
stream.  A recording host tracer gets every record live, re-emitted
through its own ``event``, so a host trace keeps one ``seq`` and ``t``
order across generations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..platform.accounting import CostLedger
from ..platform.workforce import WorkerPool
from ..scheduler.engine import CrowdScheduler
from ..telemetry import Tracer, resolve_tracer
from ..workers import ThresholdWorkerModel
from .state import JobRecord, ServiceState

__all__ = ["ServiceConfig", "ServiceRunner", "default_pool_factory"]


def default_pool_factory() -> dict[str, WorkerPool]:
    """The canonical two-pool marketplace (fresh instances per call).

    Matches the repo-wide exemplar: a cheap error-prone crowd and a
    small expensive expert bench.  A fresh dict of fresh pools per
    generation keeps pools stateless across generations, which the
    parity contract requires.
    """
    return {
        "crowd": WorkerPool.homogeneous(
            "crowd",
            ThresholdWorkerModel(delta=1.0),
            size=20,
            cost_per_judgment=1.0,
        ),
        "experts": WorkerPool.homogeneous(
            "experts",
            ThresholdWorkerModel(delta=0.25, is_expert=True),
            size=3,
            cost_per_judgment=20.0,
        ),
    }


@dataclass
class ServiceConfig:
    """Everything a :class:`~repro.service_http.server.ServiceServer` needs.

    ``tokens`` maps bearer tokens to tenant names (the auth table);
    ``tenants`` optionally restricts which of those tenants are
    enabled (None = all named by tokens).  ``rate``/``burst`` shape
    the per-tenant submission token bucket; ``tenant_caps`` bind
    lifetime tenant budgets through the persistent ledger dict.
    ``max_queued`` bounds the admission queue (429 past it) and
    ``generation_max_jobs`` bounds one scheduler generation.
    """

    host: str = "127.0.0.1"
    port: int = 0
    tokens: Mapping[str, str] = field(default_factory=dict)
    tenants: tuple[str, ...] | None = None
    tenant_caps: Mapping[str, float] = field(default_factory=dict)
    rate: float | None = None
    burst: float = 10.0
    max_queued: int = 256
    generation_max_jobs: int = 64
    #: Retry-After fallback (seconds) for 429s that carry no wait hint.
    retry_after_s: float = 1.0
    #: Cap on one ``/result?wait=`` long-poll, whatever the client asks.
    result_wait_cap_s: float = 30.0
    pool_factory: Callable[[], dict[str, WorkerPool]] = default_pool_factory


#: The fields a tracer stamps on each record; the host stamps its own.
_STAMPS = frozenset({"kind", "seq", "t"})


class _EventBridgeSink:
    """A :class:`TraceSink` that routes job-stamped records to the wire.

    The scheduler emits every record live: job-scoped ones
    (``job_admitted``, the job's spans and batches, ``job_settled``)
    carry a ``job_index``, tick-level ones (``scheduler_tick``, ...)
    do not.  Records carrying a ``job_index`` belonging to this
    generation are handed, in emission order, to ``outbox`` — the
    generation's held events, which ``ServiceState.release_events``
    publishes onto their jobs' ``/events`` streams with one loop
    hand-off.  When the host tracer records, every record is also
    re-emitted through its ``event`` as it is written: the host stamps
    its own ``seq`` and ``t``, so its trace keeps one order across
    generations, and the outbox owns the generation's record dict.
    """

    def __init__(
        self,
        outbox: list[tuple[JobRecord, dict[str, Any]]],
        host: Tracer,
    ):
        self._outbox = outbox
        self._host = host if host.enabled else None
        #: job_index (this generation) → wire record.
        self.jobs: dict[int, JobRecord] = {}

    def write(self, record: dict[str, Any]) -> None:
        if self._host is not None:
            fields = {k: v for k, v in record.items() if k not in _STAMPS}
            self._host.event(record["kind"], **fields)
        index = record.get("job_index")
        if not isinstance(index, int):
            return
        target = self.jobs.get(index)
        if target is not None:
            self._outbox.append((target, record))

    def close(self) -> None:
        pass  # the host owns its tracer's sink


class ServiceRunner:
    """The one background thread that turns queued records into outcomes."""

    def __init__(
        self,
        state: ServiceState,
        config: ServiceConfig,
        tracer: Tracer | None = None,
    ):
        self._state = state
        self._config = config
        self._tracer = resolve_tracer(tracer)
        #: Injected into every generation's scheduler: tenant spend
        #: accumulates across generations, so caps bind lifetime spend.
        self._tenant_ledgers: dict[str, CostLedger] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-runner", daemon=True
        )

    def start(self) -> None:
        """Start the daemon runner thread (idempotence not required)."""
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the runner loop to exit and join its thread."""
        self._stop.set()
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            batch = self._state.take_batch(
                self._config.generation_max_jobs, timeout=0.05
            )
            if batch:
                self._run_generation(batch)

    def _run_generation(self, batch: list[JobRecord]) -> None:
        generation = self._state.next_generation()
        bridge = _EventBridgeSink(self._state.hold_events(), self._tracer)
        # The generation tracer always runs through the bridge — the
        # ``/events`` stream works even when the host traces nothing.
        tracer = Tracer(sink=bridge)
        scheduler = CrowdScheduler(
            pools=self._config.pool_factory(),
            # Every wire job carries an explicit seed, so the root only
            # feeds jobs that would be submitted without one (none).
            root_seed=2015,
            cache=False,  # parity: isolated-equivalent mode
            quantum=None,
            max_pending=max(len(batch), 1),
            tenant_caps=dict(self._config.tenant_caps),
            tenant_ledgers=self._tenant_ledgers,
            tracer=tracer,
        )
        admitted: list[JobRecord] = []
        with self._tracer.span("service.generation", jobs=len(batch)):
            for record in batch:
                try:
                    # A taken record is unsettled, so it still has its spec.
                    assert record.spec is not None
                    job = record.spec.build_job()
                    ticket = scheduler.submit(
                        job, tenant=record.tenant, seed=record.seed
                    )
                except Exception as exc:  # repro-lint: disable=ERR003 -- admission boundary per job
                    self._state.publish(
                        record, {"kind": "job_settled", "status": "failed"}
                    )
                    self._state.settle(record, "failed", None, exc, None)
                    continue
                bridge.jobs[ticket.index] = record
                self._state.mark_running(record, generation, ticket)
                if record.cancel_requested:
                    # Cancelled in the queued→running window: the flag
                    # was set before the ticket existed, so propagate.
                    ticket.cancel()
                admitted.append(record)
            try:
                outcomes = scheduler.run()
            except Exception as exc:  # repro-lint: disable=ERR003 -- generation boundary
                self._state.release_events()
                for record in admitted:
                    self._state.settle(record, "failed", None, exc, None)
                return
        # Every event of the generation reaches the loop before any
        # settle sentinel does.
        self._state.release_events()
        for outcome in outcomes:
            record = bridge.jobs.get(outcome.ticket.index)
            if record is None:
                continue
            self._state.settle(
                record,
                outcome.status,
                outcome.result,
                outcome.error,
                outcome.cost,
            )
            self._tracer.count("service.jobs_settled")
