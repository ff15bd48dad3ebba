"""Shared job registry between the asyncio server and the runner thread.

The serving layer has exactly two threads that matter: the asyncio
event loop (HTTP handlers) and the scheduler runner
(:mod:`repro.service_http.runner`), which blocks inside
``CrowdScheduler.run``.  This module is the only place they meet.

Discipline:

* job **status / result** fields are guarded by one ``threading.Lock``
  (both sides read and write them);
* the **admission queue** lives under the same lock; the runner blocks
  on a ``threading.Event`` until work arrives;
* **event fan-out** (the ``/events`` stream) and the settle
  notification (``asyncio.Event`` behind the result long-poll) are
  marshalled onto the loop with ``call_soon_threadsafe`` — asyncio
  primitives are only ever touched on the loop thread.  A running
  generation's job events are held (:meth:`ServiceState.hold_events`)
  and handed over in one call when it ends, before any of its jobs
  settles (:meth:`ServiceState.release_events`), so each job's events
  precede its settle sentinel.

Backpressure is checked at :meth:`ServiceState.submit` **before** any
job id, record, or seed exists, so a refused submission costs nothing
and perturbs nothing — the wire twin of
:meth:`CrowdScheduler.submit`'s check-before-spawn discipline.

Retention is bounded: the registry keeps every queued and running
record and the last :data:`_MAX_SETTLED_RECORDS` settled ones, in
settle order.  An older settled record leaves the registry, and its id
answers 404 ``not_found``; a long-poll or event stream that already
holds the record still finishes.  A settled record also drops its
spec, which no route serves, so the registry's memory stays flat
however long the server runs.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any

from ..jobs import CrowdJobResult
from ..scheduler.engine import JobTicket
from ..scheduler.errors import JobCancelledError, SchedulerSaturatedError
from .errors import ConflictError, ForbiddenError, NotFoundError
from .wire import SETTLED_STATES, JobSpec, JobView

__all__ = ["JobRecord", "ServiceState"]

#: Event-buffer bound per job: the newest records win; a client that
#: needs the full firehose attaches a tracer sink server-side instead.
_MAX_EVENTS_PER_JOB = 512
#: Settled records kept for lookup, newest last; an older settled job
#: is evicted and its id answers 404.
_MAX_SETTLED_RECORDS = 4096


class JobRecord:
    """One wire job, from submission to settled outcome."""

    def __init__(self, job_id: str, tenant: str, spec: JobSpec):
        self.job_id = job_id
        self.tenant = tenant
        #: The runner builds the job from it; dropped at settle, since
        #: no route serves it and the view needs only these two fields.
        self.spec: JobSpec | None = spec
        self.kind = spec.kind
        self.seed = spec.seed
        self.status = "queued"
        self.generation: int | None = None
        self.result: CrowdJobResult | None = None
        self.error: BaseException | None = None
        self.cost: float | None = None
        #: Set once the runner admitted the job to a scheduler
        #: generation; the handle cancellation goes through.  Released
        #: at settle, so a settled job keeps its result but not the
        #: job object, tenant platform and tracer behind the ticket.
        self.ticket: JobTicket | None = None
        #: Cooperative cancel flag for the queued→running race: the
        #: runner re-checks it right after submitting to the scheduler.
        self.cancel_requested = False
        #: Bridged telemetry records (loop thread only).
        self.events: list[dict[str, Any]] = []
        #: Stream position of the next event (loop thread only); keeps
        #: counting once ``events`` is trimmed to its cap.
        self.next_seq = 0
        self.subscribers: list[asyncio.Queue] = []
        self.settled_event = asyncio.Event()

    def view(self) -> JobView:
        """The job's current wire-facing status view."""
        return JobView(
            job_id=self.job_id,
            tenant=self.tenant,
            kind=self.kind,
            status=self.status,
            seed=self.seed,
            generation=self.generation,
            cost=self.cost,
        )


class ServiceState:
    """The registry; see the module docstring for the threading rules."""

    def __init__(self, loop: asyncio.AbstractEventLoop, max_queued: int = 256):
        if max_queued < 1:
            raise ValueError("max_queued must be at least 1")
        self.loop = loop
        self.max_queued = max_queued
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        #: The settled records still in ``_records``, oldest first.
        self._settle_order: deque[JobRecord] = deque()
        self._pending: deque[JobRecord] = deque()
        self._work = threading.Event()
        self._next_id = 1
        self.generations = 0
        self.settled = 0
        #: Job events of the generation in flight, in emission order;
        #: ``None`` between generations.
        self._held: list[tuple[JobRecord, dict[str, Any]]] | None = None

    # ------------------------------------------------------------------
    # Loop-thread API (HTTP handlers)
    # ------------------------------------------------------------------
    def submit(self, tenant: str, spec: JobSpec) -> JobRecord:
        """Queue one job; 429 via ``SchedulerSaturatedError`` when full.

        The capacity check happens before the record (or anything
        derived from the spec's seed) is created, so shedding load is
        free — the wire contract the backpressure tests pin down.
        """
        with self._lock:
            if len(self._pending) >= self.max_queued:
                raise SchedulerSaturatedError(
                    capacity=self.max_queued, pending=len(self._pending)
                )
            job_id = f"j-{self._next_id:08d}"
            self._next_id += 1
            record = JobRecord(job_id, tenant, spec)
            self._records[job_id] = record
            self._pending.append(record)
            # Scheduled before the runner can take the record, so
            # job_queued leads the stream.
            self.publish(
                record, {"kind": "job_queued", "tenant": tenant, "seed": spec.seed}
            )
        self._work.set()
        return record

    def get(self, job_id: str, tenant: str) -> JobRecord:
        """Look up a job, enforcing tenant isolation (404 / 403).

        A settled job evicted from the registry is a 404 as well.
        """
        record = self._records.get(job_id)
        if record is None:
            raise NotFoundError(
                f"no such job: {job_id} (settled jobs are kept for the "
                f"last {_MAX_SETTLED_RECORDS} settles)"
            )
        if record.tenant != tenant:
            raise ForbiddenError(f"job {job_id} belongs to another tenant")
        return record

    def cancel(self, record: JobRecord) -> str:
        """Request cancellation; returns the status after the request.

        A queued job settles as ``"cancelled"`` right here, and its
        stream ends with ``job_cancelled`` and ``job_settled``; a running
        one gets the cooperative flag (and its scheduler ticket
        flagged) and settles at its next control point; a settled one
        is a 409 ``conflict`` — its outcome already stands.  A queued
        job the runner has already taken is not settled here either:
        the runner cancels its ticket on admission and settles it.  A
        running job's ``job_cancelled`` event queues behind the records
        its generation has emitted so far, so the stream keeps emission
        order.
        """
        with self._lock:
            status = record.status
            if status in SETTLED_STATES:
                raise ConflictError(
                    f"job {record.job_id} already settled as {status!r}"
                )
            record.cancel_requested = True
            event = {"kind": "job_cancelled", "was": status}
            held = self._held if status == "running" else None
            if held is not None:
                held.append((record, event))
            settled_now = False
            if status == "queued":
                try:
                    self._pending.remove(record)
                except ValueError:
                    pass  # the runner took it; the flag cancels it there
                else:
                    record.status = "cancelled"
                    record.error = JobCancelledError(record.job_id)
                    self._retire(record)
                    settled_now = True
            ticket = record.ticket
        if ticket is not None:
            ticket.cancel()
        if held is None:
            self.publish(record, event)
        if settled_now:
            self.publish(record, {"kind": "job_settled", "status": "cancelled"})
            self._notify_settled(record)
        return record.status

    async def wait_settled(self, record: JobRecord, timeout: float) -> bool:
        """Long-poll helper: True once settled, False on timeout."""
        if record.status in SETTLED_STATES:
            return True
        try:
            await asyncio.wait_for(record.settled_event.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def subscribe(self, record: JobRecord) -> asyncio.Queue:
        """Attach an event subscriber (loop thread only)."""
        queue: asyncio.Queue = asyncio.Queue()
        record.subscribers.append(queue)
        return queue

    def unsubscribe(self, record: JobRecord, queue: asyncio.Queue) -> None:
        """Detach an event subscriber (loop thread only)."""
        try:
            record.subscribers.remove(queue)
        except ValueError:
            pass  # already detached

    def counts(self) -> dict[str, int]:
        """Queue/running/settled/generation counts (``/healthz``).

        ``settled`` counts every job that ever settled, evicted ones
        included; the scan for ``running`` covers only what the
        registry retains.
        """
        with self._lock:
            queued = len(self._pending)
            running = sum(
                1 for r in self._records.values() if r.status == "running"
            )
        return {
            "queued": queued,
            "running": running,
            "settled": self.settled,
            "generations": self.generations,
        }

    # ------------------------------------------------------------------
    # Runner-thread API
    # ------------------------------------------------------------------
    def take_batch(self, limit: int, timeout: float) -> list[JobRecord]:
        """Drain up to ``limit`` queued jobs (blocking up to ``timeout``).

        ``_pending`` holds only queued jobs: ``cancel`` removes a queued
        job from it as it settles the job, and a cancel of a job taken
        here is settled by the runner.
        """
        self._work.wait(timeout)
        batch: list[JobRecord] = []
        with self._lock:
            while self._pending and len(batch) < limit:
                batch.append(self._pending.popleft())
            if not self._pending:
                self._work.clear()
        return batch

    def mark_running(
        self, record: JobRecord, generation: int, ticket: JobTicket
    ) -> None:
        """Stamp admission: running, in ``generation``, under ``ticket``."""
        with self._lock:
            record.status = "running"
            record.generation = generation
            record.ticket = ticket

    def settle(
        self,
        record: JobRecord,
        status: str,
        result: CrowdJobResult | None,
        error: BaseException | None,
        cost: float | None,
    ) -> None:
        """Record a terminal outcome, release the ticket, wake every waiter.

        The error is stored without its traceback chain: those frames
        belong to the scheduler, and a settled record that held them
        would keep the generation's pools and tickets alive.
        """
        _drop_tracebacks(error)
        with self._lock:
            record.status = status
            record.result = result
            record.error = error
            record.cost = cost
            record.ticket = None
            self._retire(record)
        self._notify_settled(record)

    def _retire(self, record: JobRecord) -> None:
        """File a record that just settled (``self._lock`` held).

        The record drops its spec and joins the settled window; the
        oldest settled records past ``_MAX_SETTLED_RECORDS`` leave the
        registry.  Queued and running records are never in the window.
        """
        record.spec = None
        self.settled += 1
        self._settle_order.append(record)
        while len(self._settle_order) > _MAX_SETTLED_RECORDS:
            del self._records[self._settle_order.popleft().job_id]

    def next_generation(self) -> int:
        """Allocate the next generation number (runner thread)."""
        with self._lock:
            self.generations += 1
            return self.generations

    # ------------------------------------------------------------------
    # Event fan-out (any thread → loop thread)
    # ------------------------------------------------------------------
    def publish(self, record: JobRecord, event: dict[str, Any]) -> None:
        """Append one event to the job's stream and fan it out.

        Safe from any thread: the mutation happens on the loop via
        ``call_soon_threadsafe`` so ``record.events`` and the
        subscriber queues are single-threaded.
        """
        self.loop.call_soon_threadsafe(self._publish_on_loop, [(record, dict(event))])

    def hold_events(self) -> list[tuple[JobRecord, dict[str, Any]]]:
        """Start holding a generation's job events (runner thread).

        Returns the list the generation appends its ``(record, event)``
        pairs to, in emission order; :meth:`release_events` publishes
        them.  The event dicts are handed over, not copied.  ``cancel``
        appends a running job's ``job_cancelled`` to the same list, so
        it lands where the cancel fell among the generation's records.
        """
        with self._lock:
            self._held = []
            return self._held

    def release_events(self) -> None:
        """Publish the held events, in order, with one loop hand-off."""
        with self._lock:
            held, self._held = self._held, None
        if held:
            self.loop.call_soon_threadsafe(self._publish_on_loop, held)

    def _publish_on_loop(self, events: list[tuple[JobRecord, dict[str, Any]]]) -> None:
        for record, event in events:
            event["seq"] = record.next_seq
            record.next_seq += 1
            record.events.append(event)
            if len(record.events) > _MAX_EVENTS_PER_JOB:
                del record.events[: -_MAX_EVENTS_PER_JOB]
            for queue in list(record.subscribers):
                queue.put_nowait(event)

    def _notify_settled(self, record: JobRecord) -> None:
        def _set() -> None:
            record.settled_event.set()
            for queue in list(record.subscribers):
                queue.put_nowait(None)  # sentinel: stream ends

        self.loop.call_soon_threadsafe(_set)


def _drop_tracebacks(error: BaseException | None) -> None:
    """Clear ``__traceback__`` on ``error`` and its cause/context chain."""
    pending = [error]
    seen: set[int] = set()
    while pending:
        exc = pending.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        exc.__traceback__ = None
        pending += (exc.__cause__, exc.__context__)
