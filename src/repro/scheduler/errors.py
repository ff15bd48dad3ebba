"""Typed errors raised by the multi-job scheduler."""

from __future__ import annotations

__all__ = ["JobCancelledError", "SchedulerSaturatedError"]


class JobCancelledError(RuntimeError):
    """A job was cancelled before it could settle.

    Cancellation is cooperative: :meth:`JobTicket.cancel
    <repro.scheduler.engine.JobTicket.cancel>` only sets a flag, and
    the scheduler honours it at the job's next control point — before
    launch, or at a parked oracle call, where this error is thrown
    into the job instead of the batch answers.  The ticket settles
    with outcome status ``"cancelled"``; money already spent stays
    spent (the ledgers are authoritative).

    Attributes
    ----------
    job_index:
        Admission index of the cancelled job, or the service-layer job
        id when the job was cancelled while still queued (before any
        scheduler admitted it).
    """

    def __init__(self, job_index: int | str):
        super().__init__(f"job {job_index} was cancelled before settling")
        self.job_index = job_index


class SchedulerSaturatedError(RuntimeError):
    """The scheduler's bounded admission queue refused a submission.

    Backpressure is explicit: a host system that keeps submitting past
    ``max_pending`` gets this typed error *before* any seeds are
    spawned or money is reserved, so it can shed load or retry later
    without corrupting the determinism contract of the jobs already
    admitted.

    Attributes
    ----------
    capacity:
        The configured queue bound (``max_pending``).
    pending:
        Jobs already admitted and waiting when the submission arrived.
    """

    def __init__(self, capacity: int, pending: int):
        super().__init__(
            f"scheduler queue is saturated: {pending} jobs pending against a "
            f"bound of {capacity}; settle the current batch with run() or "
            "raise max_pending"
        )
        self.capacity = capacity
        self.pending = pending
