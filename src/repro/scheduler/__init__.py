"""Multi-job scheduling over shared crowd pools.

The serving layer the paper's Section 1 gestures at: a host system
answering many crowd queries at once submits jobs (any class exposing
the ``steps()`` generator protocol of :mod:`repro.jobs`) to one
:class:`CrowdScheduler`, which runs each as a coroutine and settles
them against shared worker pools with fair-share admission,
per-tenant budget isolation, and a cross-job comparison memo cache.
The HTTP serving layer (:mod:`repro.service_http`) runs one scheduler
*generation* per admitted batch on top of this module.

See ``docs/SCHEDULER.md`` for the event loop, fairness policy, cache
semantics, and the determinism contract.
"""

from .cache import ComparisonMemoCache, DurableComparisonCache, fingerprint_instance
from .engine import CrowdScheduler, JobOutcome, JobTicket
from .errors import JobCancelledError, SchedulerSaturatedError

__all__ = [
    "CrowdScheduler",
    "JobTicket",
    "JobOutcome",
    "ComparisonMemoCache",
    "DurableComparisonCache",
    "fingerprint_instance",
    "JobCancelledError",
    "SchedulerSaturatedError",
]
