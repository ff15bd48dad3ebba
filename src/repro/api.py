"""The stable public surface of ``repro``.

This module is the **canonical import point** for everything the
library supports long-term.  Import from here::

    from repro.api import CrowdMaxJob, CrowdScheduler, JobPhaseConfig

and your code only depends on names this module guarantees: additions
are backwards-compatible, removals go through a ``DeprecationWarning``
cycle first, and the internal module layout (``repro.jobs``,
``repro.scheduler.engine``, ...) is free to change underneath without
breaking you.  The ``API001`` rule of ``repro-lint`` (see
``docs/STATIC_ANALYSIS.md``) enforces the discipline mechanically:
example code must import from here, and nothing may import a
deprecated name outside its shim.

The surface, by layer:

* **Algorithms** (:mod:`repro.core`) — the paper's machinery:
  instances, the memoizing comparison oracle, the filtering phase, the
  2-MaxFind and randomized phase-2 algorithms, the end-to-end
  :func:`find_max`, and the ``u_n`` / error-probability estimators.
* **Worker models** (:mod:`repro.workers`) — threshold/Thurstone/
  majority-of-k/adversarial/spammer judges, the calibrated real-data
  model, and :func:`make_worker_classes`.
* **Datasets** (:mod:`repro.datasets`) — the paper's real-data
  instances (dot images, car prices, search relevance).
* **Platform** (:mod:`repro.platform`) — the CrowdFlower stand-in:
  pools, gold quality control, fault injection, retries, the cost
  ledger, and the typed platform error hierarchy.
* **Jobs** (:mod:`repro.jobs`) — declarative MAX / TOP-k queries
  with budget caps and the uniform ``submit()/settle()`` protocol;
  graceful degradation via :class:`ResiliencePolicy`.
* **Scheduler** (:mod:`repro.scheduler`) — deterministic multi-job
  execution over shared pools with fair-share admission, per-tenant
  budgets, and the cross-job comparison memo cache.
* **Service** (:mod:`repro.service_http`) — the HTTP serving layer:
  the versioned ``repro.service/v1`` wire shapes (:class:`JobSpec`,
  :class:`JobView`, ...), the single error-envelope registry
  (:data:`WIRE_ERRORS` / :func:`wire_code` / :func:`error_envelope`)
  that gives every typed error a stable wire code, the
  :class:`ServiceServer` / :class:`ServiceClient` pair, and the
  tenancy primitives (:class:`TenantAuth`, :class:`TokenBucket`).
* **Durability** (:mod:`repro.durability`) — opt-in persistent state:
  the SQLite-backed comparison store behind
  :class:`DurableComparisonCache` and the append-only job journal that
  lets a killed scheduler run resume bit-identically
  (``DurabilityPolicy(store_path=...)``).
* **Telemetry** (:mod:`repro.telemetry`) — structured tracing with
  declared record names.
* **Experiment drivers** (:mod:`repro.experiments`,
  :mod:`repro.parallel`) — seeded sweeps, the parallel run engine,
  and atomic result persistence.

``ResilientCrowdMaxJob`` completed its deprecation cycle and is gone:
pass ``resilience=ResiliencePolicy(...)`` to :class:`CrowdMaxJob`
instead.
"""

from __future__ import annotations

from .core import (
    CascadeMaxFinder,
    ComparisonOracle,
    ExpertAwareMaxFinder,
    FilterResult,
    MaxFindResult,
    ProblemInstance,
    adversarial_instance,
    estimate_perr,
    estimate_u_n,
    filter_candidates,
    find_max,
    planted_instance,
    randomized_maxfind,
    tiered_instance,
    two_maxfind,
    uniform_instance,
)
from .datasets import (
    SEARCH_QUERIES,
    cars_instance,
    dots_instance,
    search_instance,
)
from .durability import (
    DurabilityError,
    DurabilityPolicy,
    JobJournal,
    JournalMismatchError,
    PersistentComparisonStore,
    StoreRebuiltWarning,
)
from .experiments import (
    EstimationConfig,
    EstimationData,
    SweepConfig,
    SweepData,
    load_result,
    run_estimation_sweep,
    run_fault_sweep,
    save_result,
)
from .parallel import (
    RunError,
    RunResult,
    RunSpec,
    execute_runs,
    spawn_run_seeds,
)
from .platform import (
    CostCapError,
    CostLedger,
    CrowdPlatform,
    DegradedBatchError,
    FaultPlan,
    GoldPair,
    GoldPolicy,
    PlatformError,
    PlatformWorkerModel,
    RetryPolicy,
    WorkerPool,
)
from .jobs import (
    WIRE_SCHEMA,
    BudgetExceededError,
    CrowdJobResult,
    CrowdMaxJob,
    CrowdTopKJob,
    JobPhaseConfig,
    ResiliencePolicy,
)
from .scheduler import (
    ComparisonMemoCache,
    CrowdScheduler,
    DurableComparisonCache,
    JobCancelledError,
    JobOutcome,
    JobTicket,
    SchedulerSaturatedError,
    fingerprint_instance,
)
from .service_http import (
    JOB_STATES,
    SETTLED_STATES,
    WIRE_ERRORS,
    WIRE_STATUS,
    ConflictError,
    EventRecord,
    ForbiddenError,
    HealthView,
    InvalidRequestError,
    JobFailedError,
    JobSpec,
    JobView,
    MethodNotAllowedError,
    NotFoundError,
    RateLimitedError,
    RemoteServiceError,
    ResultEnvelope,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceResponse,
    ServiceServer,
    TenantAuth,
    TokenBucket,
    UnauthorizedError,
    default_pool_factory,
    error_envelope,
    wire_code,
    wire_status,
)
from .telemetry import (
    JsonlSink,
    MetricsRegistry,
    Tracer,
    resolve_tracer,
    set_active_tracer,
    use_tracer,
)
from .workers import (
    AdversarialWorkerModel,
    BiasedErrorBehavior,
    CalibratedCarsWorkerModel,
    MajorityOfKModel,
    RandomSpammerModel,
    ThresholdWorkerModel,
    ThurstoneWorkerModel,
    WorkerClass,
    make_worker_classes,
    majority_vote,
)

__all__ = [
    # algorithms
    "CascadeMaxFinder",
    "ComparisonOracle",
    "ExpertAwareMaxFinder",
    "FilterResult",
    "MaxFindResult",
    "ProblemInstance",
    "adversarial_instance",
    "estimate_perr",
    "estimate_u_n",
    "filter_candidates",
    "find_max",
    "planted_instance",
    "randomized_maxfind",
    "tiered_instance",
    "two_maxfind",
    "uniform_instance",
    # worker models
    "AdversarialWorkerModel",
    "BiasedErrorBehavior",
    "CalibratedCarsWorkerModel",
    "MajorityOfKModel",
    "RandomSpammerModel",
    "ThresholdWorkerModel",
    "ThurstoneWorkerModel",
    "WorkerClass",
    "make_worker_classes",
    "majority_vote",
    # datasets
    "SEARCH_QUERIES",
    "cars_instance",
    "dots_instance",
    "search_instance",
    # platform
    "CostCapError",
    "CostLedger",
    "CrowdPlatform",
    "DegradedBatchError",
    "FaultPlan",
    "GoldPair",
    "GoldPolicy",
    "PlatformError",
    "PlatformWorkerModel",
    "RetryPolicy",
    "WorkerPool",
    # jobs
    "BudgetExceededError",
    "CrowdJobResult",
    "CrowdMaxJob",
    "CrowdTopKJob",
    "JobPhaseConfig",
    "ResiliencePolicy",
    # scheduler
    "ComparisonMemoCache",
    "CrowdScheduler",
    "DurableComparisonCache",
    "JobCancelledError",
    "JobOutcome",
    "JobTicket",
    "SchedulerSaturatedError",
    "fingerprint_instance",
    # service (HTTP wire API)
    "WIRE_SCHEMA",
    "JOB_STATES",
    "SETTLED_STATES",
    "WIRE_ERRORS",
    "WIRE_STATUS",
    "ServiceError",
    "InvalidRequestError",
    "UnauthorizedError",
    "ForbiddenError",
    "NotFoundError",
    "MethodNotAllowedError",
    "ConflictError",
    "RateLimitedError",
    "JobFailedError",
    "RemoteServiceError",
    "wire_code",
    "wire_status",
    "error_envelope",
    "JobSpec",
    "JobView",
    "ResultEnvelope",
    "EventRecord",
    "HealthView",
    "TokenBucket",
    "TenantAuth",
    "ServiceConfig",
    "ServiceServer",
    "ServiceClient",
    "ServiceResponse",
    "default_pool_factory",
    # durability
    "DurabilityError",
    "DurabilityPolicy",
    "JobJournal",
    "JournalMismatchError",
    "PersistentComparisonStore",
    "StoreRebuiltWarning",
    # telemetry
    "JsonlSink",
    "MetricsRegistry",
    "Tracer",
    "resolve_tracer",
    "set_active_tracer",
    "use_tracer",
    # experiment drivers
    "EstimationConfig",
    "EstimationData",
    "RunError",
    "RunResult",
    "RunSpec",
    "SweepConfig",
    "SweepData",
    "execute_runs",
    "load_result",
    "run_estimation_sweep",
    "run_fault_sweep",
    "save_result",
    "spawn_run_seeds",
]
