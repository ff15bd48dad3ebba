"""Crowdsourcing platform simulator (the CrowdFlower substitute).

See DESIGN.md: the paper ran on the CrowdFlower platform; this package
provides a faithful simulator — worker pools with partial availability,
batches resolved over physical steps, gold-question spam control, and
per-judgment billing — exposing the same observable interface the
algorithms need (answers to comparison batches, and a bill).

On top of the paper's model sits a resilience layer (see
``docs/RELIABILITY.md``): :class:`FaultPlan` injects reproducible
worker faults, :class:`RetryPolicy` governs retries / deadlines /
fallback pools, batches settle with per-task :class:`TaskReport`
statuses instead of stalling, and the :class:`CostLedger` can enforce a
mid-flight hard budget cap via typed :class:`CostCapError`.
"""

from .accounting import CostLedger, LedgerEntry
from .channels import Channel, build_pool_from_channels
from .errors import CostCapError, DegradedBatchError, PlatformError
from .faults import FaultPlan, RetryPolicy
from .gold import GoldPair, GoldPolicy
from .job import BatchReport, ComparisonTask, Judgment, TaskReport
from .oracle_adapter import PlatformWorkerModel
from .platform import CrowdPlatform, FastBatch, FastBatchPlan, fast_model_groups
from .reliability import ReliabilityReport, score_workers, select_experts
from .workforce import SimulatedWorker, WorkerPool

__all__ = [
    "BatchReport",
    "Channel",
    "ComparisonTask",
    "CostCapError",
    "CostLedger",
    "CrowdPlatform",
    "DegradedBatchError",
    "FastBatch",
    "FastBatchPlan",
    "FaultPlan",
    "GoldPair",
    "GoldPolicy",
    "Judgment",
    "LedgerEntry",
    "PlatformError",
    "PlatformWorkerModel",
    "ReliabilityReport",
    "RetryPolicy",
    "SimulatedWorker",
    "TaskReport",
    "WorkerPool",
    "build_pool_from_channels",
    "score_workers",
    "select_experts",
]
