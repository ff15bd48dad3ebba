"""Durable state for crowd-max runs: persistent cache + job journal.

Comparisons cost money; losing a process should not mean re-buying
them.  This package provides the two durability primitives, built on
the stdlib and numpy only (no scheduler imports — the scheduler
imports *us*):

* :class:`PersistentComparisonStore` — settled judgments in SQLite
  (WAL), one columnar row per cache segment per commit,
  version-stamped and checksummed, rebuilt cold on any validation
  failure;
* :class:`JobJournal` — an append-only, CRC-framed record of every
  batch a run bought, with torn-tail recovery, from which a killed
  scheduler run resumes bit-identically;
* :class:`DurabilityPolicy` — the opt-in switch wiring both into
  :class:`~repro.scheduler.engine.CrowdScheduler`.

See ``docs/DURABILITY.md`` for the recovery model and its contract.
"""

from .errors import DurabilityError, JournalMismatchError
from .journal import JOURNAL_FORMAT, JobJournal, JournalRecord
from .policy import DurabilityPolicy
from .store import (
    STORE_CACHE_VERSION,
    STORE_SCHEMA_VERSION,
    PersistentComparisonStore,
    StoreRebuiltWarning,
)

__all__ = [
    "DurabilityError",
    "JournalMismatchError",
    "JOURNAL_FORMAT",
    "JobJournal",
    "JournalRecord",
    "DurabilityPolicy",
    "STORE_CACHE_VERSION",
    "STORE_SCHEMA_VERSION",
    "PersistentComparisonStore",
    "StoreRebuiltWarning",
]
