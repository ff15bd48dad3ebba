"""Opt-in configuration for durable scheduler state.

A :class:`DurabilityPolicy` names one state directory and switches on
the two durable artifacts that live inside it:

* ``comparisons.sqlite3`` — the persistent comparison store backing
  the cross-job memo cache (:mod:`repro.durability.store`), written
  whenever the scheduler has a cache;
* ``journal.jsonl`` — the append-only job journal that makes a killed
  run resumable (:mod:`repro.durability.journal`), always written.

Durability is strictly opt-in: without a policy the scheduler behaves
exactly as before and writes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["DurabilityPolicy"]


@dataclass(frozen=True)
class DurabilityPolicy:
    """Where and how a scheduler run persists its state.

    Attributes
    ----------
    store_path:
        Directory holding every durable artifact for the run.  Created
        on first use.  Reusing the directory across runs is the point:
        the comparison store warms future runs, and the journal lets a
        killed run resume.
    crash_after_appends:
        Passed through to :class:`~repro.durability.journal.JobJournal`;
        a crash-harness hook that SIGKILLs the process while it writes
        its N-th journal line, leaving that line torn.  ``None`` in
        normal operation.
    """

    store_path: str | Path
    crash_after_appends: int | None = None

    @property
    def root(self) -> Path:
        """The state directory as a :class:`~pathlib.Path`."""
        return Path(self.store_path)

    @property
    def cache_path(self) -> Path:
        """Where the persistent comparison store lives."""
        return self.root / "comparisons.sqlite3"

    @property
    def journal_path(self) -> Path:
        """Where the job journal lives."""
        return self.root / "journal.jsonl"
