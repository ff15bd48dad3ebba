"""Cross-job comparison memo cache.

A :class:`~repro.core.oracle.ComparisonOracle` already memoizes within
one job — the paper's algorithms never re-pay for a pair they have
already compared.  But a host system answering many queries over the
*same catalog* (the ISSUE's CrowdDB scenario) re-buys every judgment
from scratch, because each job builds a fresh oracle.

:class:`ComparisonMemoCache` closes that gap at the scheduler layer: a
settled comparison is stored under

``(instance fingerprint, pool name, judgments per task, unordered pair)``

so any later job over a byte-identical catalog, asking the same worker
class at the same redundancy, reuses the answer for free.  The worker
class is part of the key on purpose — a naive-pool majority and an
expert judgment over the same pair are *different products* with
different error guarantees, and must never substitute for one another.

Each segment is held as two sorted columns: the packed pair codes
(``int64``, ascending, unique) and the answers normalised to "``lo``
wins" (``bool``).  A batch lookup is one ``np.searchsorted`` of its
codes; a batch store sorts the batch, keeps each pair's last answer,
overwrites the codes the segment already holds and inserts the rest
with ``np.insert``, so the columns stay sorted without a full re-sort.

Determinism note: serving answers from the cache skips the platform
machinery (no RNG draws, no payment), so a cache-enabled schedule is
*not* bit-identical to isolated execution — it is strictly cheaper.
Runs with the cache disabled are bit-identical to isolated per-job
execution; see ``docs/SCHEDULER.md`` for the full contract.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.instance import ProblemInstance
from ..durability.store import Columns, PersistentComparisonStore, Segment, last_answers
from ..telemetry import Tracer, resolve_tracer

__all__ = [
    "fingerprint_instance",
    "pair_codes",
    "ComparisonMemoCache",
    "DurableComparisonCache",
]


def fingerprint_instance(instance: ProblemInstance | np.ndarray) -> str:
    """Content hash identifying a catalog for cache keying.

    Two instances share a fingerprint exactly when their value arrays
    are byte-identical (same dtype, shape, and contents) — the only
    condition under which reusing a judgment is sound.
    """
    values = (
        instance.values
        if isinstance(instance, ProblemInstance)
        else np.asarray(instance)
    )
    values = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(values.dtype).encode("ascii"))
    digest.update(str(values.shape).encode("ascii"))
    digest.update(values.tobytes())
    return digest.hexdigest()


_INDEX_LIMIT = 1 << 31


def pair_codes(indices_i: np.ndarray, indices_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed unordered pair codes plus which pairs were flipped to make them.

    A pair ``(i, j)`` packs to ``lo << 32 | hi`` with ``lo = min(i, j)``
    and ``hi = max(i, j)``; ``flipped`` marks the pairs given as
    ``i > j``, whose answer is the negation of the stored "``lo`` wins".
    Indices must lie in ``[0, 2**31)``, the range the durable store
    keeps them in.
    """
    i = np.asarray(indices_i, dtype=np.int64)
    j = np.asarray(indices_j, dtype=np.int64)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    if len(lo) and (lo.min() < 0 or hi.max() >= _INDEX_LIMIT):
        raise ValueError("cached pair indices must lie in [0, 2**31)")
    return (lo << 32) | hi, i > j


#: A segment in memory: sorted unique pair codes and their "``lo`` wins" answers.
_SortedColumns = tuple[np.ndarray, np.ndarray]


def _merge(
    segment: _SortedColumns, codes: np.ndarray, lo_wins: np.ndarray
) -> tuple[_SortedColumns, np.ndarray]:
    """``segment`` with a sorted unique batch written in (the batch wins).

    Returns the merged columns and the batch codes whose answer is new
    or changed.  Answers of codes already held are overwritten in place;
    the code column is only ever replaced, never written, so code arrays
    handed to :meth:`ComparisonMemoCache._changed` stay valid.  The rest
    are inserted at their ``searchsorted`` positions, O(n + m log m)
    for a segment of n and a batch of m.
    """
    stored, stored_wins = segment
    pos = np.searchsorted(stored, codes)
    present = stored[np.minimum(pos, len(stored) - 1)] == codes
    at = pos[present]
    changed = ~present
    changed[present] = stored_wins[at] != lo_wins[present]
    stored_wins[at] = lo_wins[present]
    if not present.all():
        absent = ~present
        stored = np.insert(stored, pos[absent], codes[absent])
        stored_wins = np.insert(stored_wins, pos[absent], lo_wins[absent])
    return (stored, stored_wins), codes[changed]


class ComparisonMemoCache:
    """Memo of settled pairwise answers, shared across jobs.

    The memo is two sorted columns per *segment* ``(fingerprint, pool,
    judgments_per_task)``: the packed pair codes ``lo << 32 | hi`` (see
    :func:`pair_codes`) and the answers normalised to "``lo`` wins", so
    ``(3, 7)`` and ``(7, 3)`` hit the same entry.  A lookup is one
    ``np.searchsorted``; a store merges the batch into the columns
    (last write wins).  ``hits`` / ``misses`` count *pairs looked up*,
    giving the judgments-saved numerator the benchmark and the
    ``cache_hit`` telemetry report.  The optional ``tracer`` receives
    ``cache_invalidated`` events (and, in the durable subclass,
    ``cache_persisted``); it defaults to the ambient tracer, a no-op
    unless one was activated.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._segments: dict[Segment, _SortedColumns] = {}
        self.hits = 0
        self.misses = 0
        self.tracer = resolve_tracer(tracer)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        fingerprint: str,
        pool_name: str,
        judgments_per_task: int,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a pair batch against the cache.

        Returns ``(hit_mask, answers)``: positions where ``hit_mask``
        is ``True`` carry a valid cached answer (``True`` = first
        element of the pair wins); the rest must be bought fresh and
        read ``False``.  Updates the hit/miss counters.
        """
        size = len(indices_i)
        codes, flipped = pair_codes(indices_i, indices_j)
        segment = self._segments.get((fingerprint, pool_name, int(judgments_per_task)))
        if segment is None:
            self.misses += size
            return np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        stored, lo_wins = segment
        pos = np.minimum(np.searchsorted(stored, codes), len(stored) - 1)
        hit_mask = stored[pos] == codes
        hits = int(np.count_nonzero(hit_mask))
        self.hits += hits
        self.misses += size - hits
        return hit_mask, (lo_wins[pos] ^ flipped) & hit_mask

    def store_batch(
        self,
        fingerprint: str,
        pool_name: str,
        judgments_per_task: int,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        answers: np.ndarray,
    ) -> None:
        """Record freshly bought answers (``True`` = first wins).

        A pair given twice in one batch keeps its last answer.
        """
        if not len(indices_i):
            return
        key = (fingerprint, pool_name, int(judgments_per_task))
        codes, flipped = pair_codes(indices_i, indices_j)
        codes, lo_wins = last_answers(codes, np.asarray(answers, dtype=bool) ^ flipped)
        segment = self._segments.get(key)
        if segment is None:
            self._segments[key] = (codes, lo_wins)
            changed = codes
        else:
            self._segments[key], changed = _merge(segment, codes, lo_wins)
        self._changed(key, changed)

    def _changed(self, key: Segment, codes: np.ndarray) -> None:
        """Hook for the codes of ``key`` whose answer a store added or
        changed; subclasses that mirror stores to a backing medium
        extend this."""

    # ------------------------------------------------------------------
    # Introspection / invalidation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(codes) for codes, _ in self._segments.values())

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def invalidate(
        self, fingerprint: str | None = None, pool_name: str | None = None
    ) -> int:
        """Drop cached answers; returns how many pairs were removed.

        The invalidation hook for catalogs that change or pools whose
        workforce was re-calibrated: ``invalidate()`` clears everything,
        ``invalidate(fingerprint=...)`` one catalog,
        ``invalidate(pool_name=...)`` one worker class, and both
        together their intersection.  Counters are preserved — they
        describe traffic, not contents.  Emits one ``cache_invalidated``
        telemetry event carrying the selector and the eviction count.
        """
        doomed = [
            key
            for key in self._segments
            if (fingerprint is None or key[0] == fingerprint)
            and (pool_name is None or key[1] == pool_name)
        ]
        removed = sum(len(self._segments.pop(key)[0]) for key in doomed)
        if self.tracer.enabled:
            self.tracer.event(
                "cache_invalidated",
                fingerprint=fingerprint[:12] if fingerprint else None,
                pool=pool_name,
                removed=removed,
            )
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComparisonMemoCache(entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class DurableComparisonCache(ComparisonMemoCache):
    """A memo cache backed by a :class:`PersistentComparisonStore`.

    Construction warm-loads every stored judgment into memory through
    the store's :meth:`~PersistentComparisonStore.load` (the count is
    kept on :attr:`warm_entries`); every ``store_batch`` write-through
    commits the pairs it added or changed to SQLite, one row per
    segment in one transaction, and ``invalidate`` evicts from both
    layers.  Pairs re-stored with the answer they already hold (journal
    replay over a warm store) are not written again.  Lookups never
    touch the database — the in-memory columns are always a faithful image
    of the store, so the hot path is identical to the plain cache.

    The write-through is intentionally *after* the in-memory update and
    emits one ``cache_persisted`` event (plus the
    ``durability.cache_persisted`` counter) per committed batch.  When
    the scheduler journals a run, it appends the journal record before
    calling ``store_batch``, so the database can never hold a judgment
    whose provenance record could be torn away (see
    ``docs/DURABILITY.md``).
    """

    def __init__(
        self, store: PersistentComparisonStore, tracer: Tracer | None = None
    ) -> None:
        super().__init__(tracer=tracer)
        self.store = store
        for key, (lo, hi, lo_wins) in store.load().items():
            # ``load`` returns each segment sorted by ``(lo, hi)`` with
            # every pair once: the packed codes are already a column.
            self._segments[key] = ((lo.astype(np.int64) << 32) | hi, lo_wins)
        #: Entries warm-loaded from disk at construction.
        self.warm_entries = len(self)
        #: When ``True`` (set by the scheduler while journaling), the
        #: SQLite write-through is buffered and only lands at
        #: :meth:`flush_pending` — after the tick's journal group is
        #: durable.  In-memory visibility is immediate either way.
        self.deferred = False
        self._pending: dict[Segment, list[np.ndarray]] = {}

    def _changed(self, key: Segment, codes: np.ndarray) -> None:
        self._pending.setdefault(key, []).append(codes)
        if not self.deferred:
            self.flush_pending()

    def flush_pending(self) -> int:
        """Commit the deferred write-through; returns entries flushed.

        Call only after the journal records covering these entries are
        durable — the journal-before-store ordering contract.
        """
        pending, self._pending = self._pending, {}
        columns: dict[Segment, Columns] = {}
        for key, parts in pending.items():
            # Each part is sorted and unique; a pair changed by several
            # batches is written once, with the segment's final answer.
            codes = parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
            if not len(codes):
                continue
            stored, lo_wins = self._segments[key]
            columns[key] = (
                codes >> 32,
                codes & 0xFFFFFFFF,
                lo_wins[np.searchsorted(stored, codes)],
            )
        written = self.store.write_entries(columns)
        if written:
            if self.tracer.enabled:
                self.tracer.event("cache_persisted", entries=written)
            self.tracer.count("durability.cache_persisted", written)
        return written

    def invalidate(
        self, fingerprint: str | None = None, pool_name: str | None = None
    ) -> int:
        self.flush_pending()
        removed = super().invalidate(fingerprint=fingerprint, pool_name=pool_name)
        self.store.invalidate(fingerprint=fingerprint, pool_name=pool_name)
        return removed

    def close(self) -> None:
        """Close the backing store (committed entries stay on disk)."""
        self.flush_pending()
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableComparisonCache(entries={len(self)}, "
            f"warm={self.warm_entries}, path={str(self.store.path)!r})"
        )
