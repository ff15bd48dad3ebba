"""Persistent backing store for settled comparison judgments.

Comparisons are the unit of *money* in the paper's cost model — every
pairwise judgment is a paid crowd task — so the cross-job
:class:`~repro.scheduler.cache.ComparisonMemoCache` holds real spent
budget.  This module keeps that state alive across process restarts:
:class:`PersistentComparisonStore` is a SQLite (stdlib ``sqlite3``,
WAL mode) table of settled answers grouped by the cache's *segments*,

``(instance fingerprint, pool name, judgments per task)``

with **one row per segment per commit**.  A row's ``pairs`` BLOB holds
the segment's pairs as three columns back to back,
``<i4 lo ‖ <i4 hi ‖ u1 lo_wins`` (9 bytes a pair), with ``lo < hi``
and the answer normalised to "``lo`` wins", exactly mirroring the
in-memory normalisation.  Rows are read in commit order and later rows
win, so a pair written twice reads back with its last answer (upsert).

Trust model
-----------
A persistent store outlives the code that wrote it, so every open
validates before serving:

* a ``schema_version`` / ``cache_version`` stamp in the ``meta`` table
  — a mismatch (new code, old store or vice versa) **rebuilds cold**
  with a warning rather than serving judgments under a stale encoding;
* a per-segment-row checksum over the full segment key and the blob,
  plus a check that the blob is a whole number of pairs — any row that
  fails verification marks the whole store untrusted and it is rebuilt
  cold (reject-and-rebuild), because a store that tampers or bit-rots
  once cannot be trusted row-by-row.

Rebuilding loses only *cached reuse* (judgments will be re-bought);
it can never corrupt results, which is the right trade for a cache.
Writes go through SQLite transactions, so a crash mid-write leaves the
previous committed state, never a torn row.
"""

from __future__ import annotations

import hashlib
import sqlite3
import warnings
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_CACHE_VERSION",
    "StoreRebuiltWarning",
    "PersistentComparisonStore",
]

#: Layout version of the SQLite schema itself.  Version 2 stores one
#: BLOB row per segment per commit (version 1 stored one row a pair).
STORE_SCHEMA_VERSION = 2

#: Version of the judgment *encoding* (key normalisation, answer
#: polarity).  Bump whenever cached answers written by older code must
#: not be reused, even though the table layout still parses.
STORE_CACHE_VERSION = 1

#: One cache segment: (fingerprint, pool_name, judgments_per_task).
Segment = tuple[str, str, int]

#: A segment's pairs as columns: ``(lo, hi, lo_wins)`` with lo < hi.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Bytes one pair occupies in a row's blob: two int32 and one uint8.
_PAIR_BYTES = 9


class StoreRebuiltWarning(UserWarning):
    """A persistent store failed validation and was rebuilt cold."""


def _row_checksum(fingerprint: str, pool: str, judgments: int, pairs: bytes) -> str:
    """Checksum binding a segment row's full key to its pairs blob."""
    digest = hashlib.sha256(f"{fingerprint}|{pool}|{judgments}|".encode("utf-8"))
    digest.update(pairs)
    return digest.hexdigest()[:16]


def _encode(lo: np.ndarray, hi: np.ndarray, lo_wins: np.ndarray) -> bytes:
    """One row's blob: ``<i4 lo ‖ <i4 hi ‖ u1 lo_wins``."""
    lo, hi, lo_wins = np.asarray(lo), np.asarray(hi), np.asarray(lo_wins)
    if not len(lo) == len(hi) == len(lo_wins):
        raise ValueError("lo, hi and lo_wins columns must have one length")
    if lo.min() < 0 or hi.max() > np.iinfo(np.int32).max:
        raise ValueError("stored pair indices must lie in [0, 2**31)")
    return (
        lo.astype("<i4").tobytes()
        + hi.astype("<i4").tobytes()
        + lo_wins.astype(np.uint8).tobytes()
    )


def _decode(pairs: bytes) -> Columns:
    """Inverse of :func:`_encode` for a blob already verified whole."""
    count = len(pairs) // _PAIR_BYTES
    lo = np.frombuffer(pairs, dtype="<i4", count=count)
    hi = np.frombuffer(pairs, dtype="<i4", count=count, offset=4 * count)
    lo_wins = np.frombuffer(pairs, dtype=np.uint8, count=count, offset=8 * count)
    return lo.astype(np.intp), hi.astype(np.intp), lo_wins.astype(bool)


def last_answers(codes: np.ndarray, lo_wins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed pair codes sorted and unique, each with its *last* answer."""
    order = np.argsort(codes, kind="stable")
    codes, lo_wins = codes[order], lo_wins[order]
    last = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=last[:-1])
    return codes[last], lo_wins[last]


def _merge(rows: list[Columns]) -> Columns:
    """Concatenate a segment's rows, keeping each pair's *last* answer.

    The result is sorted by ``(lo, hi)``, so two stores holding the same
    judgments load to identical columns whatever their commit history.
    """
    lo, hi, lo_wins = (np.concatenate(column) for column in zip(*rows))
    codes, lo_wins = last_answers((lo.astype(np.int64) << 32) | hi, lo_wins)
    return codes >> 32, codes & 0xFFFFFFFF, lo_wins


class PersistentComparisonStore:
    """SQLite-backed map of settled comparisons, safe across restarts.

    Parameters
    ----------
    path:
        The database file (parent directories are created).
    schema_version, cache_version:
        Override the stamped versions — a test hook for exercising the
        mismatch-rebuild path; production code always uses the module
        constants.

    Opening validates the version stamps and **every segment row's
    checksum and layout**; any failure emits a
    :class:`StoreRebuiltWarning` and restarts the store cold (the
    reason is kept on :attr:`rebuilt_reason`).  The connection allows
    cross-thread use because the scheduler may be constructed and run
    on different threads, but access is expected to be serial (the
    scheduler's event loop is single-threaded).
    """

    def __init__(
        self,
        path: str | Path,
        schema_version: int = STORE_SCHEMA_VERSION,
        cache_version: int = STORE_CACHE_VERSION,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.schema_version = int(schema_version)
        self.cache_version = int(cache_version)
        #: Why the last open rebuilt the store, or ``None`` for a clean open.
        self.rebuilt_reason: str | None = None
        try:
            self._connect()
            self._ensure_schema()
        except sqlite3.DatabaseError:
            # Not a SQLite file at all (overwritten, bit-rotted header):
            # same trust model as a bad row — start cold, loudly.
            self._conn.close()
            self.path.unlink(missing_ok=True)
            self._connect()
            self._rebuild("file is not a readable SQLite database")

    def _connect(self) -> None:
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # FULL keeps every committed batch durable across power loss;
        # the store holds paid-for judgments, so losing a commit
        # re-spends money.
        self._conn.execute("PRAGMA synchronous=FULL")

    # ------------------------------------------------------------------
    # Schema / validation
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        cur = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        )
        if cur.fetchone() is None:
            self._create_schema()
            return
        stamped_schema = self._meta("schema_version")
        stamped_cache = self._meta("cache_version")
        if stamped_schema != str(self.schema_version):
            self._rebuild(
                f"schema_version mismatch (store {stamped_schema!r}, "
                f"code {self.schema_version!r})"
            )
            return
        if stamped_cache != str(self.cache_version):
            self._rebuild(
                f"cache_version mismatch (store {stamped_cache!r}, "
                f"code {self.cache_version!r})"
            )
            return
        fault = self._row_fault()
        if fault is not None:
            self._rebuild(f"{fault} (corrupted or tampered row)")

    def _create_schema(self) -> None:
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS comparisons ("
                " fingerprint TEXT NOT NULL,"
                " pool TEXT NOT NULL,"
                " judgments INTEGER NOT NULL,"
                " pairs BLOB NOT NULL,"
                " checksum TEXT NOT NULL)"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(self.schema_version),),
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('cache_version', ?)",
                (str(self.cache_version),),
            )

    def _meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    def _row_fault(self) -> str | None:
        """Why some segment row cannot be trusted, or ``None`` if all can."""
        try:
            rows = self._conn.execute(
                "SELECT fingerprint, pool, judgments, pairs, checksum FROM comparisons"
            )
            for fingerprint, pool, judgments, pairs, checksum in rows:
                if not isinstance(pairs, bytes) or len(pairs) % _PAIR_BYTES:
                    return "segment row layout mismatch (blob is not whole pairs)"
                if checksum != _row_checksum(
                    str(fingerprint), str(pool), int(judgments), pairs
                ):
                    return "segment row checksum mismatch"
        except sqlite3.DatabaseError:
            return "segment rows unreadable"
        return None

    def _rebuild(self, reason: str) -> None:
        """Drop everything and start cold, keeping the reason visible."""
        warnings.warn(
            f"persistent comparison store {self.path} rebuilt cold: {reason}",
            StoreRebuiltWarning,
            stacklevel=3,
        )
        self.rebuilt_reason = reason
        with self._conn:
            self._conn.execute("DROP TABLE IF EXISTS comparisons")
            self._conn.execute("DROP TABLE IF EXISTS meta")
        self._create_schema()

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    def _read(
        self, where: str = "", params: list[object] | None = None
    ) -> dict[Segment, Columns]:
        """The selected segments' pairs, later rows winning per pair."""
        rows: dict[Segment, list[Columns]] = {}
        for fingerprint, pool, judgments, pairs in self._conn.execute(
            "SELECT fingerprint, pool, judgments, pairs FROM comparisons"
            + where
            + " ORDER BY rowid",
            params or [],
        ):
            segment = (str(fingerprint), str(pool), int(judgments))
            rows.setdefault(segment, []).append(_decode(pairs))
        return {segment: _merge(parts) for segment, parts in rows.items()}

    def load(self) -> dict[Segment, Columns]:
        """All stored judgments as ``{segment: (lo, hi, lo_wins)}`` columns.

        Each segment's columns are sorted by ``(lo, hi)`` and hold every
        stored pair once, with the answer of the latest row that wrote
        it (upsert semantics).
        """
        return self._read()

    def write_entries(self, segments: Mapping[Segment, Columns]) -> int:
        """Commit settled judgments in one transaction; returns pairs written.

        Each segment's ``(lo, hi, lo_wins)`` columns become one row (one
        blob and one checksum); empty segments are skipped.  A pair
        already stored is superseded by the new row (upsert).
        """
        rows: list[tuple[str, str, int, bytes, str]] = []
        written = 0
        for (fingerprint, pool, judgments), (lo, hi, lo_wins) in segments.items():
            if not len(lo):
                continue
            pairs = _encode(lo, hi, lo_wins)
            judgments = int(judgments)
            rows.append(
                (
                    fingerprint,
                    pool,
                    judgments,
                    pairs,
                    _row_checksum(fingerprint, pool, judgments, pairs),
                )
            )
            written += len(lo)
        if rows:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO comparisons VALUES (?, ?, ?, ?, ?)", rows
                )
        return written

    def invalidate(
        self, fingerprint: str | None = None, pool_name: str | None = None
    ) -> int:
        """Delete the matching segments; returns how many pairs were removed.

        The same selector semantics as the in-memory cache's
        ``invalidate``: no filters clears everything, ``fingerprint``
        one catalog, ``pool_name`` one worker class, both their
        intersection.
        """
        clauses: list[str] = []
        params: list[object] = []
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if pool_name is not None:
            clauses.append("pool = ?")
            params.append(pool_name)
        where = " WHERE " + " AND ".join(clauses) if clauses else ""
        removed = sum(len(lo) for lo, _, _ in self._read(where, params).values())
        with self._conn:
            self._conn.execute("DELETE FROM comparisons" + where, params)
        return removed

    def __len__(self) -> int:
        """Distinct stored pairs across every segment."""
        return sum(len(lo) for lo, _, _ in self.load().values())

    def close(self) -> None:
        """Close the connection (committed data stays on disk)."""
        self._conn.close()

    def __enter__(self) -> "PersistentComparisonStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[tuple[Segment, Columns]]:
        return iter(self.load().items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentComparisonStore(path={str(self.path)!r}, "
            f"entries={len(self)})"
        )
