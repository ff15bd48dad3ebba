"""Tests for repro.durability.store (the persistent comparison store).

The trust model under test: committed entries survive process
restarts byte-for-byte; any validation failure — version stamps,
per-segment-row checksums and blob layout, or an unreadable file —
rebuilds the store cold with a :class:`StoreRebuiltWarning` instead of
serving suspect judgments.

The store speaks columns (``{segment: (lo, hi, lo_wins)}``); the
helpers below convert to and from the per-pair ``{key: lo_wins}`` view
the cases are written in.
"""

import sqlite3

import numpy as np
import pytest

from repro.durability import PersistentComparisonStore, StoreRebuiltWarning
from repro.durability.store import _row_checksum

KEY_A = ("f" * 64, "crowd", 3, 1, 5)
KEY_B = ("f" * 64, "experts", 1, 2, 9)
KEY_C = ("e" * 64, "crowd", 3, 0, 7)


def columns(entries):
    """``[(key, lo_wins), ...]`` grouped into ``write_entries`` columns."""
    grouped = {}
    for (fingerprint, pool, judgments, lo, hi), lo_wins in entries:
        grouped.setdefault((fingerprint, pool, judgments), []).append((lo, hi, lo_wins))
    return {
        segment: (
            np.array([lo for lo, _, _ in rows]),
            np.array([hi for _, hi, _ in rows]),
            np.array([w for _, _, w in rows], dtype=bool),
        )
        for segment, rows in grouped.items()
    }


def as_dict(segments):
    """Columns from ``load()`` expanded to ``{key: lo_wins}``."""
    return {
        (*segment, int(lo), int(hi)): bool(w)
        for segment, cols in segments.items()
        for lo, hi, w in zip(*cols)
    }


def seeded_store(path):
    store = PersistentComparisonStore(path)
    store.write_entries(columns([(KEY_A, True), (KEY_B, False), (KEY_C, True)]))
    return store


def rewrite_blob(path, key, edit, resign=False):
    """Apply ``edit`` to the blob of ``key``'s segment row, in place."""
    conn = sqlite3.connect(path)
    with conn:
        (pairs,) = conn.execute(
            "SELECT pairs FROM comparisons WHERE fingerprint = ? AND pool = ?"
            " AND judgments = ?",
            key[:3],
        ).fetchone()
        pairs = edit(bytes(pairs))
        checksum = _row_checksum(*key[:3], pairs) if resign else None
        conn.execute(
            "UPDATE comparisons SET pairs = ?, checksum = coalesce(?, checksum)"
            " WHERE fingerprint = ? AND pool = ? AND judgments = ?",
            (pairs, checksum, *key[:3]),
        )
    conn.close()


class TestRoundTrip:
    def test_load_returns_written_entries(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert as_dict(store.load()) == {KEY_A: True, KEY_B: False, KEY_C: True}
        assert len(store) == 3

    def test_entries_survive_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        reopened = PersistentComparisonStore(path)
        assert as_dict(reopened.load()) == {KEY_A: True, KEY_B: False, KEY_C: True}
        assert reopened.rebuilt_reason is None

    def test_write_is_upsert(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.write_entries(columns([(KEY_A, False)])) == 1
        assert as_dict(store.load())[KEY_A] is False
        assert len(store) == 3

    def test_duplicate_pair_in_one_write_keeps_last(self, tmp_path):
        store = PersistentComparisonStore(tmp_path / "c.sqlite3")
        assert store.write_entries(columns([(KEY_A, True), (KEY_A, False)])) == 2
        assert as_dict(store.load()) == {KEY_A: False}
        assert len(store) == 1

    def test_one_row_per_segment_per_commit(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        store = seeded_store(path)
        store.write_entries(columns([(KEY_A, False), ((*KEY_A[:3], 2, 4), True)]))
        store.close()
        conn = sqlite3.connect(path)
        rows = conn.execute("SELECT COUNT(*) FROM comparisons").fetchone()[0]
        conn.close()
        assert rows == 4  # three segments, then one more row for KEY_A's

    def test_empty_write_is_noop(self, tmp_path):
        store = PersistentComparisonStore(tmp_path / "c.sqlite3")
        assert store.write_entries({}) == 0
        assert store.write_entries(columns([])) == 0

    def test_iter_yields_entries(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert as_dict(dict(store)) == as_dict(store.load())

    def test_out_of_range_index_is_refused(self, tmp_path):
        store = PersistentComparisonStore(tmp_path / "c.sqlite3")
        with pytest.raises(ValueError):
            store.write_entries(columns([(("f" * 64, "crowd", 1, -1, 3), True)]))
        assert len(store) == 0


class TestInvalidate:
    def test_by_fingerprint(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(fingerprint="f" * 64) == 2
        assert as_dict(store.load()) == {KEY_C: True}

    def test_by_pool(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(pool_name="crowd") == 2
        assert as_dict(store.load()) == {KEY_B: False}

    def test_intersection(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(fingerprint="f" * 64, pool_name="crowd") == 1
        assert as_dict(store.load()) == {KEY_B: False, KEY_C: True}

    def test_everything(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate() == 3
        assert store.load() == {}

    def test_counts_pairs_not_rows(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        store.write_entries(columns([(KEY_A, False), ((*KEY_A[:3], 2, 4), True)]))
        assert store.invalidate(fingerprint="f" * 64, pool_name="crowd") == 2


class TestRebuild:
    def test_schema_version_mismatch_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning, match="schema_version mismatch"):
            store = PersistentComparisonStore(path, schema_version=99)
        assert store.load() == {}
        assert "schema_version" in store.rebuilt_reason

    def test_cache_version_mismatch_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning, match="cache_version mismatch"):
            store = PersistentComparisonStore(path, cache_version=2)
        assert store.load() == {}
        # The rebuilt store is stamped with the new version: reopening
        # at that version is clean and the entries stay gone.
        store.close()
        reopened = PersistentComparisonStore(path, cache_version=2)
        assert reopened.rebuilt_reason is None
        assert reopened.load() == {}

    def test_corrupted_row_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        # Flip one stored answer byte without updating the row checksum.
        rewrite_blob(path, KEY_A, lambda pairs: pairs[:-1] + bytes([pairs[-1] ^ 1]))
        with pytest.warns(StoreRebuiltWarning, match="checksum"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        assert "checksum" in store.rebuilt_reason

    @pytest.mark.parametrize("resign", [False, True], ids=["stale-checksum", "resigned"])
    def test_truncated_blob_rebuilds_cold(self, tmp_path, resign):
        """A blob cut short — even one re-signed so its checksum matches —
        is not a whole number of pairs and must not be decoded."""
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        rewrite_blob(path, KEY_A, lambda pairs: pairs[:-1], resign=resign)
        with pytest.warns(StoreRebuiltWarning, match="layout"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}

    def test_v1_layout_file_rebuilds_cold(self, tmp_path):
        """A store written by schema v1 (one row a pair) is not trusted."""
        path = tmp_path / "c.sqlite3"
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute(
                "CREATE TABLE comparisons (fingerprint TEXT NOT NULL, pool TEXT NOT NULL,"
                " judgments INTEGER NOT NULL, lo INTEGER NOT NULL, hi INTEGER NOT NULL,"
                " lo_wins INTEGER NOT NULL, checksum TEXT NOT NULL,"
                " PRIMARY KEY (fingerprint, pool, judgments, lo, hi))"
            )
            conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
            conn.execute("INSERT INTO meta VALUES ('cache_version', '1')")
            conn.execute(
                "INSERT INTO comparisons VALUES (?, ?, ?, ?, ?, ?, ?)",
                (*KEY_A, 1, "0" * 16),
            )
        conn.close()
        with pytest.warns(StoreRebuiltWarning, match="schema_version mismatch"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        store.write_entries(columns([(KEY_B, True)]))
        store.close()
        assert as_dict(PersistentComparisonStore(path).load()) == {KEY_B: True}

    def test_garbage_file_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        path.write_bytes(b"this is not a sqlite database, not even close\n" * 40)
        with pytest.warns(StoreRebuiltWarning, match="not a readable"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        store.write_entries(columns([(KEY_A, True)]))
        store.close()
        assert as_dict(PersistentComparisonStore(path).load()) == {KEY_A: True}

    def test_rebuilt_store_is_usable(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning):
            store = PersistentComparisonStore(path, cache_version=2)
        store.write_entries(columns([(KEY_B, True)]))
        assert as_dict(store.load()) == {KEY_B: True}
