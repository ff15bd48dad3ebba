"""Differential tests: the sorted-column cross-job cache against a per-pair model.

:class:`ReferenceCache` is the cache as it was first written — one dict
entry per ``(fingerprint, pool, judgments, lo, hi)`` key, one Python
step per pair — kept here as the obviously-correct reference.  Seeded
random store / lookup / invalidate sequences over several segments,
with reversed orientations, ``i > j`` and duplicate pairs inside one
batch, must give identical hit masks, answers, lengths, counters and
eviction counts on :class:`ComparisonMemoCache` and
:class:`DurableComparisonCache`; a durable cache reopened from its
store must hold exactly its in-memory image.  One segment is also grown
past several thousand pairs by small batches that overwrite, re-store
and interleave the codes it holds, which is the store's merge path; the
durable cache must then write exactly the pairs whose answer changed.
"""

import numpy as np
import pytest

from repro.durability import PersistentComparisonStore
from repro.scheduler import ComparisonMemoCache, DurableComparisonCache

FINGERPRINTS = ("fa", "fb")
POOLS = ("crowd", "experts")
JUDGMENTS = (1, 3)
#: A small index range, so pairs repeat within and across batches.
N = 9


class ReferenceCache:
    """The per-pair dict cache: answers normalised to "``lo`` wins"."""

    def __init__(self):
        self.entries = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(fingerprint, pool, judgments, i, j):
        if i <= j:
            return (fingerprint, pool, judgments, i, j), False
        return (fingerprint, pool, judgments, j, i), True

    def lookup_batch(self, fingerprint, pool, judgments, indices_i, indices_j):
        hit_mask = np.zeros(len(indices_i), dtype=bool)
        answers = np.zeros(len(indices_i), dtype=bool)
        for k, (i, j) in enumerate(zip(indices_i, indices_j)):
            key, flipped = self.key(fingerprint, pool, judgments, int(i), int(j))
            if key not in self.entries:
                self.misses += 1
                continue
            self.hits += 1
            hit_mask[k] = True
            answers[k] = self.entries[key] != flipped
        return hit_mask, answers

    def store_batch(self, fingerprint, pool, judgments, indices_i, indices_j, answers):
        for i, j, first_wins in zip(indices_i, indices_j, answers):
            key, flipped = self.key(fingerprint, pool, judgments, int(i), int(j))
            self.entries[key] = bool(first_wins) != flipped

    def invalidate(self, fingerprint=None, pool_name=None):
        doomed = [
            key
            for key in self.entries
            if fingerprint in (None, key[0]) and pool_name in (None, key[1])
        ]
        for key in doomed:
            del self.entries[key]
        return len(doomed)

    def __len__(self):
        return len(self.entries)


def random_batch(rng):
    size = int(rng.integers(0, 12))
    indices_i = rng.integers(0, N, size=size)
    indices_j = rng.integers(0, N, size=size)
    if size > 1 and rng.random() < 0.3:
        # The same pair twice in one batch, once reversed.
        indices_i[-1], indices_j[-1] = indices_j[0], indices_i[0]
    return indices_i, indices_j


def random_segment(rng):
    return (
        FINGERPRINTS[rng.integers(len(FINGERPRINTS))],
        POOLS[rng.integers(len(POOLS))],
        int(JUDGMENTS[rng.integers(len(JUDGMENTS))]),
    )


def image(cache, n=N):
    """Every answer ``cache`` holds over indices below ``n``, probed pair
    by pair (counters kept)."""
    hits, misses = cache.hits, cache.misses
    grid_i, grid_j = np.triu_indices(n)
    out = {}
    for fingerprint in FINGERPRINTS:
        for pool in POOLS:
            for judgments in JUDGMENTS:
                mask, answers = cache.lookup_batch(fingerprint, pool, judgments, grid_i, grid_j)
                for i, j, hit, lo_wins in zip(grid_i, grid_j, mask, answers):
                    if hit:
                        out[(fingerprint, pool, judgments, int(i), int(j))] = bool(lo_wins)
    cache.hits, cache.misses = hits, misses
    return out


def drive(cache, model, seed, steps=250, on_step=None):
    """Apply one seeded operation sequence to both caches, comparing as we go."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        op = rng.random()
        segment = random_segment(rng)
        if op < 0.45:
            indices_i, indices_j = random_batch(rng)
            answers = rng.random(len(indices_i)) < 0.5
            cache.store_batch(*segment, indices_i, indices_j, answers)
            model.store_batch(*segment, indices_i, indices_j, answers)
        elif op < 0.93:
            indices_i, indices_j = random_batch(rng)
            got = cache.lookup_batch(*segment, indices_i, indices_j)
            want = model.lookup_batch(*segment, indices_i, indices_j)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        else:
            selector = {}
            if rng.random() < 0.5:
                selector["fingerprint"] = segment[0]
            if rng.random() < 0.5:
                selector["pool_name"] = segment[1]
            assert cache.invalidate(**selector) == model.invalidate(**selector)
        assert len(cache) == len(model)
        assert (cache.hits, cache.misses) == (model.hits, model.misses)
        if on_step is not None:
            on_step(rng)
    assert image(cache) == model.entries


@pytest.mark.parametrize("seed", range(6))
def test_memo_cache_matches_reference(seed):
    drive(ComparisonMemoCache(), ReferenceCache(), seed)


@pytest.mark.parametrize("deferred", [False, True], ids=["write-through", "deferred"])
@pytest.mark.parametrize("seed", range(3))
def test_durable_cache_matches_reference_and_its_store(tmp_path, seed, deferred):
    path = tmp_path / "c.sqlite3"
    cache = DurableComparisonCache(PersistentComparisonStore(path))
    cache.deferred = deferred

    def maybe_flush(rng):
        if deferred and rng.random() < 0.2:
            cache.flush_pending()

    model = ReferenceCache()
    drive(cache, model, seed, on_step=maybe_flush)
    cache.close()
    reopened = DurableComparisonCache(PersistentComparisonStore(path))
    assert reopened.store.rebuilt_reason is None
    assert reopened.warm_entries == len(reopened) == len(model)
    assert image(reopened) == model.entries
    assert len(reopened.store) == len(model)


#: The segment grown large, and its index range (7,260 unordered pairs).
LARGE = ("fa", "crowd", 1)
N_LARGE = 120


def mixed_batch(rng, held):
    """Up to 32 pairs, about 40% of them drawn from ``held`` (an ``(m, 2)``
    array of pairs already stored) in either orientation, sometimes with
    a pair repeated inside the batch."""
    size = int(rng.integers(1, 33))
    indices_i = rng.integers(0, N_LARGE, size=size)
    indices_j = rng.integers(0, N_LARGE, size=size)
    if len(held):
        old = rng.random(size) < 0.4
        pairs = held[rng.integers(0, len(held), size=int(old.sum()))]
        swap = rng.random(len(pairs)) < 0.5
        indices_i[old] = np.where(swap, pairs[:, 1], pairs[:, 0])
        indices_j[old] = np.where(swap, pairs[:, 0], pairs[:, 1])
    if size > 1 and rng.random() < 0.3:
        indices_i[-1], indices_j[-1] = indices_j[0], indices_i[0]
    return indices_i, indices_j


def grow(cache, model, seed, batches=600, written=None):
    """Grow :data:`LARGE` in ``cache`` and ``model`` by small mixed
    batches, comparing lookups after each one.

    With ``written`` (a callable returning ``{key: lo_wins}`` of what the
    durable cache wrote to its store for the batch), also check that
    the write set is exactly the pairs whose answer the batch changed in
    the model: new pairs and overwritten ones, not re-stored ones.
    """
    rng = np.random.default_rng(seed)
    held = np.zeros((0, 2), dtype=np.int64)
    for _ in range(batches):
        indices_i, indices_j = mixed_batch(rng, held)
        answers = rng.random(len(indices_i)) < 0.5
        keys = {
            model.key(*LARGE, int(i), int(j))[0] for i, j in zip(indices_i, indices_j)
        }
        before = {key: model.entries.get(key) for key in keys}
        cache.store_batch(*LARGE, indices_i, indices_j, answers)
        model.store_batch(*LARGE, indices_i, indices_j, answers)
        held = np.concatenate([held, np.column_stack([indices_i, indices_j])])
        if written is not None:
            changed = {
                key: model.entries[key] for key in keys if model.entries[key] != before[key]
            }
            assert written() == changed
        probe_i, probe_j = mixed_batch(rng, held)
        got = cache.lookup_batch(*LARGE, probe_i, probe_j)
        want = model.lookup_batch(*LARGE, probe_i, probe_j)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert len(cache) == len(model)
    assert len(model) > 3000
    assert image(cache, N_LARGE) == model.entries


@pytest.mark.parametrize("seed", range(2))
def test_memo_cache_merges_a_large_segment(seed):
    grow(ComparisonMemoCache(), ReferenceCache(), seed)


@pytest.mark.parametrize("deferred", [False, True], ids=["write-through", "deferred"])
def test_durable_cache_writes_exactly_the_changed_pairs(tmp_path, deferred):
    path = tmp_path / "c.sqlite3"
    cache = DurableComparisonCache(PersistentComparisonStore(path))
    cache.deferred = deferred
    rows = []
    write_entries = cache.store.write_entries

    def record(segments):
        rows.extend(
            ((*key, int(lo), int(hi)), bool(lo_wins))
            for key, columns in segments.items()
            for lo, hi, lo_wins in zip(*columns)
        )
        return write_entries(segments)

    cache.store.write_entries = record

    def written():
        if deferred:
            cache.flush_pending()
        batch = dict(rows)
        assert len(batch) == len(rows)
        rows.clear()
        return batch

    model = ReferenceCache()
    grow(cache, model, seed=7, written=written)
    cache.close()
    reopened = DurableComparisonCache(PersistentComparisonStore(path))
    assert image(reopened, N_LARGE) == model.entries


def test_replayed_store_writes_nothing_new(tmp_path):
    """Re-storing pairs with the answers they hold (journal replay over a
    warm store) adds no row to the store."""
    path = tmp_path / "c.sqlite3"
    i, j = np.array([0, 4, 7]), np.array([3, 1, 8])
    answers = np.array([True, False, True])
    cache = DurableComparisonCache(PersistentComparisonStore(path))
    cache.store_batch("fa", "crowd", 1, i, j, answers)
    cache.close()
    warm = DurableComparisonCache(PersistentComparisonStore(path))
    warm.deferred = True
    warm.store_batch("fa", "crowd", 1, i, j, answers)
    assert warm.flush_pending() == 0
    warm.store_batch("fa", "crowd", 1, j, i, ~answers)  # same facts, reversed
    assert warm.flush_pending() == 0
    warm.store_batch("fa", "crowd", 1, i[:1], j[:1], ~answers[:1])
    assert warm.flush_pending() == 1
    warm.close()
    assert image(DurableComparisonCache(PersistentComparisonStore(path))) == {
        ("fa", "crowd", 1, 0, 3): False,
        ("fa", "crowd", 1, 1, 4): True,
        ("fa", "crowd", 1, 7, 8): True,
    }


def test_out_of_range_indices_raise():
    cache = ComparisonMemoCache()
    with pytest.raises(ValueError):
        cache.lookup_batch("fa", "crowd", 1, np.array([-1]), np.array([2]))
    with pytest.raises(ValueError):
        cache.store_batch("fa", "crowd", 1, np.array([0]), np.array([2**31]), np.array([True]))
