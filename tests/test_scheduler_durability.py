"""Tests for journaled, cache-persisted scheduler runs (repro.durability).

The resume contract under test (see docs/DURABILITY.md):

* a durable run is bit-identical to a plain (non-durable) run — the
  journal and SQLite write-throughs are pure observers;
* resuming from any journal prefix (every reachable crash state)
  replays the journaled batches without touching the platform and
  finishes bit-identical to the uninterrupted run, with zero
  re-spent comparisons for settled batches;
* the journal binds to its workload — resuming a different one fails
  loudly rather than replaying the wrong answers, and closes the store;
* journals stamped with the removed ``fusion`` fact (either value)
  still resume bit-identically;
* a serve record whose request differs from the live one (pairs digest,
  pool, redundancy) is refused with ``JournalMismatchError``, and one
  that passes its CRC but is malformed with a ``DurabilityError``
  naming its ``seq`` and field;
* invalidation evicts from the in-memory cache and the SQLite store
  together.
"""

import hashlib
import json
import sqlite3

import numpy as np
import pytest

from repro.durability import (
    JOURNAL_FORMAT,
    DurabilityError,
    DurabilityPolicy,
    JobJournal,
    JournalMismatchError,
    PersistentComparisonStore,
)
from repro.durability.journal import decode_flags, decode_indices, encode_flags, encode_indices
from repro.scheduler import CrowdScheduler, DurableComparisonCache
from repro.telemetry import Tracer

from durable_workload import SchedulerWorkload, run_durable_workload
from test_scheduler_fusion import SerialScheduler

WORKLOAD = dict(seed=901, n_jobs=4, n=60, u_n=3, catalogs=2)


def make_workload():
    return SchedulerWorkload(**WORKLOAD)


def run_plain(quantum=16):
    workload = make_workload()
    scheduler = CrowdScheduler(
        workload.pools(), root_seed=workload.seed, quantum=quantum
    )
    for job in workload.jobs():
        scheduler.submit(job)
    return scheduler.run()


def rewrite_journal(path, edit):
    """Pass every record of the journal at ``path`` through ``edit`` and
    write the results back as a journal with valid CRCs."""
    records = JobJournal.recover(path)
    path.unlink()
    with JobJournal(path) as journal:
        journal.begin_group()
        for record in records:
            fields = edit({k: v for k, v in record.items() if k != "crc"})
            journal.append(fields.pop("kind"), **fields)
        journal.commit_group()


def write_v1_journal(path, stamp):
    """Rewrite the journal at ``path`` in v1's framing, with list-valued
    arrays and the header's ``format`` replaced by ``stamp`` (dropped
    when ``None``)."""
    lines = []
    for record in JobJournal.recover(path):
        payload = {k: v for k, v in record.items() if k != "crc"}
        if payload["kind"] == "header":
            payload.pop("format")
            if stamp is not None:
                payload["format"] = stamp
        elif payload["kind"] == "serve":
            miss = decode_indices(payload["miss"])
            payload["miss"] = miss.tolist()
            payload["answers"] = decode_flags(
                payload["answers"], payload["hits"] + len(miss)
            ).tolist()
            payload["fresh"] = decode_flags(payload["fresh"], len(miss)).tolist()
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        lines.append(json.dumps({"crc": crc, **payload}, sort_keys=True) + "\n")
    path.write_text("".join(lines))


def buying_serve_seqs(path):
    """The ``seq`` of every serve record that bought something."""
    return [
        r["seq"]
        for r in JobJournal.recover(path)
        if r["kind"] == "serve" and len(decode_indices(r["miss"]))
    ]


def fingerprints(outcomes):
    """Settle-order identity: index, status, answer, and exact bills."""
    out = []
    for o in sorted(outcomes, key=lambda o: o.ticket.index):
        ledger = o.ticket.platform.ledger
        out.append(
            (
                o.ticket.index,
                o.settle_index,
                o.status,
                tuple(o.result.answer) if o.result is not None else None,
                ledger.total_cost,
                tuple(
                    (label, entry.operations, entry.money)
                    for label, entry in sorted(ledger.entries.items())
                ),
            )
        )
    return out


class TestDurableEqualsPlain:
    def test_durable_run_matches_plain_run(self, tmp_path):
        plain = run_plain()
        durable, scheduler, _ = run_durable_workload(
            make_workload(), tmp_path / "state", quantum=16
        )
        assert fingerprints(durable) == fingerprints(plain)
        assert scheduler.replayed_batches == 0
        assert (tmp_path / "state" / "journal.jsonl").exists()
        assert (tmp_path / "state" / "comparisons.sqlite3").exists()


class TestResume:
    def test_full_journal_resume_is_identical_and_free(self, tmp_path):
        state = tmp_path / "state"
        first, first_sched, _ = run_durable_workload(make_workload(), state)
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches > 0
        # Every ledger operation was replayed, none bought live.
        total_ops = sum(
            o.ticket.platform.ledger.operations() for o in resumed
        )
        assert sched.replayed_operations == total_ops

    @pytest.mark.parametrize("keep_records", [1, 3, 8])
    def test_prefix_resume_matches_uninterrupted(self, tmp_path, keep_records):
        """Crash states: journal prefix kept, store deleted (max-behind)."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        if keep_records >= len(lines):
            pytest.skip("prefix longer than the journal")
        journal_path.write_text("".join(lines[:keep_records]))
        (state / "comparisons.sqlite3").unlink()
        kept_serves = sum(
            1 for r in JobJournal.recover(journal_path) if r["kind"] == "serve"
        )
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == kept_serves

    @pytest.mark.parametrize("settled_kept", [False, True], ids=["lost", "kept"])
    def test_prefix_resume_at_buffered_settled_record(self, tmp_path, settled_kept):
        """Crash points on a ``settled`` record that rode a tick's group
        commit: lost, the job's record is appended again on resume;
        kept, it is not duplicated.  Either way nothing is re-bought."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        kinds = [r["kind"] for r in JobJournal.recover(journal_path)]
        # The first settled record framed into a group with later serves.
        cut = next(
            k for k in range(len(kinds) - 1)
            if kinds[k] == "settled" and kinds[k + 1] == "serve"
        )
        journal_path.write_text("".join(lines[: cut + int(settled_kept)]))
        (state / "comparisons.sqlite3").unlink()
        kept_serves = kinds[:cut].count("serve")
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == kept_serves
        settled = [
            r["job_index"] for r in JobJournal.recover(journal_path) if r["kind"] == "settled"
        ]
        assert sorted(settled) == sorted(o.ticket.index for o in first)

    def test_resume_after_torn_tail(self, tmp_path):
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        with journal_path.open("ab") as fh:
            fh.write(b'{"kind": "serve", "torn')
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches > 0

    def test_journal_rejects_different_workload(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "seed": 902})
        with pytest.raises(JournalMismatchError):
            run_durable_workload(other, state)

    def test_refused_journal_closes_the_store(self, tmp_path):
        """A journal mismatch raised while recovering still closes the
        SQLite connection of the scheduler-owned durable cache."""
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "seed": 902})
        scheduler = CrowdScheduler(
            other.pools(), root_seed=other.seed, durability=DurabilityPolicy(state)
        )
        for job in other.jobs():
            scheduler.submit(job)
        with pytest.raises(JournalMismatchError):
            scheduler.run()
        with pytest.raises(sqlite3.ProgrammingError):
            scheduler.cache.store.load()

    @pytest.mark.parametrize("fusion", [True, False], ids=["fused", "serial"])
    def test_resume_journal_stamped_with_fusion(self, tmp_path, fusion):
        """Journals from before the ``fusion`` knob was removed carry it
        in their header.  A ``false`` one was written by serving every
        request alone, as :class:`SerialScheduler` does; either resumes
        bit-identically with every ledger operation replayed."""
        state = tmp_path / "state"
        workload = make_workload()
        writer = (CrowdScheduler if fusion else SerialScheduler)(
            workload.pools(), root_seed=workload.seed, durability=DurabilityPolicy(state)
        )
        for job in workload.jobs():
            writer.submit(job)
        first = writer.run()
        journal_path = state / "journal.jsonl"

        def stamp(record):
            if record["kind"] == "header":
                record["fusion"] = fusion
            return record

        rewrite_journal(journal_path, stamp)
        assert JobJournal.recover(journal_path)[0]["fusion"] is fusion
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        total_ops = sum(o.ticket.platform.ledger.operations() for o in resumed)
        assert sched.replayed_operations == total_ops > 0

    def test_journal_rejects_different_job_count(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "n_jobs": 3})
        with pytest.raises(JournalMismatchError):
            run_durable_workload(other, state)

    @pytest.mark.parametrize(
        "stamp",
        [None, "repro.journal/v1", "repro.journal/v2"],
        ids=["unstamped", "v1", "v2"],
    )
    def test_journal_rejects_other_format(self, tmp_path, stamp):
        """A journal in an older format recovers intact but is refused at
        the header rather than replayed, and left as it was.

        The v1 and unstamped cases are written the way v1 wrote them:
        list-valued arrays, a header without a ``format`` stamp (or with
        v1's), lines framed as ``json.dumps(record, sort_keys=True)``.  A
        v1 serve record listed ``indices_i`` / ``indices_j``, which a v3
        record no longer holds, so the rebuilt lines list what it does
        hold (``miss``, ``answers``, ``fresh``) and keep the ``pairs``
        digest.  The v2 case re-frames the v3 records as they stand under
        a v2 header (v2 framed lines as v3 does).  The header refusal
        never reads a serve record's arrays."""
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        if stamp == "repro.journal/v2":

            def restamp(record):
                if record["kind"] == "header":
                    record["format"] = stamp
                return record

            rewrite_journal(journal_path, restamp)
        else:
            write_v1_journal(journal_path, stamp)
        count = len(journal_path.read_text().splitlines())
        assert len(JobJournal.recover(journal_path)) == count
        written = journal_path.read_bytes()
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == "format"
        assert (info.value.recorded, info.value.actual) == (stamp, JOURNAL_FORMAT)
        assert journal_path.read_bytes() == written

    def test_journal_header_written_once(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        run_durable_workload(make_workload(), state)
        records = JobJournal.recover(state / "journal.jsonl")
        assert sum(1 for r in records if r["kind"] == "header") == 1


def edit_serve(seq, change):
    """A journal edit applying ``change`` to the serve record ``seq``."""

    def edit(record):
        if record["kind"] == "serve" and record["seq"] == seq:
            change(record)
        return record

    return edit


def out_of_range_miss(record):
    miss = decode_indices(record["miss"])
    miss[-1] = record["hits"] + len(miss)
    record["miss"] = encode_indices(miss)


def decreasing_miss(record):
    miss = decode_indices(record["miss"])
    miss[-2:] = miss[-2:][::-1].copy()
    record["miss"] = encode_indices(miss)


def long_fresh(record):
    record["fresh"] = encode_flags(np.zeros(len(decode_indices(record["miss"])) + 8, dtype=bool))


class TestReplayChecks:
    """A rewritten, re-CRC'd journal reaches the per-record checks that
    run after the header matched."""

    def journal(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        return state, state / "journal.jsonl"

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda r: r.pop("miss"), "miss"),
            (lambda r: r.pop("hits"), "hits"),
            (out_of_range_miss, "miss"),
            (decreasing_miss, "miss"),
            (long_fresh, "fresh"),
            (lambda r: r.update(hits=str(r["hits"])), "hits"),
            (lambda r: r.update(report=None), "report"),
            (lambda r: r.update(charges=[["crowd", 1]]), "charges"),
        ],
        ids=[
            "no-miss",
            "no-hits",
            "miss-out-of-range",
            "miss-not-increasing",
            "fresh-length",
            "hits-type",
            "no-report",
            "charge-shape",
        ],
    )
    def test_malformed_serve_record_raises_typed_error(self, tmp_path, change, field):
        state, journal_path = self.journal(tmp_path)
        seq = buying_serve_seqs(journal_path)[1]
        rewrite_journal(journal_path, edit_serve(seq, change))
        with pytest.raises(DurabilityError, match=rf"seq={seq}: '{field}'") as info:
            run_durable_workload(make_workload(), state)
        assert not isinstance(info.value, JournalMismatchError)

    def test_swapped_pairs_digest_is_refused(self, tmp_path):
        state, journal_path = self.journal(tmp_path)
        serves = [r for r in JobJournal.recover(journal_path) if r["kind"] == "serve"]
        victim = serves[0]
        other = next(r for r in serves if r["pairs"] != victim["pairs"])
        rewrite_journal(
            journal_path,
            edit_serve(victim["seq"], lambda r: r.update(pairs=other["pairs"])),
        )
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == "request.pairs"
        assert (info.value.recorded, info.value.actual) == (other["pairs"], victim["pairs"])

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda r: r.update(pool="experts" if r["pool"] == "crowd" else "crowd"), "pool"),
            (lambda r: r.update(judgments=r["judgments"] + 1), "judgments"),
        ],
        ids=["pool", "judgments"],
    )
    def test_request_mismatch_is_refused(self, tmp_path, change, field):
        state, journal_path = self.journal(tmp_path)
        seq = buying_serve_seqs(journal_path)[0]
        rewrite_journal(journal_path, edit_serve(seq, change))
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == f"request.{field}"


class TestGroupCommit:
    def test_settled_records_ride_the_tick_group(self, tmp_path, monkeypatch):
        """One fsync for the header, one per tick, and one final group
        for the jobs that finish in the last tick — never one per job."""
        import repro.durability.journal as journal_module

        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        outcomes, sched, _ = run_durable_workload(make_workload(), tmp_path / "state")
        assert len(fsyncs) == 1 + sched.ticks + 1
        records = JobJournal.recover(tmp_path / "state" / "journal.jsonl")
        assert sum(r["kind"] == "settled" for r in records) == len(outcomes)


class TestWarmCache:
    def test_warm_run_buys_nothing(self, tmp_path):
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        (state / "journal.jsonl").unlink()
        warm, sched, _ = run_durable_workload(make_workload(), state)
        assert isinstance(sched.cache, DurableComparisonCache)
        assert sched.cache.warm_entries > 0
        assert sched.cache.misses == 0
        assert sched.replayed_batches == 0
        answers = lambda outs: [  # noqa: E731
            tuple(o.result.answer) for o in sorted(outs, key=lambda o: o.ticket.index)
        ]
        assert answers(warm) == answers(first)

    def test_journal_disabled_policy_still_persists_cache(self, tmp_path):
        state = tmp_path / "state"
        workload = make_workload()
        policy = DurabilityPolicy(state, journal=False)
        scheduler = CrowdScheduler(
            workload.pools(), root_seed=workload.seed, durability=policy
        )
        for job in workload.jobs():
            scheduler.submit(job)
        scheduler.run()
        assert not (state / "journal.jsonl").exists()
        assert (state / "comparisons.sqlite3").exists()


class TestDurableInvalidate:
    def warmed_cache(self, tmp_path):
        """A durable cache warm-loaded from a completed run's store."""
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        store = PersistentComparisonStore(state / "comparisons.sqlite3")
        return DurableComparisonCache(store)

    def test_invalidate_mirrors_to_store(self, tmp_path):
        cache = self.warmed_cache(tmp_path)
        before = len(cache)
        assert len(cache.store) == before > 0
        removed = cache.invalidate(pool_name="crowd")
        assert 0 < removed <= before
        assert len(cache) == before - removed
        assert len(cache.store) == before - removed

    def test_invalidate_emits_event_and_returns_count(self, tmp_path):
        cache = self.warmed_cache(tmp_path)
        tracer = Tracer()
        cache.tracer = tracer
        before = len(cache)
        removed = cache.invalidate()
        assert removed == before > 0
        events = tracer.records_of_kind("cache_invalidated")
        assert len(events) == 1
        assert events[0]["removed"] == removed
