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
* a tick line that differs from the live tick (a job not admitted, the
  pairs digest, a request's pool or redundancy) is refused with
  ``JournalMismatchError``, and one that passes its CRC but is
  malformed with a ``DurabilityError`` naming its ``tick`` and field;
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
from repro.durability.journal import decode_flags, encode_flags
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
        else:
            pairs = sum(payload["sizes"])
            miss = decode_flags(payload["miss"], pairs)
            payload["miss"] = np.flatnonzero(miss).tolist()
            payload["answers"] = decode_flags(payload["answers"], pairs).tolist()
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        lines.append(json.dumps({"crc": crc, **payload}, sort_keys=True) + "\n")
    path.write_text("".join(lines))


def buying_requests(path):
    """``(tick, column)`` of every journaled request that bought something."""
    return [
        (r["tick"], k)
        for r in JobJournal.recover(path)[1:]
        for k, bought in enumerate(r["bought"])
        if bought is not None
    ]


def journaled_requests(records):
    """How many requests the tick lines among ``records`` hold."""
    return sum(len(r["jobs"]) for r in records if r["kind"] == "tick")


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
        kept_requests = journaled_requests(JobJournal.recover(journal_path))
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == kept_requests

    def test_every_line_prefix_resumes_identically(self, tmp_path):
        """Every crash state a run can leave: each whole-line prefix of
        the journal, alone or followed by the first half of the next
        line, with the store deleted (max-behind).  Each resumes
        bit-identically, replays every request the prefix holds and
        buys only what it lacks."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        bought = sum(o.ticket.platform.ledger.operations() for o in first)
        for keep in range(1, len(lines)):
            for torn in ("", lines[keep][: len(lines[keep]) // 2]):
                journal_path.write_text("".join(lines[:keep]) + torn)
                (state / "comparisons.sqlite3").unlink()
                kept = JobJournal.recover(journal_path)
                assert len(kept) == keep
                resumed, sched, _ = run_durable_workload(make_workload(), state)
                assert fingerprints(resumed) == fingerprints(first), (keep, bool(torn))
                assert sched.replayed_batches == journaled_requests(kept)
                replayed = sum(
                    sum(count for _, count, _ in tape)
                    for r in kept[1:]
                    for tape in r["charges"]
                )
                assert sched.replayed_operations == replayed
                rebought = sum(o.ticket.platform.ledger.operations() for o in resumed)
                assert rebought - sched.replayed_operations == bought - replayed
                assert journal_path.read_text() == "".join(lines)

    @pytest.mark.parametrize("settled_kept", [False, True], ids=["lost", "kept"])
    def test_prefix_resume_at_buffered_settled_record(self, tmp_path, settled_kept):
        """Crash points on the first tick line that carries both settled
        jobs and served requests: lost, its jobs are journaled again on
        resume; kept, they are not duplicated.  Either way nothing is
        re-bought."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        records = JobJournal.recover(journal_path)
        cut = next(
            k for k, r in enumerate(records) if r["kind"] == "tick" and r["settled"] and r["jobs"]
        )
        journal_path.write_text("".join(lines[: cut + int(settled_kept)]))
        (state / "comparisons.sqlite3").unlink()
        kept_requests = journaled_requests(records[: cut + int(settled_kept)])
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == kept_requests
        settled = [
            job for r in JobJournal.recover(journal_path)[1:] for job in r["settled"]
        ]
        assert sorted(settled) == sorted(o.ticket.index for o in first)

    def test_resume_after_torn_tail(self, tmp_path):
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        with journal_path.open("ab") as fh:
            fh.write(b'{"kind": "tick", "torn')
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

    def test_request_a_tick_line_lacks_is_journaled_in_a_line_of_its_own(self, tmp_path):
        """A request that failed when its tick was journaled (a tenant
        cap refused it) runs live when the tick replays.  Served this
        time, it lands in a second line for the same tick, and the next
        resume replays both lines with zero re-spend."""
        state = tmp_path / "state"

        def run(tenant_caps=None):
            workload = make_workload()
            scheduler = CrowdScheduler(
                workload.pools(),
                root_seed=workload.seed,
                quantum=None,
                tenant_caps=tenant_caps,
                durability=DurabilityPolicy(state),
            )
            for k, job in enumerate(workload.jobs()):
                scheduler.submit(job, tenant="capped" if k == 1 else "default")
            return scheduler.run(), scheduler

        capped, _ = run({"capped": 100.0})
        assert {o.ticket.index: o.status for o in capped}[1] == "budget_exceeded"
        first_ticks = [r["tick"] for r in JobJournal.recover(state / "journal.jsonl")[1:]]
        uncapped, sched = run()
        assert {o.ticket.index: o.status for o in uncapped}[1] == "ok"
        assert sched.replayed_batches > 0
        lines = JobJournal.recover(state / "journal.jsonl")[1:]
        again = [r for r in lines[len(first_ticks) :] if 1 in r["jobs"]]
        assert again and all(r["tick"] in first_ticks and r["jobs"] == [1] for r in again)
        resumed, sched = run()
        assert fingerprints(resumed) == fingerprints(uncapped)
        total_ops = sum(o.ticket.platform.ledger.operations() for o in resumed)
        assert sched.replayed_operations == total_ops
        assert JobJournal.recover(state / "journal.jsonl")[1:] == lines

    def test_journal_rejects_different_job_count(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "n_jobs": 3})
        with pytest.raises(JournalMismatchError):
            run_durable_workload(other, state)

    @pytest.mark.parametrize(
        "stamp",
        [None, "repro.journal/v1", "repro.journal/v2", "repro.journal/v3"],
        ids=["unstamped", "v1", "v2", "v3"],
    )
    def test_journal_rejects_other_format(self, tmp_path, stamp):
        """A journal in an older format recovers intact but is refused at
        the header rather than replayed, and left as it was.

        The v1 and unstamped cases are written the way v1 wrote them:
        list-valued arrays, a header without a ``format`` stamp (or with
        v1's), lines framed as ``json.dumps(record, sort_keys=True)``.
        The rebuilt lines list the tick lines' miss positions and answers
        as JSON lists (v1 listed its arrays; the pair indices it also
        listed are no longer journaled).  The v2 and v3 cases re-frame
        the v4 lines as they stand under a v2 or v3 header (both framed
        lines as v4 does).  The header refusal never reads a line
        after the header."""
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        if stamp in ("repro.journal/v2", "repro.journal/v3"):

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


def edit_serve(tick, k, change):
    """A journal edit applying ``change(line, k)`` to the tick line
    ``tick``, whose column ``k`` is the served request to edit."""

    def edit(record):
        if record["kind"] == "tick" and record["tick"] == tick:
            change(record, k)
        return record

    return edit


def flags(record, name):
    return decode_flags(record[name], sum(record["sizes"]))


def long_miss(record, k):
    record["miss"] = encode_flags(np.concatenate([flags(record, "miss"), np.zeros(8, bool)]))


def short_answers(record, k):
    record["answers"] = encode_flags(flags(record, "answers")[:-8])


def set_column(name, value):
    def change(record, k):
        record[name][k] = value(record[name][k])

    return change


def repeat_job(record, k):
    record["jobs"][k] = record["jobs"][k - 1]


def hit_with_bought(record, k):
    """Give request ``k``'s bought state to the first all-hit request."""
    missed = flags(record, "miss")
    starts = np.cumsum([0, *record["sizes"]])
    hit = next(
        h for h in range(len(record["jobs"])) if not missed[starts[h] : starts[h + 1]].any()
    )
    record["bought"][hit] = record["bought"][k]


class TestReplayChecks:
    """A rewritten, re-CRC'd journal reaches the checks that run after
    the header matched: line validation at recovery, then the tick and
    request checks at replay."""

    def journal(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        return state, state / "journal.jsonl"

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda r, k: r.pop("miss"), "miss"),
            (lambda r, k: r.pop("sizes"), "sizes"),
            (long_miss, "miss"),
            (short_answers, "answers"),
            (set_column("sizes", str), "sizes"),
            (set_column("bought", lambda b: None), "bought"),
            (hit_with_bought, "bought"),
            (set_column("charges", lambda c: [["crowd", 1]]), "charges"),
            (lambda r, k: r["pools"].pop(), "pools"),
            (repeat_job, "jobs"),
            (lambda r, k: r["settled"].append("0"), "settled"),
        ],
        ids=[
            "no-miss",
            "no-sizes",
            "miss-length",
            "answers-length",
            "sizes-type",
            "no-bought",
            "hit-with-bought",
            "charge-shape",
            "column-length",
            "job-twice",
            "settled-type",
        ],
    )
    def test_malformed_serve_record_raises_typed_error(self, tmp_path, change, field):
        """A served request's entry in a tick line, or the line around it,
        malformed: refused at recovery, naming the tick and field."""
        state, journal_path = self.journal(tmp_path)
        tick, k = next(
            (t, k)
            for t, k in buying_requests(journal_path)
            if len(JobJournal.recover(journal_path)[t]["jobs"]) > 2
        )
        rewrite_journal(journal_path, edit_serve(tick, k, change))
        with pytest.raises(DurabilityError, match=rf"tick={tick}: '{field}'") as info:
            run_durable_workload(make_workload(), state)
        assert not isinstance(info.value, JournalMismatchError)

    def test_swapped_pairs_digest_is_refused(self, tmp_path):
        state, journal_path = self.journal(tmp_path)
        lines = JobJournal.recover(journal_path)[1:]
        victim = lines[0]
        other = next(r for r in lines if r["jobs"] and r["pairs"] != victim["pairs"])
        rewrite_journal(
            journal_path,
            edit_serve(victim["tick"], 0, lambda r, k: r.update(pairs=other["pairs"])),
        )
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == "tick.pairs"
        assert (info.value.recorded, info.value.actual) == (other["pairs"], victim["pairs"])

    def test_unadmitted_job_is_refused(self, tmp_path):
        state, journal_path = self.journal(tmp_path)
        victim = JobJournal.recover(journal_path)[1]
        absent = next(j for j in range(len(make_workload().jobs())) if j not in victim["jobs"])
        rewrite_journal(
            journal_path, edit_serve(victim["tick"], 0, set_column("jobs", lambda j: absent))
        )
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == "tick.jobs"
        assert absent in info.value.recorded and absent not in info.value.actual

    @pytest.mark.parametrize(
        "change, field",
        [
            (set_column("pools", lambda p: "experts" if p == "crowd" else "crowd"), "pool"),
            (set_column("judgments", lambda j: j + 1), "judgments"),
        ],
        ids=["pool", "judgments"],
    )
    def test_request_mismatch_is_refused(self, tmp_path, change, field):
        state, journal_path = self.journal(tmp_path)
        tick, k = buying_requests(journal_path)[0]
        rewrite_journal(journal_path, edit_serve(tick, k, change))
        with pytest.raises(JournalMismatchError) as info:
            run_durable_workload(make_workload(), state)
        assert info.value.field == f"request.{field}"


class TestGroupCommit:
    def test_settled_records_ride_the_tick_group(self, tmp_path, monkeypatch):
        """One fsync for the header, one per tick, and one final line
        for the jobs that finish in the last tick — never one per job
        or per request."""
        import repro.durability.journal as journal_module

        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        outcomes, sched, _ = run_durable_workload(make_workload(), tmp_path / "state")
        assert len(fsyncs) == 1 + sched.ticks + 1
        records = JobJournal.recover(tmp_path / "state" / "journal.jsonl")
        assert [r["kind"] for r in records] == ["header"] + ["tick"] * (sched.ticks + 1)
        assert [r["tick"] for r in records[1:]] == list(range(1, sched.ticks + 2))
        assert sum(len(r["settled"]) for r in records[1:]) == len(outcomes)


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
