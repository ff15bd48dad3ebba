"""Tests for repro.durability.journal (append-only CRC-framed journal).

The framing contract under test: appends are buffered and each commit
lands its lines whole with one fsync; recovery reads the longest intact
prefix, truncates anything after it (torn line, garbage, CRC failure),
and leaves the file well-formed for further appends.
"""

import json

import numpy as np
import pytest

from repro.durability import DurabilityError, JobJournal
from repro.durability.journal import decode_flags, encode_flags
from repro.scheduler.engine import _CompareRequest, _pairs_digest


def fill(path, n=3):
    """A journal of ``n`` tick lines, each committed on its own."""
    with JobJournal(path) as journal:
        for k in range(n):
            journal.append("tick", seq=k, payload=[k, k + 1])
            journal.commit_group()
    return path


class TestRoundTrip:
    def test_append_then_recover(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["kind"] == "tick" for r in records)

    def test_missing_file_recovers_empty(self, tmp_path):
        assert JobJournal.recover(tmp_path / "absent.jsonl") == []

    def test_append_counts(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.append("header", a=1)
        journal.append("tick", b=2)
        assert journal.appends == 0  # buffered until the commit
        journal.commit_group()
        assert journal.appends == 2
        journal.close()

    def test_commit_writes_the_buffered_lines_with_one_fsync(self, tmp_path, monkeypatch):
        import repro.durability.journal as journal_module

        fsyncs = []
        real_fsync = journal_module.os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            journal.append("header", a=1)
            journal.append("tick", b=2)
            assert path.read_bytes() == b""
            journal.commit_group()
            journal.commit_group()  # nothing buffered: no write, no fsync
            journal.append("tick", c=3)  # never committed: dropped
        assert len(fsyncs) == 1
        assert [r["kind"] for r in JobJournal.recover(path)] == ["header", "tick"]


class TestTornTail:
    def test_unterminated_tail_is_truncated(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b'{"crc": "dead", "kind": "tick", "seq"')  # torn mid-record
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert path.read_bytes() == intact

    def test_garbage_tail_is_truncated(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b"\x00\xffnot json at all\n")
        assert len(JobJournal.recover(path)) == 3
        assert path.read_bytes() == intact

    def test_crc_mismatch_drops_record(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        tampered = json.loads(lines[-1])
        tampered["payload"] = [9, 9]  # change payload, keep stale crc
        lines[-1] = (json.dumps(tampered, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert path.read_bytes() == b"".join(lines[:-1])

    def test_recovery_stops_at_first_bad_line(self, tmp_path):
        # A valid record *after* a torn one is still dropped: the
        # journal is a prefix log, not a salvage heap.
        path = fill(tmp_path / "j.jsonl", n=2)
        good = JobJournal.recover(path)
        with path.open("ab") as fh:
            fh.write(b"garbage\n")
        fill_again = JobJournal(path)
        fill_again.append("tick", seq=99)
        fill_again.commit_group()
        fill_again.close()
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [r["seq"] for r in good]

    def test_appends_extend_recovered_journal(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        with path.open("ab") as fh:
            fh.write(b'{"half a rec')
        JobJournal.recover(path)
        with JobJournal(path) as journal:
            journal.append("tick", seq=3)
            journal.commit_group()
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]


class TestArrayCodec:
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 100])
    def test_round_trip(self, size):
        """Flags round-trip, and so do miss positions carried as a mask."""
        rng = np.random.default_rng(size)
        flags = rng.random(size) < 0.5
        positions = np.flatnonzero(rng.random(size) < 0.3)
        mask = np.zeros(size, dtype=bool)
        mask[positions] = True
        np.testing.assert_array_equal(decode_flags(encode_flags(flags), size), flags)
        np.testing.assert_array_equal(
            np.flatnonzero(decode_flags(encode_flags(mask), size)), positions
        )

    @pytest.mark.parametrize("text", ["not base64!", "AAA="])
    def test_malformed_flags_raise_typed_error(self, text):
        with pytest.raises(DurabilityError):
            decode_flags(text, 8)

    def test_flag_count_mismatch_raises_typed_error(self):
        with pytest.raises(DurabilityError):
            decode_flags(encode_flags(np.ones(9, dtype=bool)), 8)

    def test_pairs_digest_binds_order_orientation_and_length(self):
        def requests(*pairs):
            return [
                _CompareRequest("crowd", np.asarray(i), np.asarray(j), np.zeros(len(i)),
                                np.zeros(len(i)), 1)
                for i, j in pairs
            ]

        i, j = np.array([0, 5, 2]), np.array([1, 3, 4])
        digest = _pairs_digest(requests((i, j)))
        assert len(digest) == 32 and int(digest, 16) >= 0
        assert _pairs_digest(requests((i.astype(np.int32), j.astype(np.int32)))) == digest
        assert _pairs_digest(requests((j, i))) != digest
        assert _pairs_digest(requests((i[::-1], j[::-1]))) != digest
        assert _pairs_digest(requests((i[:2], j[:2]))) != digest
        assert _pairs_digest(requests((i[:0], j[:0]))) != _pairs_digest(requests((i[:1], j[:1])))
        # The digest binds where one request's pairs end and the next's begin.
        split = _pairs_digest(requests((i[:1], j[:1]), (i[1:], j[1:])))
        assert split != _pairs_digest(requests((i[:2], j[:2]), (i[2:], j[2:])))
        assert split != digest
