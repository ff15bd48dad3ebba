"""Tests for repro.durability.journal (append-only CRC-framed journal).

The framing contract under test: every append is fsynced whole;
recovery reads the longest intact prefix, truncates anything after it
(torn line, garbage, CRC failure), and leaves the file well-formed for
further appends.
"""

import json

import numpy as np
import pytest

from repro.durability import DurabilityError, JobJournal
from repro.durability.journal import (
    decode_flags,
    decode_indices,
    digest_pairs,
    encode_flags,
    encode_indices,
)


def fill(path, n=3):
    with JobJournal(path) as journal:
        for k in range(n):
            journal.append("serve", seq=k, payload=[k, k + 1])
    return path


class TestRoundTrip:
    def test_append_then_recover(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["kind"] == "serve" for r in records)

    def test_missing_file_recovers_empty(self, tmp_path):
        assert JobJournal.recover(tmp_path / "absent.jsonl") == []

    def test_append_counts(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.append("header", a=1)
        journal.append("serve", b=2)
        assert journal.appends == 2
        journal.close()


class TestTornTail:
    def test_unterminated_tail_is_truncated(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b'{"crc": "dead", "kind": "serve", "seq"')  # torn mid-record
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
        fill_again.append("serve", seq=99)
        fill_again.close()
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [r["seq"] for r in good]

    def test_appends_extend_recovered_journal(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        with path.open("ab") as fh:
            fh.write(b'{"half a rec')
        JobJournal.recover(path)
        with JobJournal(path) as journal:
            journal.append("settled", seq=3)
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]


class TestArrayCodec:
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 100])
    def test_round_trip(self, size):
        rng = np.random.default_rng(size)
        indices = rng.integers(0, 2**31 - 1, size=size)
        flags = rng.random(size) < 0.5
        np.testing.assert_array_equal(decode_indices(encode_indices(indices)), indices)
        np.testing.assert_array_equal(decode_flags(encode_flags(flags), size), flags)

    def test_out_of_range_index_is_refused(self):
        with pytest.raises(ValueError):
            encode_indices(np.array([2**31]))

    @pytest.mark.parametrize("text", ["not base64!", "AAA="])
    def test_malformed_indices_raise_typed_error(self, text):
        with pytest.raises(DurabilityError):
            decode_indices(text)

    def test_flag_count_mismatch_raises_typed_error(self):
        with pytest.raises(DurabilityError):
            decode_flags(encode_flags(np.ones(9, dtype=bool)), 8)

    def test_pairs_digest_binds_order_orientation_and_length(self):
        i, j = np.array([0, 5, 2]), np.array([1, 3, 4])
        digest = digest_pairs(i, j)
        assert len(digest) == 32 and int(digest, 16) >= 0
        assert digest_pairs(i.astype(np.int32), j.astype(np.int32)) == digest
        assert digest_pairs(j, i) != digest
        assert digest_pairs(i[::-1], j[::-1]) != digest
        assert digest_pairs(i[:2], j[:2]) != digest
        assert digest_pairs(i[:0], j[:0]) != digest_pairs(i[:1], j[:1])
