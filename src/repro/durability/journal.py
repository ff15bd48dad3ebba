"""Append-only job journal with torn-tail recovery.

The scheduler's determinism contract (same root seed + same submission
order ⇒ bit-identical run) means a crashed run does not need its full
state snapshotted — it needs only the *irreversible* facts: which
batches of comparisons were bought from the platform, what the workers
answered, and what they cost.  :class:`JobJournal` records exactly
those facts as an append-only JSONL file; on resume the scheduler
re-runs every job's algorithm from scratch and feeds it the journaled
answers instead of buying them again.

Framing
-------
One JSON object per line.  Each record carries a ``crc`` field — a
truncated SHA-256 over the canonical (compact, sorted-keys) encoding
of the rest of the record — written first: a line is
``{"crc":"<16 hex>",`` followed by that canonical encoding without its
opening brace, so an append encodes its record once.  A serve record
names its request's pairs by a digest (:func:`digest_pairs`) rather
than listing them — replay takes the indices from the live request
after checking the digest.  Its other array payloads (miss positions
and answer flags) are base64 text made by the codec next to
:data:`JOURNAL_FORMAT`: index arrays as little-endian int32, boolean
arrays bit-packed with ``np.packbits``.
A standalone append is flushed and ``fsync``\\ ed before returning; a
*group commit* (:meth:`JobJournal.begin_group` /
:meth:`JobJournal.commit_group`) buffers many records and lands them
with one write + one fsync — how the scheduler frames all of a tick's
serve and ``settled`` records.
Either way a record reaches the disk whole or not at all from the
journal's point of view; a crash mid-write leaves at most one torn
final line.

:meth:`recover` reads records until the first line that is incomplete,
unparseable, or fails its CRC, then **truncates the file there**
(write the survivors to a temp file, fsync, atomic rename) so the
journal is again well-formed before new appends land.  Dropping the
torn tail is safe by construction: a record is written *before* the
action it describes is made observable elsewhere (cache commit,
settle), so a lost record at worst re-buys one batch — it can never
double-settle one.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import signal
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DurabilityError

__all__ = [
    "JOURNAL_FORMAT",
    "JournalRecord",
    "JobJournal",
    "digest_pairs",
    "encode_indices",
    "decode_indices",
    "encode_flags",
    "decode_flags",
]

#: Stamped into the journal header; readers reject other formats.
JOURNAL_FORMAT = "repro.journal/v3"

JournalRecord = dict[str, Any]

_INT32 = np.iinfo(np.int32)


def digest_pairs(indices_i: np.ndarray, indices_j: np.ndarray) -> str:
    """A request's pairs as a serve record names them: SHA-256, truncated
    to 128 bits, over the pair count and both index arrays as
    little-endian int64."""
    digest = hashlib.sha256(len(indices_i).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(indices_i, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(indices_j, dtype="<i8").tobytes())
    return digest.hexdigest()[:32]


def encode_indices(values: np.ndarray) -> str:
    """An index array as base64 text of little-endian int32."""
    values = np.asarray(values)
    if len(values) and (values.min() < _INT32.min or values.max() > _INT32.max):
        raise ValueError("journal index arrays must fit in int32")
    return base64.b64encode(values.astype("<i4").tobytes()).decode("ascii")


def decode_indices(text: str) -> np.ndarray:
    """Inverse of :func:`encode_indices`; a malformed payload raises
    :class:`~repro.durability.errors.DurabilityError`."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError) as exc:
        raise DurabilityError(f"journal index array is not base64: {exc}") from exc
    if len(raw) % 4:
        raise DurabilityError("journal index array is not a whole number of int32")
    return np.frombuffer(raw, dtype="<i4").astype(np.intp)


def encode_flags(values: np.ndarray) -> str:
    """A boolean array as base64 text of its ``np.packbits`` bytes."""
    return base64.b64encode(np.packbits(np.asarray(values, dtype=bool)).tobytes()).decode(
        "ascii"
    )


def decode_flags(text: str, count: int) -> np.ndarray:
    """Inverse of :func:`encode_flags` for an array of ``count`` flags."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError) as exc:
        raise DurabilityError(f"journal flag array is not base64: {exc}") from exc
    if len(raw) != (count + 7) // 8:
        raise DurabilityError(
            f"journal flag array holds {len(raw)} bytes, expected {(count + 7) // 8}"
        )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count).astype(bool)


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


class JobJournal:
    """Append-only, CRC-framed record of a scheduler run's spend.

    Parameters
    ----------
    path:
        The journal file (parent directories are created).  Appends go
        to the end of whatever the file already holds — run
        :meth:`recover` first when resuming so the tail is known-good.
    crash_after_appends:
        Test hook for the crash-recovery harness: after this many
        successful appends the process SIGKILLs itself, simulating a
        power cut at a deterministic point.  ``None`` (the default)
        disables the hook.
    """

    def __init__(self, path: str | Path, crash_after_appends: int | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.crash_after_appends = crash_after_appends
        self.appends = 0
        self._group: list[str] | None = None
        self._handle = open(  # repro-lint: disable=DUR001 -- append-only + fsync framing
            self.path, "a", encoding="utf-8"
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, kind: str, **fields: Any) -> JournalRecord:
        """Append one record; returns it with its CRC filled in.

        Outside a group the record is durable (flushed and fsynced)
        when this returns — callers rely on that ordering to keep the
        journal ahead of every other durable artifact.  Inside an open
        group (:meth:`begin_group`) the encoded line is buffered and
        becomes durable only at :meth:`commit_group`; the buffered
        record must not be made observable elsewhere before then.
        """
        payload: dict[str, Any] = {"kind": kind, **fields}
        body = _canonical(payload)
        crc = _crc(body)
        # The line is the canonical body with the CRC spliced in front.
        line = f'{{"crc":"{crc}",{body[1:]}\n'
        record: JournalRecord = {"crc": crc, **payload}
        if self._group is not None:
            self._group.append(line)
            return record
        self._write_durably([line])
        return record

    def begin_group(self) -> None:
        """Open a group commit: buffer appends until :meth:`commit_group`.

        Group commits amortize durability — the scheduler frames all of
        one tick's serve and ``settled`` records into a single write +
        fsync instead of one fsync per record.  Groups do not nest.
        """
        if self._group is not None:
            raise RuntimeError("journal group already open")
        self._group = []

    @property
    def group_open(self) -> bool:
        """Whether a group commit is open (appends are being buffered)."""
        return self._group is not None

    def commit_group(self) -> None:
        """Write the buffered group durably with one fsync.

        An empty group commits to nothing (no write, no fsync).  The
        crash hook counts each buffered record as one append, so a
        threshold landing inside a group kills the process with exactly
        the prefix of the group on disk — a torn group, which recovery
        must (and does) treat like any other torn tail.
        """
        lines, self._group = self._group, None
        if lines is None:
            raise RuntimeError("no journal group open")
        if lines:
            self._write_durably(lines)

    def _write_durably(self, lines: list[str]) -> None:
        """Write ``lines``, flush, fsync once; honour the crash hook."""
        if self.crash_after_appends is not None:
            remaining = self.crash_after_appends - self.appends
            if remaining <= len(lines):
                # Simulated power cut mid-group: persist exactly the
                # records up to the threshold, then die without
                # flushing anything else — what recovery must survive.
                for line in lines[:remaining]:
                    self._handle.write(line)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.appends += remaining
                os.kill(os.getpid(), signal.SIGKILL)
        for line in lines:
            self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.appends += len(lines)

    def close(self) -> None:
        """Close the file handle (appended records are already durable)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, path: str | Path) -> list[JournalRecord]:
        """Read all intact records, truncating any torn tail in place.

        Returns the records in append order.  Reading stops at the
        first line that does not parse, lacks a trailing newline, or
        fails its CRC; if anything follows the last good record the
        file is rewritten to hold exactly the survivors (temp file,
        fsync, atomic rename) so subsequent appends extend a
        well-formed journal.  A missing file recovers to no records.
        """
        path = Path(path)
        if not path.exists():
            return []
        raw = path.read_bytes()
        records: list[JournalRecord] = []
        good_bytes = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                break  # torn final line: no terminator
            line = raw[offset:newline]
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            if not isinstance(record, dict) or "crc" not in record:
                break
            payload = {k: v for k, v in record.items() if k != "crc"}
            if record["crc"] != _crc(_canonical(payload)):
                break
            records.append(record)
            offset = newline + 1
            good_bytes = offset
        if good_bytes != len(raw):
            tmp = path.with_name(f".{path.name}.recover-{os.getpid()}")
            try:
                with open(tmp, "wb") as handle:  # repro-lint: disable=DUR001 -- atomic tmp body
                    handle.write(raw[:good_bytes])
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        return records
