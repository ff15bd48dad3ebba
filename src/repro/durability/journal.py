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
opening brace, so an append encodes its record once.  The scheduler
writes a ``header`` line and then one ``tick`` line per tick of its
loop (``repro.journal/v4``, laid out in ``docs/DURABILITY.md``): the
tick's served requests as columns, their pairs as one digest, and
their miss and answer flags as base64 text of ``np.packbits`` over the
tick's pairs (:func:`encode_flags` / :func:`decode_flags`).

:meth:`JobJournal.append` encodes a record and buffers its line;
:meth:`JobJournal.commit_group` writes the buffered lines with one
write and one ``fsync``.  A record becomes durable only at that commit
and must not be made observable elsewhere before it.  A record reaches
the disk whole or not at all from the journal's point of view; a crash
mid-write leaves at most one torn final line.

:meth:`recover` reads records until the first line that is incomplete,
unparseable, or fails its CRC, then **truncates the file there**
(write the survivors to a temp file, fsync, atomic rename) so the
journal is again well-formed before new appends land.  Dropping the
torn tail is safe by construction: a record is written *before* the
action it describes is made observable elsewhere (cache commit,
settle), so a lost record at worst re-buys one tick — it can never
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
    "encode_flags",
    "decode_flags",
]

#: Stamped into the journal header; readers reject other formats.
JOURNAL_FORMAT = "repro.journal/v4"

JournalRecord = dict[str, Any]


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
        Test hook for the crash-recovery harness: the process SIGKILLs
        itself while writing its ``N``-th line, after the lines before
        it and the first half of that line are flushed and fsynced — a
        simulated power cut mid-write at a deterministic point.
        ``None`` (the default) disables the hook.
    """

    def __init__(self, path: str | Path, crash_after_appends: int | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.crash_after_appends = crash_after_appends
        #: Lines written so far (buffered lines are not counted).
        self.appends = 0
        self._buffered: list[str] = []
        self._handle = open(  # repro-lint: disable=DUR001 -- append-only + fsync framing
            self.path, "a", encoding="utf-8"
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, kind: str, **fields: Any) -> JournalRecord:
        """Encode one record and buffer its line; returns the record
        with its CRC filled in.

        The record becomes durable at the next :meth:`commit_group`, and
        must not be made observable anywhere else before then — callers
        rely on that ordering to keep the journal ahead of every other
        durable artifact.
        """
        payload: dict[str, Any] = {"kind": kind, **fields}
        body = _canonical(payload)
        crc = _crc(body)
        # The line is the canonical body with the CRC spliced in front.
        self._buffered.append(f'{{"crc":"{crc}",{body[1:]}\n')
        return {"crc": crc, **payload}

    def commit_group(self) -> None:
        """Write the buffered lines with one write and one fsync.

        Nothing buffered commits to nothing (no write, no fsync).  The
        scheduler commits its header alone and then one ``tick`` line
        per tick.
        """
        lines, self._buffered = self._buffered, []
        if lines:
            self._write_durably(lines)

    def _write_durably(self, lines: list[str]) -> None:
        """Write ``lines``, flush, fsync once; honour the crash hook."""
        if self.crash_after_appends is not None:
            remaining = self.crash_after_appends - self.appends
            if remaining <= len(lines):
                # Simulated power cut: the lines before the threshold
                # land whole and the one it falls on only its first
                # half — the torn tail recovery must survive.
                whole = lines[: max(remaining - 1, 0)]
                torn = lines[remaining - 1] if remaining > 0 else ""
                self._handle.write("".join(whole) + torn[: len(torn) // 2])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                os.kill(os.getpid(), signal.SIGKILL)
        self._handle.write("".join(lines))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.appends += len(lines)

    def close(self) -> None:
        """Close the file handle; records never committed are dropped,
        as a crash would drop them."""
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
