"""Atomic, durable artifact writes — the one tmp+fsync+rename helper.

Every artifact the library publishes (experiment CSVs, trace files,
the analysis graph) goes through :func:`write_atomic`:

1. the payload is written to a private temp file *in the target
   directory* (so the final rename never crosses a filesystem),
2. the temp file is **fsync'd** — without this, a rename-only scheme
   can publish a correctly-named but empty/partial file after a power
   loss, because the rename (metadata) may reach the disk before the
   data blocks do,
3. ``os.replace`` atomically swaps it into place, and
4. the parent directory is fsync'd so the rename itself is durable.

Concurrent writers (pytest-xdist benchmark shards, parallel CI jobs)
each land a complete file and readers can never observe a partial
write.  The ``DUR001`` repro-lint rule enforces that ``src`` code does
not bypass this module with bare ``open(..., "w")`` writes; see
``docs/DURABILITY.md`` for the full durability contract.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

__all__ = [
    "fsync_file",
    "fsync_dir",
    "write_atomic",
    "write_text_atomic",
    "write_json_atomic",
]


def fsync_file(path: str | Path) -> None:
    """Flush a file's data blocks to stable storage."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """Flush a directory entry (making a rename durable).

    Some filesystems refuse ``fsync`` on a directory fd (and Windows
    has no equivalent); failing to harden the *rename* only risks the
    pre-rename name surviving a crash, never a torn file, so errors
    are deliberately swallowed.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str | Path, write: Callable[[Path], None]) -> Path:
    """Produce ``path`` atomically and durably.

    ``write`` fills a private temp file (same directory, so the rename
    stays on one filesystem); the temp file is fsync'd before being
    renamed into place and the parent directory is fsync'd after, so a
    crash at any point leaves either the old file or the complete new
    one — never a torn or empty artifact.  On any failure the temp
    file is removed and nothing is published.  Parent directories are
    created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        write(tmp)
        fsync_file(tmp)
        os.replace(tmp, path)
        fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (see :func:`write_atomic`)."""

    def _fill(tmp: Path) -> None:
        tmp.write_text(text, encoding="utf-8")  # repro-lint: disable=DUR001 -- atomic tmp body

    return write_atomic(path, _fill)


def write_json_atomic(path: str | Path, payload: object) -> Path:
    """Serialise ``payload`` as pretty JSON and write it atomically."""
    return write_text_atomic(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
