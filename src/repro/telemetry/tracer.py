"""Structured tracing for the two-phase pipeline.

The paper's contribution is an *accounting* argument — Theorem 1 bounds
``C(n) = x_n c_n + x_e c_e`` by counting comparisons per worker class —
so the reproduction needs first-class, machine-readable records of
where comparisons and wall-clock time go.  A :class:`Tracer` emits flat
dict records of two shapes:

* **spans** — ``span_start`` / ``span_end`` pairs bracketing a named
  stretch of work (``phase1``, ``phase2``, ``job.max``, ...), the end
  record carrying the wall-clock ``duration_s``;
* **events** — point-in-time records (``oracle_batch``,
  ``filter_round``, ``ledger_charge``, ``platform_batch``, ...) with
  kind-specific fields.

Every record carries a per-tracer sequence number ``seq`` and the time
``t`` in seconds since the tracer was created, so a trace totally
orders the run without wall-clock timestamps.  A tracer may be shared
by threads (the HTTP service's event loop and runner): each record is
stamped and written under one lock, so ``seq`` stays contiguous and
``t`` never decreases in sink order.

The default is :data:`NULL_TRACER`, a no-op whose ``enabled`` flag is
``False``; hot paths guard emission with ``if tracer.enabled`` so an
untraced run pays one attribute check per *batch* (not per comparison).
Attach a real :class:`Tracer` explicitly via the ``tracer=`` parameters
threaded through the stack, or ambiently with :func:`use_tracer` /
:func:`set_active_tracer` (how the CLI's ``--trace`` traces whole
experiment runs without plumbing changes).

See ``docs/OBSERVABILITY.md`` for the record schema and worked examples.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import TracebackType
from typing import IO, Any, Iterator, Protocol

from .metrics import MetricsRegistry

__all__ = [
    "TraceSink",
    "JsonlSink",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_active_tracer",
    "set_active_tracer",
    "use_tracer",
    "resolve_tracer",
]


class TraceSink(Protocol):
    """Anywhere trace records can go (a file, a socket, a list)."""

    def write(self, record: dict[str, Any]) -> None:
        """Persist one record."""
        ...

    def close(self) -> None:
        """Flush and release resources."""
        ...


class JsonlSink:
    """Writes one JSON object per line to ``path`` (the JSONL format).

    The file is opened lazily on the first record and truncated, so
    constructing a sink is free and a run that emits nothing leaves no
    file behind.  Records must be JSON-serialisable; the tracer only
    emits str/int/float/bool/None/list fields, so they are.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self.records_written = 0

    def write(self, record: dict[str, Any]) -> None:
        """Append one record as a JSON line (opens the file lazily)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Streaming sink: records must land as they happen, not at
            # close, so an atomic-rename writer cannot apply here.
            self._fh = self.path.open(  # repro-lint: disable=DUR001 -- streaming sink
                "w", encoding="utf-8"
            )
        json.dump(record, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        """Close the file, if it was ever opened."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class Tracer:
    """Collects structured span/event records plus aggregate metrics.

    Parameters
    ----------
    sink:
        Optional destination written per record (e.g. a
        :class:`JsonlSink`).  A tracer buffers records on
        ``self.records`` exactly when it has no sink — convenient for
        tests and small runs — and streams them to the sink otherwise,
        keeping long traces out of memory.
    """

    #: Hot paths guard emission on this flag; the no-op subclass flips it.
    enabled = True

    def __init__(self, sink: TraceSink | None = None):
        self.sink = sink
        self.records: list[dict[str, Any]] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> None:
        """Emit one point-in-time record of the given ``kind``.

        Safe from any thread: the stamp and the write happen under the
        tracer's lock, so records reach the sink in ``seq`` order.
        """
        with self._lock:
            record: dict[str, Any] = {
                "kind": kind,
                "seq": self._seq,
                "t": round(time.perf_counter() - self._t0, 9),
                **fields,
            }
            self._seq += 1
            if self.sink is None:
                self.records.append(record)
            else:
                self.sink.write(record)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Bracket the enclosed block in ``span_start``/``span_end``.

        The ``span_end`` record carries ``duration_s`` and an ``ok``
        flag (``False`` when the block raised); the duration also feeds
        the ``<name>.duration`` timer of :attr:`metrics`.
        """
        self.event("span_start", span=name, **fields)
        start = time.perf_counter()
        ok = True
        try:
            yield
        except BaseException:
            ok = False
            raise
        finally:
            duration = time.perf_counter() - start
            self.metrics.timer(f"{name}.duration").observe(duration)
            self.event(
                "span_end",
                span=name,
                duration_s=round(duration, 9),
                ok=ok,
                **fields,
            )

    def count(self, name: str, amount: int = 1) -> None:
        """Bump the aggregate counter ``name`` (no record emitted)."""
        self.metrics.counter(name).add(amount)

    # ------------------------------------------------------------------
    # Lifecycle / export
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the sink, if any (buffered records stay readable)."""
        if self.sink is not None:
            self.sink.close()

    def write_jsonl(self, path: str | Path) -> Path:
        """Dump the buffered records to ``path`` as JSONL (atomically)."""
        # Imported lazily: repro.experiments imports telemetry, so a
        # module-level import here would be circular.
        from ..experiments.artifacts import write_text_atomic

        lines = [
            json.dumps(record, separators=(",", ":")) for record in self.records
        ]
        body = "\n".join(lines) + "\n" if lines else ""
        return write_text_atomic(Path(path), body)

    def records_of_kind(self, kind: str) -> list[dict[str, Any]]:
        """The buffered records whose ``kind`` matches."""
        return [r for r in self.records if r["kind"] == kind]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(records={self._seq}, sink={self.sink!r})"


class NullTracer(Tracer):
    """The zero-overhead default: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented code can skip even the
    cost of assembling record fields.  Calling the emission methods
    anyway is safe and does nothing, so call sites never need a None
    check.
    """

    enabled = False

    def event(self, kind: str, **fields: Any) -> None:  # noqa: D102 - inherited
        pass

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:  # noqa: D102
        yield

    def count(self, name: str, amount: int = 1) -> None:  # noqa: D102
        pass


#: Shared no-op instance; ``tracer or NULL_TRACER`` style defaults.
NULL_TRACER = NullTracer()

# ----------------------------------------------------------------------
# Ambient (active) tracer
# ----------------------------------------------------------------------
_active: Tracer = NULL_TRACER


def get_active_tracer() -> Tracer:
    """The ambient tracer (the no-op singleton unless one was set)."""
    return _active


def set_active_tracer(tracer: Tracer | None) -> None:
    """Install ``tracer`` as the ambient default (``None`` clears it).

    Instrumented call sites fall back to the ambient tracer when no
    explicit ``tracer=`` is passed, so activating one here traces every
    pipeline constructed afterwards — the hook the CLI's ``--trace``
    and the experiment harness use.
    """
    # The one sanctioned ambient: process-local by design and scoped via
    # use_tracer(); parallel workers build their own tracer per shard.
    global _active  # repro-lint: disable=FRK001 -- sanctioned ambient, scoped by use_tracer()
    _active = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_active_tracer`: restores the previous tracer."""
    previous = get_active_tracer()
    set_active_tracer(tracer)
    try:
        yield tracer
    finally:
        set_active_tracer(previous)


def resolve_tracer(tracer: Tracer | None) -> Tracer:
    """An explicit tracer if given, else the ambient one."""
    return tracer if tracer is not None else _active
