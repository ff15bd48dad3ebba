"""Deterministic process-pool fan-out for independent experiment runs.

Every paper figure is a grid of independent ``(parameter, trial)`` runs
that the experiment drivers used to execute strictly serially.  This
module is the execution engine that fans such grids out across cores
while keeping the results **bit-identical** to the serial path:

* **Seeding** — the caller derives one :class:`numpy.random.SeedSequence`
  child per run via :func:`spawn_run_seeds`.  Child seeds depend only on
  the caller's root generator and the number of runs, never on worker
  count, scheduling, or completion order, so ``jobs=1`` and ``jobs=32``
  see exactly the same per-run random streams.
* **Scheduling** — :func:`execute_runs` executes :class:`RunSpec` items
  either in-process (``jobs=1``) or on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with chunked
  dispatch, and always returns results in spec order (the ordered-merge
  reducer), regardless of which worker finished first.
* **Crash isolation** — a run that raises becomes a typed
  :class:`RunResult` carrying a :class:`RunError` instead of killing the
  sweep; completed runs are never lost.
* **Telemetry across the fork** — each parallel run traces into its own
  per-run :class:`~repro.telemetry.JsonlSink` shard file; the parent
  replays the shards into its own tracer in run order (fields
  ``run_index`` / ``worker_seq`` / ``worker_t`` mark replayed records),
  merges worker-side counters and timers into its
  :class:`~repro.telemetry.MetricsRegistry`, brackets the whole grid in
  a ``parallel_run`` span, and emits one ``run_completed`` /
  ``run_failed`` event per run.

See ``docs/PERFORMANCE.md`` for the guarantees and worked examples.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .telemetry import NULL_TRACER, JsonlSink, Tracer, resolve_tracer, use_tracer

__all__ = [
    "RunSpec",
    "RunError",
    "RunResult",
    "spawn_run_seeds",
    "resolve_jobs",
    "execute_runs",
    "failure_notes",
]


@dataclass(frozen=True)
class RunSpec:
    """One independent unit of work: ``fn(rng, **params)``.

    ``fn`` must be a module-level (picklable) callable taking a
    ``numpy.random.Generator`` as its first argument; ``params`` must be
    picklable keyword arguments.  ``seed`` is the run's private
    :class:`~numpy.random.SeedSequence` child — the *only* source of
    randomness the run may use, which is what makes the parallel and
    serial paths bit-identical.
    """

    index: int
    fn: Callable[..., Any]
    seed: np.random.SeedSequence
    params: dict[str, Any] = field(default_factory=dict)
    label: str = ""


@dataclass(frozen=True)
class RunError:
    """Typed description of a run that raised instead of returning."""

    type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"


@dataclass
class RunResult:
    """Outcome of one :class:`RunSpec` (success or isolated failure)."""

    index: int
    label: str
    ok: bool
    value: Any = None
    error: RunError | None = None
    duration_s: float = 0.0
    #: Worker-side aggregate counters (parallel mode only; in serial
    #: mode the run traces straight into the parent registry instead).
    counters: dict[str, int] = field(default_factory=dict)
    #: Worker-side timer totals as ``{name: (total_seconds, count)}``.
    timers: dict[str, tuple[float, int]] = field(default_factory=dict)


def spawn_run_seeds(
    rng: np.random.Generator, count: int
) -> list[np.random.SeedSequence]:
    """``count`` independent child seeds derived from ``rng``.

    Draws a fixed amount of entropy from ``rng`` (so the caller's
    generator advances identically however many workers later run) and
    spawns the children from one root :class:`~numpy.random.SeedSequence`.
    Child ``i`` is a pure function of the root entropy and ``i`` — the
    determinism anchor of the whole engine.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    entropy = [int(word) for word in rng.integers(0, 2**63 - 1, size=4)]
    return np.random.SeedSequence(entropy).spawn(count)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` request: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be a positive worker count (or 0/None for all cores)")
    return jobs


def failure_notes(failures: Sequence[RunResult]) -> list[str]:
    """Human-readable one-liners for failed runs (for result notes)."""
    return [
        f"run failed: {result.label or f'#{result.index}'}: {result.error}"
        for result in failures
        if result.error is not None
    ]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def _run_one(spec: RunSpec, run_tracer: Tracer) -> RunResult:
    """Execute one spec under ``run_tracer``, isolating any exception."""
    rng = np.random.default_rng(spec.seed)
    start = time.perf_counter()
    try:
        with use_tracer(run_tracer):
            value = spec.fn(rng, **spec.params)
        ok, error = True, None
    except (KeyboardInterrupt, SystemExit):
        # Interpreter-level interrupts must stop the whole sweep, not be
        # folded into a RunResult like an ordinary run failure.
        raise
    # A failed run becomes RunResult(ok=False); the rest of the grid
    # must still complete — this is the engine's crash-isolation boundary.
    except Exception as exc:  # repro-lint: disable=ERR003 -- crash isolation; grid completes
        value = None
        ok = False
        error = RunError(
            type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
    duration = time.perf_counter() - start
    return RunResult(
        index=spec.index,
        label=spec.label,
        ok=ok,
        value=value,
        error=error,
        duration_s=duration,
    )


def _execute_payload(payload: tuple[RunSpec, str | None]) -> RunResult:
    """Process-pool entry point: run one spec with its own trace shard.

    The per-run tracer writes to a private :class:`JsonlSink` shard (or
    nowhere when the parent is untraced), so worker emission survives
    the fork without contending for the parent's file handle.  Counters
    and timers travel back on the :class:`RunResult`.
    """
    spec, shard_path = payload
    if shard_path is None:
        # Parent is untraced: give the run the zero-overhead no-op
        # tracer so hot paths skip record assembly entirely.
        return _run_one(spec, NULL_TRACER)
    run_tracer = Tracer(sink=JsonlSink(shard_path))
    try:
        result = _run_one(spec, run_tracer)
    finally:
        run_tracer.close()
    result.counters = {
        name: counter.value
        for name, counter in run_tracer.metrics.counters.items()
    }
    result.timers = {
        name: (timer.total_seconds, timer.count)
        for name, timer in run_tracer.metrics.timers.items()
    }
    return result


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------
def _replay_shard(tracer: Tracer, index: int, shard_path: Path) -> None:
    """Replay one worker shard into the parent tracer, in run order.

    Worker-local ``seq``/``t`` are preserved as ``worker_seq`` /
    ``worker_t``; the parent stamps its own sequence numbers, so the
    merged trace stays totally ordered.
    """
    if not shard_path.exists():
        return
    with shard_path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", "unknown")
            record["worker_seq"] = record.pop("seq", None)
            record["worker_t"] = record.pop("t", None)
            record.pop("run_index", None)
            tracer.event(kind, run_index=index, **record)


def _merge_result(tracer: Tracer, result: RunResult) -> None:
    """Fold one run's metrics into the parent and emit its lifecycle event."""
    for name, value in result.counters.items():
        tracer.metrics.counter(name).add(value)
    for name, (total_seconds, count) in result.timers.items():
        timer = tracer.metrics.timer(name)
        timer.total_seconds += total_seconds
        timer.count += count
    tracer.count("parallel.runs_completed" if result.ok else "parallel.runs_failed")
    if tracer.enabled:
        if result.ok:
            tracer.event(
                "run_completed",
                run_index=result.index,
                label=result.label,
                duration_s=round(result.duration_s, 9),
            )
        else:
            assert result.error is not None
            tracer.event(
                "run_failed",
                run_index=result.index,
                label=result.label,
                duration_s=round(result.duration_s, 9),
                error_type=result.error.type,
                error_message=result.error.message,
            )


#: Grids smaller than this many chunks per worker dispatch one spec at
#: a time.  Runs are coarse (milliseconds to seconds of simulation), so
#: pickling overhead is negligible until the grid is huge — but a large
#: chunk pins its whole tail to one worker, serialising the end of the
#: sweep (the estimation-sweep "parallel slower than serial" regression
#: came from ~4-spec chunks on a 2-worker pool).
_CHUNKS_PER_WORKER = 32


def _default_chunksize(n_specs: int, jobs: int) -> int:
    """Chunked dispatch: fine-grained by default, chunked only at scale.

    One spec per dispatch keeps every worker busy until the grid is
    drained; only grids beyond ``jobs * _CHUNKS_PER_WORKER`` specs
    chunk up, and then into enough chunks that the tail still load
    balances.
    """
    if n_specs <= jobs * _CHUNKS_PER_WORKER:
        return 1
    return math.ceil(n_specs / (jobs * _CHUNKS_PER_WORKER))


def execute_runs(
    specs: Sequence[RunSpec],
    jobs: int | None = 1,
    *,
    tracer: Tracer | None = None,
    chunksize: int | None = None,
) -> list[RunResult]:
    """Execute ``specs`` and return their results **in spec order**.

    ``jobs=1`` (the default) runs in-process, tracing directly into the
    ambient/parent tracer — the exact serial behaviour.  ``jobs>1``
    (or ``jobs in (0, None)`` for all cores) fans out over a process
    pool; per-run seeds make the returned values bit-identical to the
    serial path, and the ordered merge makes the result list identical
    too.  A run that raises yields ``RunResult(ok=False, error=...)``
    in its slot; the grid always completes.
    """
    tracer = resolve_tracer(tracer)
    jobs = resolve_jobs(jobs)
    specs = list(specs)
    jobs = min(jobs, max(1, len(specs)))
    results: list[RunResult] = []
    with tracer.span("parallel_run", jobs=jobs, runs=len(specs)):
        if jobs == 1:
            for spec in specs:
                result = _run_one(spec, tracer)
                _merge_result(tracer, result)
                results.append(result)
        else:
            payloads: list[tuple[RunSpec, str | None]]
            with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
                shard_dir = Path(tmp)
                payloads = [
                    (
                        spec,
                        str(shard_dir / f"run-{spec.index:06d}.jsonl")
                        if tracer.enabled
                        else None,
                    )
                    for spec in specs
                ]
                chunk = chunksize or _default_chunksize(len(specs), jobs)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    for result in pool.map(
                        _execute_payload, payloads, chunksize=chunk
                    ):
                        if tracer.enabled:
                            _replay_shard(
                                tracer,
                                result.index,
                                shard_dir / f"run-{result.index:06d}.jsonl",
                            )
                        _merge_result(tracer, result)
                        results.append(result)
    results.sort(key=lambda result: result.index)
    return results
