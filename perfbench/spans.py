"""Spans around the program's layer boundaries, for traced runs only.

:class:`SpanRecorder` patches public callables of each layer (class
methods, module functions through the binding their caller uses, and
generator or coroutine functions, which are timed on each resumption)
for the duration of ``with recorder.installed():`` and restores the
originals on exit.  Untraced runs never build a recorder, so they run
the program unmodified.

A span records name, start, end, parent, thread and job id.  Spans are
held in memory; self time (a span minus its child spans on the same
thread) is accumulated as they close, and the raw spans can be written
out as JSON lines at exit (``--spans FILE``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from harness import PER_LAYER, Phase

perf = time.perf_counter

Hook = Callable[..., Any]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:qualname`` and the span it records.

    ``span`` may be a function of the call's positional arguments (for
    routing one callable to several span names).  ``job`` maps the
    arguments to a job id; ``start``/``stop`` are counting hooks called
    as ``start(rec, args) -> token`` and ``stop(rec, args, token, value)``.
    """

    path: str
    span: str | Callable[[tuple[Any, ...]], str]
    job: Callable[[tuple[Any, ...]], Any] | None = None
    start: Hook | None = None
    stop: Hook | None = None


class _Frame:
    __slots__ = ("name", "job", "sid", "parent", "start", "child")

    def __init__(self, name: str, job: Any, sid: int, parent: int | None):
        self.name = name
        self.job = job
        self.sid = sid
        self.parent = parent
        self.start = 0.0
        self.child = 0.0


class _ThreadLog:
    """Per-thread accumulators: no cross-thread read-modify-write."""

    def __init__(self, ident: int, keep: bool):
        self.ident = ident
        self.stack: list[_Frame] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[Any, ...]] | None = [] if keep else None


class SpanRecorder:
    """Collects spans from wrapped callables; computes the per-layer metrics."""

    def __init__(self, keep_spans: bool = False):
        self.targets = TARGETS
        self._keep = keep_spans
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []
        self.window_s = 0.0
        #: Free-form timestamps shared by hooks (job id -> time).
        self.marks: dict[tuple[str, Any], float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident(), self._keep)
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def enter(self, name: str, job: Any = None) -> _Frame:
        log = self._log()
        parent = log.stack[-1] if log.stack else None
        if job is None and parent is not None:
            job = parent.job
        frame = _Frame(name, job, next(self._ids), parent.sid if parent else None)
        log.stack.append(frame)
        frame.start = perf()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf()
        log = self._log()
        log.stack.pop()
        duration = end - frame.start
        log.inclusive[frame.name] += duration
        log.self_time[frame.name] += duration - frame.child
        log.calls[frame.name] += 1
        if log.stack:
            log.stack[-1].child += duration
        if log.spans is not None:
            log.spans.append(
                (frame.name, frame.start, end, frame.parent, log.ident, frame.job, frame.sid)
            )

    def count(self, key: str, value: float = 1.0) -> None:
        self._log().counts[key] += value

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every target for the body of the ``with``; always restore.

        The time between the last patch and the first restore is the
        window every traced thread's wall time is measured over.
        """
        try:
            for target in self.targets:
                self._patch(target)
            self.window_s = -perf()
            yield self
        finally:
            self.window_s += perf()
            self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _patch(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        owner: Any = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new: Any = type(raw)(self._wrap(raw.__func__, target))
        else:
            new = self._wrap(raw, target)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        rec = self

        def begin(args: tuple[Any, ...]) -> tuple[str, Any, Any]:
            name = target.span(args) if callable(target.span) else target.span
            job = target.job(args) if target.job is not None else None
            token = target.start(rec, args) if target.start is not None else None
            return name, job, token

        def finish(args: tuple[Any, ...], token: Any, value: Any) -> None:
            if target.stop is not None:
                target.stop(rec, args, token, value)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                name, job, token = begin(args)
                value = yield from rec._resumptions(fn(*args, **kwargs), name, job)
                finish(args, token, value)
                return value

            return gen_wrapper

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def coro_wrapper(*args: Any, **kwargs: Any) -> Any:
                name, job, token = begin(args)
                try:
                    value = await _Resumed(rec, fn(*args, **kwargs), name, job)
                except Exception:
                    finish(args, token, None)
                    raise
                finish(args, token, value)
                return value

            return coro_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name, job, token = begin(args)
            frame = rec.enter(name, job)
            try:
                value = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            finish(args, token, value)
            return value

        return wrapper

    def _resumptions(self, inner: Any, name: str, job: Any) -> Any:
        """Drive ``inner`` (a generator or await iterator), one span per resumption."""
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = self.enter(name, job)
            try:
                item = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                self.exit(frame)
                return stop.value
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the inner frame
                value, error = None, exc

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, float]]:
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        for log in self._logs:
            for src, dst in ((log.inclusive, inclusive), (log.self_time, self_time),
                             (log.calls, calls), (log.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
        return inclusive, self_time, calls, counts

    def write_spans(self, path: str) -> int:
        """Write every kept span as one JSON line; returns how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for log in self._logs:
                for name, start, end, parent, thread, job, sid in log.spans or ():
                    handle.write(json.dumps({
                        "id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": thread, "job": job,
                    }) + "\n")
                    written += 1
        return written

    def layer_metrics(
        self, phase: Phase, trace_overhead: float
    ) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of a traced phase, plus the table lines."""
        inclusive, self_time, calls, counts = self.totals()
        counts.update(phase.counts)
        jobs = max(counts.get("jobs", 0.0), 1.0)
        runs = counts.get("scheduler.runs", 0.0)

        def s(*names: str) -> float:
            return sum(self_time.get(name, 0.0) for name in names)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        threads = [log for log in self._logs if log.calls]
        traced_wall = self.window_s * len(threads)
        idle = s("idle.select", "idle.take_batch")
        accounted = sum(self_time.values())
        requests = calls.get("jobs.steps", 0) - counts.get("jobs.generators", 0.0)
        ticks = counts.get("scheduler.ticks", 0.0)
        metrics = {
            "core.find_max_s": s("core.find_max"),
            "core.filter_s": s("core.filter"),
            "core.two_maxfind_s": s("core.two_maxfind", "core.all_play_all"),
            "core.oracle_self_s": s("core.oracle"),
            "core.oracle_fresh_ratio": ratio(counts.get("oracle.fresh", 0.0),
                                             counts.get("oracle.requests", 0.0)),
            "core.naive_cmp_per_job": counts.get("naive", 0.0) / jobs,
            "core.expert_cmp_per_job": counts.get("expert", 0.0) / jobs,
            "core.naive_over_lower_bound": ratio(counts.get("naive", 0.0),
                                                 counts.get("naive_lb", 0.0)),
            "core.expert_over_lower_bound": ratio(counts.get("expert_in_lb", 0.0),
                                                  counts.get("expert_lb", 0.0)),
            "core.survivors_over_bound": ratio(counts.get("survivors", 0.0),
                                               counts.get("survivor_bound", 0.0)),
            "workers.decide_s": s("workers.decide"),
            "workers.judgments": counts.get("workers.judgments", 0.0) / jobs,
            "platform.prepare_s": s("platform.prepare"),
            "platform.decide_s": s("platform.decide"),
            "platform.finalize_s": s("platform.finalize"),
            "platform.compare_batch_s": s("platform.compare_batch"),
            "platform.batches": calls.get("platform.prepare", 0) / jobs,
            "platform.judgments_per_batch": ratio(counts.get("platform.judgments", 0.0),
                                                  calls.get("platform.prepare", 0)),
            "jobs.step_s": s("jobs.steps"),
            "scheduler.init_s": s("scheduler.init"),
            "scheduler.run_s": inclusive.get("scheduler.run", 0.0),
            "scheduler.self_s": s("scheduler.run"),
            "scheduler.ticks": ratio(ticks, runs),
            "scheduler.requests_per_tick": ratio(requests, ticks),
            "scheduler.cache_lookup_s": s("scheduler.cache_lookup"),
            "scheduler.cache_store_s": s("scheduler.cache_store"),
            "scheduler.cache_hit_ratio": ratio(counts.get("cache.hits", 0.0),
                                               counts.get("cache.lookups", 0.0)),
            "scheduler.cache_entries": ratio(counts.get("cache.entries", 0.0), runs),
            "scheduler.judgments_saved_per_job": ratio(counts.get("cache.hits", 0.0),
                                                       counts.get("scheduler.jobs", 0.0)),
            "durability.journal_append_s": s("durability.journal_append"),
            "durability.journal_commit_s": s("durability.journal_commit"),
            "durability.fsyncs": ratio(calls.get("durability.fsync", 0), runs),
            "durability.fsync_s": s("durability.fsync"),
            "durability.store_write_s": s("durability.store_write"),
            "durability.journal_bytes_per_judgment": ratio(counts.get("journal_bytes", 0.0),
                                                           counts.get("judgments_bought", 0.0)),
            "durability.store_bytes_per_judgment": ratio(counts.get("store_bytes", 0.0),
                                                         counts.get("judgments_bought", 0.0)),
            "durability.recover_s": s("durability.recover"),
            "durability.store_load_s": s("durability.store_open", "durability.store_load"),
            "durability.replayed_batches": ratio(counts.get("replayed_batches", 0.0),
                                                 counts.get("restarts", 0.0)),
            "durability.restart_pass_s": counts.get("restart_pass_s", 0.0),
            "service_http.connection_s": s("service_http.connection"),
            "service_http.submit_s": s("service_http.submit"),
            "service_http.dispatch_s": s("service_http.dispatch"),
            "service_http.codec_s": s("service_http.codec"),
            "service_http.auth_s": s("service_http.auth"),
            "service_http.state_s": s("service_http.state"),
            "service_http.queue_wait_ms": 1000.0 * ratio(counts.get("service.queue_wait_s", 0.0),
                                                         counts.get("service.admitted", 0.0)),
            "service_http.generation_s": s("service_http.generation"),
            "service_http.jobs_per_generation": ratio(counts.get("service.admitted", 0.0),
                                                      calls.get("service_http.generation", 0)),
            "service_http.result_delivery_ms": 1000.0 * ratio(
                counts.get("service.delivery_s", 0.0), counts.get("service.delivered", 0.0)),
            "service_http.non_2xx": counts.get("service.non_2xx", 0.0),
            "idle_s": idle,
            "traced_wall_s": traced_wall,
            "unaccounted_s": traced_wall - accounted,
            "unaccounted_share": ratio(traced_wall - accounted, traced_wall),
            "trace_overhead": trace_overhead,
        }
        missing = {m.name for m in PER_LAYER} - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics without a definition: {sorted(missing)}")
        return metrics, self._table(inclusive, self_time, calls, threads, phase, metrics)

    def _table(
        self,
        inclusive: dict[str, float],
        self_time: dict[str, float],
        calls: dict[str, int],
        threads: list[_ThreadLog],
        phase: Phase,
        metrics: dict[str, float],
    ) -> list[str]:
        wall = metrics["traced_wall_s"]
        lines = [f"{'span':<28} {'calls':>9} {'incl s':>10} {'self s':>10} {'self %':>7}"]
        for name in sorted(self_time, key=lambda n: -self_time[n]):
            lines.append(
                f"{name:<28} {calls[name]:>9} {inclusive[name]:>10.4f} "
                f"{self_time[name]:>10.4f} {100.0 * self_time[name] / wall:>6.1f}%"
            )
        lines.append(
            f"{'unaccounted':<28} {'':>9} {'':>10} {metrics['unaccounted_s']:>10.4f} "
            f"{100.0 * metrics['unaccounted_share']:>6.1f}%"
        )
        lines.append(f"threads traced: {len(threads)}, {self.window_s:.3f} s each "
                     f"(timed phase {phase.wall_s:.3f} s), "
                     f"trace_overhead {metrics['trace_overhead']:+.3f}")
        lines.append("")
        for m in PER_LAYER:
            lines.append(f"{m.name:<40} {metrics[m.name]:>14.6f} {m.unit:<6} {m.doc}")
        return lines


class _Resumed:
    """Awaitable that times each resumption of a wrapped coroutine."""

    def __init__(self, rec: SpanRecorder, coro: Any, name: str, job: Any):
        self._rec, self._coro, self._name, self._job = rec, coro, name, job

    def __await__(self) -> Any:
        return self._rec._resumptions(self._coro.__await__(), self._name, self._job)


# ----------------------------------------------------------------------
# Counting hooks
# ----------------------------------------------------------------------
def _oracle_start(rec: SpanRecorder, args: tuple[Any, ...]) -> int:
    return int(args[0].comparisons)


def _oracle_stop(rec: SpanRecorder, args: tuple[Any, ...], token: int, value: Any) -> None:
    rec.count("oracle.requests", len(args[1]))
    rec.count("oracle.fresh", int(args[0].comparisons) - token)


def _judgments(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    rec.count("workers.judgments", len(value))


def _prepared(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    rec.count("platform.judgments", value.n_judgments)


def _steps_start(rec: SpanRecorder, args: tuple[Any, ...]) -> None:
    rec.count("jobs.generators")


def _scheduler_run(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    scheduler = args[0]
    rec.count("scheduler.runs")
    rec.count("scheduler.jobs", len(value))
    rec.count("scheduler.ticks", scheduler.ticks)
    cache = scheduler.cache
    if cache is not None:
        rec.count("cache.hits", cache.hits)
        rec.count("cache.lookups", cache.lookups)
        rec.count("cache.entries", len(cache))


def _submitted(rec: SpanRecorder, args: tuple[Any, ...], token: Any, record: Any) -> None:
    rec.marks[("submitted", record.job_id)] = perf()


def _admitted(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    submitted = rec.marks.pop(("submitted", args[1].job_id), None)
    if submitted is not None:
        rec.count("service.queue_wait_s", perf() - submitted)
        rec.count("service.admitted")


def _settled(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    rec.marks[("settled", args[1].job_id)] = perf()


def _route(args: tuple[Any, ...]) -> str:
    request = args[1]
    if request.method == "POST" and request.path == "/v1/jobs":
        return "service_http.submit"
    return "service_http.dispatch"


def _request_job(args: tuple[Any, ...]) -> Any:
    parts = args[1].path.split("/")
    return parts[3] if len(parts) > 3 else None


def _dispatched(rec: SpanRecorder, args: tuple[Any, ...], token: Any, value: Any) -> None:
    if value is None or value[0] >= 300:
        rec.count("service.non_2xx")
        return
    request = args[1]
    if request.path.endswith("/result") and value[0] == 200:
        settled = rec.marks.pop(("settled", _request_job(args)), None)
        if settled is not None:
            rec.count("service.delivery_s", perf() - settled)
            rec.count("service.delivered")


def _job_of(args: tuple[Any, ...]) -> int:
    return id(args[0])


#: Every wrapped boundary, layer by layer.
TARGETS: tuple[Target, ...] = (
    # core: the entry point, both phases (through their callers' bindings), the oracle
    Target("repro.api:find_max", "core.find_max"),
    Target("repro.core.maxfinder:filter_candidates", "core.filter"),
    Target("repro.core.maxfinder:two_maxfind", "core.two_maxfind"),
    Target("repro.jobs:filter_candidates_steps", "core.filter"),
    Target("repro.jobs:two_maxfind_steps", "core.two_maxfind"),
    Target("repro.jobs:play_all_play_all_steps", "core.all_play_all"),
    Target("repro.core.oracle:ComparisonOracle.compare_pairs_steps", "core.oracle",
           start=_oracle_start, stop=_oracle_stop),
    # workers
    Target("repro.workers.threshold:ThresholdWorkerModel.decide", "workers.decide",
           stop=_judgments),
    Target("repro.workers.threshold:ThresholdWorkerModel.decide_from_uniforms",
           "workers.decide", stop=_judgments),
    # platform fast path; the scheduler's fused decide is the platform decide
    Target("repro.platform.platform:CrowdPlatform.fast_batch_prepare", "platform.prepare",
           stop=_prepared),
    Target("repro.platform.platform:CrowdPlatform.fast_batch_decide", "platform.decide"),
    Target("repro.scheduler.engine:CrowdScheduler._fused_decide", "platform.decide"),
    Target("repro.platform.platform:CrowdPlatform.fast_batch_finalize", "platform.finalize"),
    Target("repro.platform.platform:CrowdPlatform.compare_batch", "platform.compare_batch"),
    # jobs
    Target("repro.jobs:CrowdMaxJob.steps", "jobs.steps", job=_job_of, start=_steps_start),
    # scheduler and its cross-job cache
    Target("repro.scheduler.engine:CrowdScheduler.__init__", "scheduler.init"),
    Target("repro.scheduler.engine:CrowdScheduler.run", "scheduler.run", stop=_scheduler_run),
    Target("repro.scheduler.cache:ComparisonMemoCache.lookup_batch", "scheduler.cache_lookup"),
    Target("repro.scheduler.cache:ComparisonMemoCache.store_batch", "scheduler.cache_store"),
    # durability: journal, store, fsync (the journal calls os.fsync through ``os``)
    Target("repro.durability.journal:JobJournal.append", "durability.journal_append"),
    Target("repro.durability.journal:JobJournal.commit_group", "durability.journal_commit"),
    Target("repro.durability.journal:JobJournal.recover", "durability.recover"),
    Target("os:fsync", "durability.fsync"),
    Target("repro.durability.store:PersistentComparisonStore.__init__",
           "durability.store_open"),
    Target("repro.durability.store:PersistentComparisonStore.load", "durability.store_load"),
    Target("repro.durability.store:PersistentComparisonStore.write_entries",
           "durability.store_write"),
    # service_http: connection loop, routing, codec, auth, queue, generations
    Target("repro.service_http.server:_Connection.serve", "service_http.connection"),
    Target("repro.service_http.server:ServiceServer.dispatch", _route, job=_request_job,
           stop=_dispatched),
    Target("repro.service_http.codec:dumps", "service_http.codec"),
    Target("repro.service_http.codec:loads", "service_http.codec"),
    Target("repro.service_http.auth:TenantAuth.authenticate", "service_http.auth"),
    Target("repro.service_http.auth:TenantAuth.throttle", "service_http.auth"),
    Target("repro.service_http.state:ServiceState.submit", "service_http.state",
           stop=_submitted),
    Target("repro.service_http.state:ServiceState.mark_running", "service_http.state",
           stop=_admitted),
    Target("repro.service_http.state:ServiceState.settle", "service_http.state",
           stop=_settled),
    Target("repro.service_http.runner:ServiceRunner._run_generation",
           "service_http.generation"),
    # idle: the runner's queue wait and the event loop's selector wait
    Target("repro.service_http.state:ServiceState.take_batch", "idle.take_batch"),
    Target("selectors:EpollSelector.select", "idle.select"),
)
