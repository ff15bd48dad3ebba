"""Shared plumbing of the benchmark: metric specs, statistics and the result line.

Every workload module exposes one class with the same three-step shape:

* ``setup()`` generates the seeded inputs at full size, builds what the
  timed phase needs and runs a warm-up pass;
* ``timed(seconds, recorder)`` runs the closed loop for at least
  ``seconds`` and returns a :class:`Phase`;
* ``teardown()`` releases what ``setup()`` built (servers, state
  directories), and ``close()`` releases everything at the end.

:func:`measure` drives that shape: set-up several times (the median is
``setup_s``), one timed phase (or an untraced and a traced one), the
output checks, and the metrics.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up runs this many times per benchmark run; ``setup_s`` is the median.
SETUP_REPEATS = 3

perf = time.perf_counter


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else.

    Exits nonzero (before any result is printed) when the checkout holds
    no program source, so a stray installed copy is never measured.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


@dataclass(frozen=True)
class Metric:
    """One reported metric: name, unit, direction and definition."""

    name: str
    unit: str
    better: str
    doc: str


#: Metrics of untraced runs (``--trace 0``), in print order.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "median wall time of the in-process set-up: seeded inputs, build, warm-up"),
    Metric("jobs_per_s", "jobs/s", "higher", "jobs settled OK per second of timed wall time"),
    Metric("latency_p50_ms", "ms", "lower", "median per-job latency"),
    Metric("latency_p90_ms", "ms", "lower", "90th-percentile per-job latency"),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the workload process"),
    Metric("money_per_job", "money", "lower", "mean ledger spend per settled job, C(n)"),
)


def _layer(name: str, unit: str, doc: str) -> Metric:
    return Metric(name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower", doc)


_HIGHER_IS_BETTER = frozenset(
    {"core.oracle_fresh_ratio", "scheduler.cache_hit_ratio",
     "scheduler.judgments_saved_per_job", "scheduler.requests_per_tick",
     "platform.judgments_per_batch", "service_http.jobs_per_generation"}
)

#: Metrics of traced runs (``--trace 1``), in print order.  Every ``_s``
#: layer metric is *self* time (the span minus its child spans) summed
#: over the traced phase, except where the definition says otherwise.
PER_LAYER: tuple[Metric, ...] = (
    _layer("core.find_max_s", "s", "find_max self time (oracle set-up, result assembly)"),
    _layer("core.filter_s", "s", "phase 1 (Algorithm 2) self time"),
    _layer("core.two_maxfind_s", "s", "phase 2 self time (2-MaxFind; TOP-k all-play-all)"),
    _layer("core.oracle_self_s", "s", "ComparisonOracle batch self time (memo, dedup)"),
    _layer("core.oracle_fresh_ratio", "share", "fresh comparisons / pair requests at the oracle"),
    _layer("core.naive_cmp_per_job", "count", "naive comparisons per settled job"),
    _layer("core.expert_cmp_per_job", "count", "expert comparisons per settled job"),
    _layer("core.naive_over_lower_bound", "ratio", "naive comparisons / Corollary 1's n*u_n/4"),
    _layer("core.expert_over_lower_bound", "ratio", "expert comparisons / Lemma 6's u_n^(4/3)"),
    _layer("core.survivors_over_bound", "ratio", "phase-1 survivors / Lemma 3's 2*u_n-1"),
    _layer("workers.decide_s", "s", "worker-model decide self time"),
    _layer("workers.judgments", "count", "judgments decided by worker models per job"),
    _layer("platform.prepare_s", "s", "CrowdPlatform.fast_batch_prepare self time"),
    _layer("platform.decide_s", "s", "fused/fast platform decide self time"),
    _layer("platform.finalize_s", "s", "CrowdPlatform.fast_batch_finalize self time"),
    _layer("platform.compare_batch_s", "s", "CrowdPlatform.compare_batch (serial path) self time"),
    _layer("platform.batches", "count", "platform batches prepared per job"),
    _layer("platform.judgments_per_batch", "count", "judgments per prepared platform batch"),
    _layer("jobs.step_s", "s", "self time inside job step generators"),
    _layer("scheduler.init_s", "s", "CrowdScheduler construction self time"),
    _layer("scheduler.run_s", "s", "CrowdScheduler.run inclusive time"),
    _layer("scheduler.self_s", "s", "CrowdScheduler.run self time (tick loop)"),
    _layer("scheduler.ticks", "count", "scheduler ticks per scheduler run"),
    _layer("scheduler.requests_per_tick", "count", "job requests served per tick"),
    _layer("scheduler.cache_lookup_s", "s", "ComparisonMemoCache.lookup_batch self time"),
    _layer("scheduler.cache_store_s", "s", "ComparisonMemoCache.store_batch self time"),
    _layer("scheduler.cache_hit_ratio", "share", "cache hits / cache lookups"),
    _layer("scheduler.cache_entries", "count", "cache entries at the end of a scheduler run"),
    _layer("scheduler.judgments_saved_per_job", "count", "cache hits per settled job"),
    _layer("durability.journal_append_s", "s", "JobJournal.append self time"),
    _layer("durability.journal_commit_s", "s", "JobJournal.commit_group self time"),
    _layer("durability.fsyncs", "count", "os.fsync calls per scheduler run"),
    _layer("durability.fsync_s", "s", "time inside os.fsync"),
    _layer("durability.store_write_s", "s", "PersistentComparisonStore.write_entries self time"),
    _layer("durability.journal_bytes_per_judgment", "B", "journal bytes / judgments bought"),
    _layer("durability.store_bytes_per_judgment", "B", "SQLite bytes / judgments bought"),
    _layer("durability.recover_s", "s", "JobJournal.recover self time"),
    _layer("durability.store_load_s", "s", "store open and load self time"),
    _layer("durability.replayed_batches", "count", "batches replayed per restart pass"),
    _layer("durability.restart_pass_s", "s", "median wall time of one restart pass"),
    _layer("service_http.connection_s", "s", "connection read/parse/respond self time"),
    _layer("service_http.submit_s", "s", "POST /v1/jobs dispatch self time"),
    _layer("service_http.dispatch_s", "s", "other-route dispatch self time"),
    _layer("service_http.codec_s", "s", "wire codec self time"),
    _layer("service_http.auth_s", "s", "TenantAuth self time"),
    _layer("service_http.state_s", "s", "ServiceState submit/admit/settle self time"),
    _layer("service_http.queue_wait_ms", "ms", "mean admission-queue wait per job"),
    _layer("service_http.generation_s", "s", "generation self time (pools, submit, settle)"),
    _layer("service_http.jobs_per_generation", "count", "jobs per scheduler generation"),
    _layer("service_http.result_delivery_ms", "ms", "mean time from settle to result sent"),
    _layer("service_http.non_2xx", "count", "non-2xx responses at dispatch"),
    _layer("idle_s", "s", "time threads spent blocked waiting for work"),
    _layer("traced_wall_s", "s", "wall time wrappers were installed, summed over threads"),
    _layer("unaccounted_s", "s", "traced wall minus idle minus all layer self times"),
    _layer("unaccounted_share", "share", "unaccounted_s / traced_wall_s"),
    _layer("trace_overhead", "share", "1 - traced jobs_per_s / untraced jobs_per_s"),
)


@dataclass
class Phase:
    """What one timed phase measured and checked."""

    wall_s: float
    latencies_s: list[float]
    money: list[float]
    attempted: int
    failed: int
    #: Failed output checks, as human-readable lines (empty when correct).
    problems: list[str] = field(default_factory=list)
    #: Deterministic work counters for the per-layer table.
    counts: dict[str, float] = field(default_factory=dict)
    #: Extra end-to-end figures printed in the human table only.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def ok_jobs(self) -> int:
        return self.attempted - self.failed

    def add(self, key: str, value: float = 1) -> None:
        """Accumulate a work counter."""
        self.counts[key] = self.counts.get(key, 0) + value


class Workload(Protocol):
    def setup(self) -> None: ...

    def timed(self, seconds: float, recorder: Any) -> Phase: ...

    def teardown(self) -> None: ...

    def close(self) -> None: ...


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], phase: Phase) -> dict[str, float]:
    """The end-to-end metric values of one untraced phase."""
    if not phase.latencies_s or not phase.money:
        raise RuntimeError("the timed phase settled no job")
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": phase.ok_jobs / phase.wall_s,
        "latency_p50_ms": 1000.0 * percentile(phase.latencies_s, 50),
        "latency_p90_ms": 1000.0 * percentile(phase.latencies_s, 90),
        "peak_rss_mb": peak_rss_mb(),
        "money_per_job": statistics.fmean(phase.money),
    }


def measure(
    workload: Workload, seconds: float, trace: bool, recorder_factory: Callable[[], Any]
) -> tuple[dict[str, float], Phase, list[str]]:
    """Set up, run the timed phase(s), check; returns metrics, phase, table lines.

    Untraced: one phase of ``seconds``.  Traced: an untraced and a traced
    phase of ``seconds / 2`` each, each after its own set-up, so
    ``trace_overhead`` compares like with like.
    """
    setups: list[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            start = perf()
            workload.setup()
            setups.append(perf() - start)
        if not trace:
            phase = workload.timed(seconds, None)
            metrics = end_to_end(setups, phase)
            return metrics, phase, _e2e_lines(metrics, setups, phase)
        plain = workload.timed(seconds / 2.0, None)
        # A fresh set-up for the traced half, so state the first half left
        # behind (the server's job records) does not count as overhead.
        workload.teardown()
        workload.setup()
        recorder = recorder_factory()
        with recorder.installed():
            traced = workload.timed(seconds / 2.0, recorder)
        overhead = 1.0 - (traced.ok_jobs / traced.wall_s) / (plain.ok_jobs / plain.wall_s)
        metrics, lines = recorder.layer_metrics(traced, overhead)
        traced.problems = plain.problems + traced.problems
        traced.attempted += plain.attempted
        traced.failed += plain.failed
        return metrics, traced, lines
    finally:
        workload.close()


def _e2e_lines(metrics: dict[str, float], setups: list[float], phase: Phase) -> list[str]:
    samples = len(phase.latencies_s)
    beyond = samples - math.ceil(0.9 * samples)
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": f"{phase.ok_jobs} jobs in {phase.wall_s:.2f} s",
        "latency_p50_ms": f"{samples} samples",
        "latency_p90_ms": f"{samples} samples, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss",
        "money_per_job": f"{len(phase.money)} settled jobs",
    }
    lines = [f"{m.name:<22} {metrics[m.name]:>14.4f} {m.unit:<7} {notes[m.name]}"
             for m in END_TO_END]
    error_rate = phase.failed / phase.attempted if phase.attempted else 1.0
    lines.append(f"{'error_rate':<22} {error_rate:>14.4f} {'share':<7} "
                 f"{phase.failed} failed of {phase.attempted} attempted")
    for name, (value, unit) in phase.extra.items():
        lines.append(f"{name:<22} {value:>14.4f} {unit:<7}")
    return lines


def result_line(phase: Phase, metrics: dict[str, float], trace: bool) -> str:
    """The JSON object the benchmark prints as its last line."""
    specs = PER_LAYER if trace else END_TO_END
    missing = [m.name for m in specs if m.name not in metrics]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    return json.dumps(
        {
            "correct": not phase.problems and phase.failed == 0,
            "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": {
                m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in specs
            },
        }
    )
