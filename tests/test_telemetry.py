"""Tests for repro.telemetry (tracer, sinks, metrics, integration).

The integration tests pin down the accounting invariant the telemetry
layer exists to expose: summed fresh counts of ``oracle_batch`` records
must equal the per-class comparison counters the algorithms report —
per run for a single ``find_max``, per job in a scheduler's trace.
"""

import json

import numpy as np
import pytest

from repro.core.filter_phase import filter_candidates
from repro.core.generators import planted_instance
from repro.core.maxfinder import ExpertAwareMaxFinder, find_max
from repro.core.oracle import ComparisonOracle
from repro.core.randomized_maxfind import randomized_maxfind
from repro.core.two_maxfind import two_maxfind
from repro.platform.accounting import CostLedger
from repro.scheduler import CrowdScheduler
from repro.telemetry import (
    NULL_TRACER,
    JsonlSink,
    MetricsRegistry,
    NullTracer,
    Tracer,
    get_active_tracer,
    resolve_tracer,
    set_active_tracer,
    use_tracer,
)
from repro.workers.base import PerfectWorkerModel
from repro.workers.expert import make_worker_classes
from repro.workers.threshold import ThresholdWorkerModel

from durable_workload import SchedulerWorkload, run_durable_workload

#: A small scheduler workload: 6 jobs over 2 catalogs, every 4th TOP-3.
SCHEDULER_WORKLOAD = dict(seed=901, n_jobs=6, n=60, u_n=3, catalogs=2)


@pytest.fixture
def classes():
    return make_worker_classes(delta_n=1.0, delta_e=0.25, cost_n=1.0, cost_e=20.0)


@pytest.fixture
def instance(rng):
    return planted_instance(n=300, u_n=8, u_e=3, delta_n=1.0, delta_e=0.25, rng=rng)


class TestTracerBasics:
    def test_events_are_buffered_in_order(self):
        tracer = Tracer()
        tracer.event("a", x=1)
        tracer.event("b", y=2)
        assert [r["kind"] for r in tracer.records] == ["a", "b"]
        assert [r["seq"] for r in tracer.records] == [0, 1]
        assert all(r["t"] >= 0 for r in tracer.records)

    def test_span_emits_start_end_with_duration(self):
        tracer = Tracer()
        with tracer.span("work", label="x"):
            tracer.event("inside")
        kinds = [r["kind"] for r in tracer.records]
        assert kinds == ["span_start", "inside", "span_end"]
        end = tracer.records[-1]
        assert end["span"] == "work"
        assert end["label"] == "x"
        assert end["duration_s"] >= 0
        assert end["ok"] is True
        assert tracer.metrics.timer("work.duration").count == 1

    def test_span_marks_failure_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        end = tracer.records[-1]
        assert end["kind"] == "span_end"
        assert end["ok"] is False

    def test_records_of_kind(self):
        tracer = Tracer()
        tracer.event("a")
        tracer.event("b")
        tracer.event("a")
        assert len(tracer.records_of_kind("a")) == 2

    def test_count_feeds_metrics_without_records(self):
        tracer = Tracer()
        tracer.count("things", 3)
        tracer.count("things")
        assert tracer.metrics.counter("things").value == 4
        assert tracer.records == []

    def test_write_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", x=1)
        tracer.event("b", y="z")
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["a", "b"]


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        tracer = NullTracer()
        tracer.event("a", x=1)
        with tracer.span("s"):
            tracer.count("c")
        assert tracer.enabled is False
        assert tracer.records == []
        assert tracer.metrics.counters == {}

    def test_singleton_default(self):
        assert NULL_TRACER.enabled is False
        assert resolve_tracer(None) is NULL_TRACER


class TestActiveTracer:
    def test_use_tracer_scopes_activation(self):
        tracer = Tracer()
        assert get_active_tracer() is NULL_TRACER
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_active_tracer() is tracer
            assert resolve_tracer(None) is tracer
        assert get_active_tracer() is NULL_TRACER

    def test_explicit_tracer_wins_over_ambient(self):
        ambient, explicit = Tracer(), Tracer()
        with use_tracer(ambient):
            assert resolve_tracer(explicit) is explicit

    def test_set_active_tracer_none_restores_noop(self):
        set_active_tracer(Tracer())
        set_active_tracer(None)
        assert get_active_tracer() is NULL_TRACER


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"kind": "a", "n": 1})
            sink.write({"kind": "b"})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [{"kind": "a", "n": 1}, {"kind": "b"}]
        assert sink.records_written == 2

    def test_no_file_without_records(self, tmp_path):
        path = tmp_path / "sub" / "out.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_tracer_with_sink_streams_and_skips_buffer(self, tmp_path):
        path = tmp_path / "out.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        tracer.event("a")
        tracer.close()
        assert tracer.records == []
        assert json.loads(path.read_text())["kind"] == "a"


class TestMetricsRegistry:
    def test_counters_and_timers_lazily_created(self):
        registry = MetricsRegistry()
        registry.counter("x").add(5)
        registry.counter("x").inc()
        registry.timer("t").observe(0.5)
        with registry.timer("t").time():
            pass
        snap = registry.snapshot()
        assert snap["counters"] == {"x": 6}
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["total_seconds"] >= 0.5
        assert registry.timer("t").mean_seconds > 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").add(-1)

    def test_timer_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().timer("t").observe(-0.1)


class TestOracleTelemetry:
    def test_batch_record_splits_fresh_memo_dupes(self, rng):
        tracer = Tracer()
        oracle = ComparisonOracle(
            np.asarray([1.0, 2.0, 3.0]), PerfectWorkerModel(), rng, tracer=tracer
        )
        oracle.compare_pairs(np.asarray([0, 0, 1]), np.asarray([1, 1, 0]))
        oracle.compare_pairs(np.asarray([0]), np.asarray([2]))
        first, second = tracer.records_of_kind("oracle_batch")
        assert first == {
            **first,
            "label": oracle.label,
            "requests": 3,
            "fresh": 1,
            "memo_hits": 0,
            "batch_dupes": 2,
        }
        assert second["fresh"] == 1
        assert second["memo_hits"] == 0
        # Replay: all memo hits now.
        oracle.compare_pairs(np.asarray([0, 0]), np.asarray([1, 2]))
        third = tracer.records_of_kind("oracle_batch")[-1]
        assert third["memo_hits"] == 2
        assert third["fresh"] == 0

    def test_ledger_charges_are_traced(self, rng):
        tracer = Tracer()
        ledger = CostLedger()
        oracle = ComparisonOracle(
            np.asarray([1.0, 2.0]),
            PerfectWorkerModel(),
            rng,
            cost_per_comparison=3.0,
            ledger=ledger,
            tracer=tracer,
        )
        oracle.compare(0, 1)
        (charge,) = tracer.records_of_kind("ledger_charge")
        assert charge["label"] == oracle.label
        assert charge["count"] == 1
        assert charge["unit_cost"] == 3.0

    def test_untraced_oracle_emits_nothing(self, rng):
        oracle = ComparisonOracle(np.asarray([1.0, 2.0]), PerfectWorkerModel(), rng)
        assert oracle.tracer is NULL_TRACER
        oracle.compare(0, 1)  # must not raise or record


class TestPipelineTrace:
    def test_find_max_trace_is_complete_and_consistent(self, rng, classes, instance):
        naive, expert = classes
        tracer = Tracer()
        result = find_max(instance, naive, expert, u_n=8, rng=rng, tracer=tracer)

        spans = {r["span"] for r in tracer.records_of_kind("span_start")}
        assert {"maxfind", "phase1", "filter", "phase2"} <= spans
        assert len(tracer.records_of_kind("span_start")) == len(
            tracer.records_of_kind("span_end")
        )

        # One filter_round record per FilterRound, field for field.
        round_records = tracer.records_of_kind("filter_round")
        assert len(round_records) == result.filter_result.n_rounds
        for record, round_ in zip(round_records, result.filter_result.rounds):
            assert record["round"] == round_.round_index
            assert record["input_size"] == round_.input_size
            assert record["comparisons"] == round_.comparisons
            assert record["survivors"] == round_.survivors

        # The accounting invariant: summed fresh oracle-batch counts
        # equal the result's per-class comparison totals exactly.
        batches = tracer.records_of_kind("oracle_batch")
        fresh_by_label: dict[str, int] = {}
        for record in batches:
            fresh_by_label[record["label"]] = (
                fresh_by_label.get(record["label"], 0) + record["fresh"]
            )
        assert fresh_by_label.get(naive.name, 0) == result.naive_comparisons
        assert fresh_by_label.get(expert.name, 0) == result.expert_comparisons
        assert (
            sum(fresh_by_label.values())
            == result.naive_comparisons + result.expert_comparisons
        )

        summary = tracer.records_of_kind("maxfind_result")[-1]
        assert summary["winner"] == result.winner
        assert summary["cost"] == pytest.approx(result.cost)

    def test_ambient_tracer_captures_find_max(self, rng, classes, instance):
        naive, expert = classes
        with use_tracer(Tracer()) as tracer:
            result = find_max(instance, naive, expert, u_n=8, rng=rng)
        fresh = sum(r["fresh"] for r in tracer.records_of_kind("oracle_batch"))
        assert fresh == result.naive_comparisons + result.expert_comparisons

    def test_randomized_phase2_is_traced(self, rng):
        tracer = Tracer()
        values = np.sort(rng.uniform(0, 100, size=60))
        oracle = ComparisonOracle(
            values, ThresholdWorkerModel(delta=0.5), rng, tracer=tracer
        )
        result = randomized_maxfind(oracle, rng=rng, tracer=tracer)
        spans = {r["span"] for r in tracer.records_of_kind("span_start")}
        assert "randomized_maxfind" in spans
        rounds = tracer.records_of_kind("randomized_round")
        assert len(rounds) == result.n_rounds

    def test_two_maxfind_round_records(self, rng):
        tracer = Tracer()
        values = rng.uniform(0, 100, size=50)
        oracle = ComparisonOracle(
            values, ThresholdWorkerModel(delta=0.5), rng, tracer=tracer
        )
        result = two_maxfind(oracle, tracer=tracer)
        assert len(tracer.records_of_kind("two_maxfind_round")) == result.n_rounds
        fresh = sum(r["fresh"] for r in tracer.records_of_kind("oracle_batch"))
        assert fresh == result.comparisons

    def test_shared_oracles_adopt_run_tracer_and_release_it(
        self, rng, classes, instance
    ):
        naive, expert = classes
        finder = ExpertAwareMaxFinder(naive=naive, expert=expert, u_n=8)
        naive_oracle = ComparisonOracle(
            instance, naive.model, rng, label=naive.name
        )
        expert_oracle = ComparisonOracle(
            instance, expert.model, rng, label=expert.name
        )
        tracer = Tracer()
        result = finder.run_with_oracles(
            naive_oracle, expert_oracle, rng, tracer=tracer
        )
        fresh = sum(r["fresh"] for r in tracer.records_of_kind("oracle_batch"))
        assert fresh == result.naive_comparisons + result.expert_comparisons
        # The borrowed tracer is handed back afterwards.
        assert naive_oracle.tracer is NULL_TRACER
        assert expert_oracle.tracer is NULL_TRACER


class TestPlatformTrace:
    def test_job_execute_traces_batches_and_spans(self, rng):
        from repro.platform.platform import CrowdPlatform
        from repro.platform.workforce import WorkerPool
        from repro.jobs import CrowdMaxJob, JobPhaseConfig

        instance = planted_instance(
            n=60, u_n=4, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng
        )
        tracer = Tracer()
        platform = CrowdPlatform(
            {
                "crowd": WorkerPool.homogeneous(
                    "crowd",
                    ThresholdWorkerModel(delta=1.0),
                    size=10,
                    cost_per_judgment=1.0,
                ),
                "experts": WorkerPool.homogeneous(
                    "experts",
                    ThresholdWorkerModel(delta=0.25, is_expert=True),
                    size=3,
                    cost_per_judgment=20.0,
                ),
            },
            rng,
            tracer=tracer,
        )
        job = CrowdMaxJob(
            instance,
            u_n=4,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
        result = job.execute(platform, rng, tracer=tracer)

        spans = {r["span"] for r in tracer.records_of_kind("span_start")}
        assert {"job.max", "filter"} <= spans
        batches = tracer.records_of_kind("platform_batch")
        assert len(batches) == platform.logical_steps
        assert sum(r["judgments_collected"] for r in batches) == (
            result.naive_comparisons + result.expert_comparisons
        )
        fresh = sum(r["fresh"] for r in tracer.records_of_kind("oracle_batch"))
        assert fresh == result.naive_comparisons + result.expert_comparisons


class TestFilterTelemetry:
    def test_filter_rounds_traced_standalone(self, rng):
        tracer = Tracer()
        instance = planted_instance(
            n=200, u_n=6, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng
        )
        oracle = ComparisonOracle(
            instance, ThresholdWorkerModel(delta=1.0), rng, tracer=tracer
        )
        result = filter_candidates(oracle, u_n=6, tracer=tracer)
        rounds = tracer.records_of_kind("filter_round")
        assert len(rounds) == result.n_rounds
        assert rounds[-1]["survivors"] == len(result.survivors)
        assert all(r["fallback"] is False for r in rounds)


def assert_fresh_per_job_matches_counters(records, outcomes):
    """Per job and oracle label, the summed ``fresh`` of the job's
    ``oracle_batch`` records equals its naive / expert counters."""
    fresh: dict[tuple[int, str], int] = {}
    for record in records:
        if record["kind"] == "oracle_batch":
            key = (record["job_index"], record["label"])
            fresh[key] = fresh.get(key, 0) + record["fresh"]
    assert {index for index, _ in fresh} == {o.ticket.index for o in outcomes}
    for outcome in outcomes:
        assert outcome.status == "ok"
        index, job, result = outcome.ticket.index, outcome.job, outcome.result
        assert fresh[(index, job.phase1.pool)] == result.naive_comparisons > 0
        assert fresh[(index, job.phase2.pool)] == result.expert_comparisons > 0


class TestSchedulerTrace:
    """The accounting invariant, per job, on a scheduler's one trace."""

    @pytest.mark.parametrize(
        "quantum, cache",
        [(16, False), (16, True), (None, False), (None, True)],
        ids=["q16-cache-off", "q16-cache-on", "qall-cache-off", "qall-cache-on"],
    )
    def test_fresh_per_job_equals_its_counters(self, quantum, cache):
        workload = SchedulerWorkload(**SCHEDULER_WORKLOAD)
        tracer = Tracer()
        scheduler = CrowdScheduler(
            workload.pools(),
            root_seed=workload.seed,
            cache=cache,
            quantum=quantum,
            tracer=tracer,
        )
        for job in workload.jobs():
            scheduler.submit(job)
        assert_fresh_per_job_matches_counters(tracer.records, scheduler.run())

    def test_fresh_per_job_equals_its_counters_on_resume(self, tmp_path):
        """A run resumed from a journal prefix serves its journaled
        requests without the platform; its jobs still report every
        fresh comparison they asked for, as their trace does."""
        state = tmp_path / "state"
        workload = SchedulerWorkload(**SCHEDULER_WORKLOAD)
        run_durable_workload(workload, state, quantum=16)
        journal = state / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: len(lines) // 2]))
        (state / "comparisons.sqlite3").unlink()
        tracer = Tracer()
        outcomes, scheduler, _ = run_durable_workload(
            workload, state, quantum=16, tracer=tracer
        )
        assert scheduler.replayed_batches > 0
        assert tracer.records_of_kind("resume_replayed")
        assert_fresh_per_job_matches_counters(tracer.records, outcomes)
