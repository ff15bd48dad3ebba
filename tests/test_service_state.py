"""The service's shared job registry and the runner's event hand-off.

* **event hand-off** — a generation's job-stamped trace records reach
  each job's ``/events`` buffer in emission order with contiguous
  ``seq`` — ``job_admitted`` first, ``job_settled`` last — all before
  the job's settle sentinel, through one loop hand-off per generation
  (not one per record), also when the generation fails;
* **event cap** — past the per-job buffer cap, ``seq`` keeps counting:
  a live subscriber misses nothing, and a stream opened late replays
  the buffer and then follows the live events;
* **cancel order** — a job cancelled mid-generation gets its
  ``job_cancelled`` event where the cancel fell among the generation's
  records: after the records of the job's first park, before the
  tick's ``platform_batch``, with ``job_settled`` ending the stream;
  cancels racing the runner thread lose and duplicate no event;
* **ticket release** — a settled job keeps its result (or its error,
  partial result included) but drops its scheduler ticket, so the job
  object, tenant platform and tracer behind it can be collected;
* **retention** — the registry keeps live records and a window of the
  newest settled ones, oldest evicted first; an evicted id is a 404 on
  every job route, a settled record drops its spec, retained memory is
  flat past the window, and ``/healthz`` still counts every settle;
* **host trace order** — a host tracer receives every generation's
  records with its own contiguous ``seq`` and non-decreasing ``t``,
  also when threads share it, and the ``/events`` streams are the
  same with or without it;
* **queued cancel** — ``job_queued``, ``job_cancelled`` and the
  terminal ``job_settled`` reach the stream in order, and the cancel
  wakes the job's waiters.
"""

import asyncio
import gc
import json
import sys
import threading
import tracemalloc
import weakref
from unittest import mock

import pytest

from repro.scheduler import CrowdScheduler
from repro.service_http import (
    JobSpec,
    RemoteServiceError,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.service_http import state as state_module
from repro.service_http.errors import ConflictError
from repro.service_http.runner import ServiceRunner
from repro.service_http.state import _MAX_EVENTS_PER_JOB, ServiceState
from repro.telemetry import JsonlSink, Tracer

TOKEN = "test-token"
TENANT = "acme"


def small_spec(seed=7, **overrides):
    fields = dict(values=tuple(float(v) for v in range(16)), u_n=2, seed=seed)
    fields.update(overrides)
    return JobSpec(**fields)


async def run_generation(state, runner):
    """Run one generation over everything queued, on a worker thread."""
    batch = state.take_batch(64, timeout=0)
    await asyncio.get_running_loop().run_in_executor(None, runner._run_generation, batch)


async def drain(queue):
    """A subscriber's view: every event up to the settle sentinel."""
    seen = []
    while True:
        event = await asyncio.wait_for(queue.get(), 10.0)
        if event is None:
            return seen
        seen.append(event)


def serve(scenario, **config):
    """Run ``scenario(server, client)`` against a real loopback server."""

    async def main():
        server = ServiceServer(ServiceConfig(port=0, tokens={TOKEN: TENANT}, **config))
        await server.start()
        try:
            await scenario(server, ServiceClient("127.0.0.1", server.port, TOKEN))
        finally:
            await server.aclose()

    asyncio.run(main())


class TestEventHandOff:
    def test_one_generation_is_one_hand_off_in_emission_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            records = [state.submit(TENANT, small_spec(seed=s)) for s in (1, 2, 3)]
            queues = [state.subscribe(record) for record in records]
            await asyncio.sleep(0)  # let the job_queued events land
            with mock.patch.object(
                loop, "call_soon_threadsafe", wraps=loop.call_soon_threadsafe
            ) as spy:
                await run_generation(state, runner)
                streams = [await drain(queue) for queue in queues]
            return records, streams, [c.args[0] for c in spy.call_args_list]

        records, streams, callbacks = asyncio.run(scenario())
        for record, stream in zip(records, streams):
            assert record.status == "ok"
            # The subscriber saw every event, then the end of the stream.
            assert stream == record.events
            assert [e["seq"] for e in stream] == list(range(len(stream)))
            kinds = [e["kind"] for e in stream]
            assert kinds[0] == "job_queued"
            assert "platform_batch" in kinds
            # The job's own records arrive as they were emitted: after
            # job_admitted, in scheduler time, and job_settled is last.
            assert kinds[1] == "job_admitted" and kinds.count("job_admitted") == 1
            assert kinds[-1] == "job_settled" and kinds.count("job_settled") == 1
            times = [e["t"] for e in stream[1:]]
            assert times == sorted(times)
        trace_records = sum(len(stream) - 1 for stream in streams)
        settles = [cb for cb in callbacks if cb.__name__ == "_set"]
        hand_offs = [cb for cb in callbacks if cb.__name__.startswith("_publish")]
        assert len(settles) == len(records)
        assert trace_records > 30
        assert len(hand_offs) == 1, f"{len(hand_offs)} hand-offs for {trace_records} records"

    def test_a_failed_generation_hands_off_its_records_before_settling(self):
        def failing_run(self):
            self.tracer.event("job_admitted", job_index=0)
            raise RuntimeError("generation blew up")

        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            record = state.submit(TENANT, small_spec())
            queue = state.subscribe(record)
            with mock.patch.object(CrowdScheduler, "run", failing_run):
                await run_generation(state, runner)
            return record, await drain(queue)

        record, stream = asyncio.run(scenario())
        assert record.status == "failed"
        assert [e["kind"] for e in stream] == ["job_queued", "job_admitted"]

    def test_an_admission_failure_publishes_before_settling(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            record = state.submit(TENANT, small_spec())
            queue = state.subscribe(record)
            with mock.patch.object(JobSpec, "build_job", side_effect=ValueError("bad")):
                await run_generation(state, runner)
            return record, await drain(queue)

        record, stream = asyncio.run(scenario())
        assert record.status == "failed"
        assert [e["kind"] for e in stream] == ["job_queued", "job_settled"]


class TestEventCap:
    def test_seq_keeps_counting_past_the_buffer_cap(self):
        published = _MAX_EVENTS_PER_JOB + 88
        live = 10

        async def scenario(server, client):
            server.runner.stop()  # the job stays queued; the test publishes
            state = server.state
            record = state.submit(TENANT, small_spec())  # job_queued is seq 0
            early = state.subscribe(record)
            for k in range(1, published):
                state.publish(record, {"kind": "tick", "k": k})
            await asyncio.sleep(0)  # let the hand-offs land
            buffered = [e["seq"] for e in record.events]
            stream = client.job_events(record.job_id)
            replayed = [(await anext(stream)).seq for _ in range(_MAX_EVENTS_PER_JOB)]
            for k in range(published, published + live):
                state.publish(record, {"kind": "tick", "k": k})
            state.cancel(record)  # job_cancelled, job_settled, then the end
            followed = [event.seq async for event in stream]

            end = published + live + 2
            assert [e["seq"] for e in await drain(early)] == list(range(end))
            assert buffered == list(range(published - _MAX_EVENTS_PER_JOB, published))
            assert replayed == buffered
            assert followed == list(range(published, end))

        serve(scenario)


class TestCancelOrder:
    def test_a_job_cancelled_mid_generation_keeps_emission_order(self):
        started, resume = threading.Event(), threading.Event()
        settle_requests = CrowdScheduler._settle_requests

        def paused(self, admitted):
            # Hold the first tick until the cancel went through.
            started.set()
            assert resume.wait(10)
            return settle_requests(self, admitted)

        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            record = state.submit(TENANT, small_spec())
            queue = state.subscribe(record)
            with mock.patch.object(CrowdScheduler, "_settle_requests", paused):
                generation = loop.run_in_executor(
                    None, runner._run_generation, state.take_batch(64, timeout=0)
                )
                assert await loop.run_in_executor(None, started.wait, 10)
                assert state.cancel(record) == "running"
                resume.set()
                await generation
            return record, await drain(queue)

        record, stream = asyncio.run(scenario())
        assert record.status == "cancelled"
        assert [e["seq"] for e in stream] == list(range(len(stream)))
        kinds = [e["kind"] for e in stream]
        cancelled = kinds.index("job_cancelled")
        assert kinds[:2] == ["job_queued", "job_admitted"]
        # The cancel fell while the first tick was held: after the
        # records of the job's first park, before that tick's batch.
        assert [(e["kind"], e.get("span")) for e in stream[2:cancelled]] == [
            ("span_start", "job.max"),
            ("span_start", "filter"),
        ]
        assert cancelled < kinds.index("platform_batch")
        assert kinds[-1] == "job_settled" and kinds.count("job_settled") == 1
        assert stream[-1]["status"] == "cancelled"

    def test_cancels_racing_the_runner_lose_no_event(self):
        """The loop cancels jobs while the runner thread holds and releases.

        Each generation holds its events until the paced canceller has
        made one full pass that began after the generation's jobs were
        marked running, so every generation takes cancels while its
        events are held; the canceller keeps running throughout, so
        cancels also land during the hand-off and the settles.
        """
        TICKS = 100
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        loop = asyncio.new_event_loop()
        loop_thread = threading.Thread(target=loop.run_forever)
        loop_thread.start()
        try:
            state = ServiceState(loop, max_queued=1000)
            records = [state.submit(TENANT, small_spec(seed=s)) for s in range(240)]
            cancels = {record.job_id: 0 for record in records}
            passes, passed = [0], threading.Condition()

            def runner():
                while batch := state.take_batch(8, timeout=0):
                    held = state.hold_events()
                    for record in batch:
                        state.mark_running(record, 1, None)
                    with passed:
                        # The pass under way may have begun before the
                        # marks; the one after it began after them.
                        target = passes[0] + 2
                    for k in range(TICKS):
                        held.extend((record, {"kind": "tick", "k": k}) for record in batch)
                    with passed:
                        assert passed.wait_for(lambda: passes[0] >= target, timeout=10)
                    state.release_events()
                    for record in batch:
                        state.settle(record, "ok", None, None, 1.0)

            thread = threading.Thread(target=runner)

            async def canceller():
                # Paced, so cancels land anywhere in a generation, the
                # hand-off included, and no job passes the event cap.
                while thread.is_alive():
                    for record in records[::2]:
                        if record.status != "running":
                            continue
                        try:
                            state.cancel(record)
                            cancels[record.job_id] += 1
                        except ConflictError:
                            pass  # settled in between
                    with passed:
                        passes[0] += 1
                        passed.notify_all()
                    await asyncio.sleep(0.0002)

            thread.start()
            asyncio.run_coroutine_threadsafe(canceller(), loop).result(60)
            thread.join(60)
            assert not thread.is_alive()
            # Drain the hand-offs queued behind the last settle.
            asyncio.run_coroutine_threadsafe(asyncio.sleep(0), loop).result(10)
            for record in records:
                kinds = [e["kind"] for e in record.events]
                assert [e["seq"] for e in record.events] == list(range(len(kinds)))
                assert kinds.count("job_cancelled") == cancels[record.job_id]
                ticks = [e["k"] for e in record.events if e["kind"] == "tick"]
                assert ticks == list(range(TICKS))
            assert sum(cancels.values()) > 20
        finally:
            loop.call_soon_threadsafe(loop.stop)
            loop_thread.join(10)
            loop.close()
            sys.setswitchinterval(interval)


async def settle_and_release(server, client, spec):
    """Run ``spec`` to its result; assert its ticket and job were collected."""
    refs = []
    mark_running = server.state.mark_running

    def spy(record, generation, ticket):
        refs.extend([weakref.ref(ticket), weakref.ref(ticket.job)])
        mark_running(record, generation, ticket)

    server.state.mark_running = spy
    view = await client.submit_job(spec)
    first = await client.result_envelope(view.job_id, wait=30.0)
    for _ in range(100):  # the runner may still be leaving the generation
        gc.collect()
        if all(ref() is None for ref in refs):
            break
        await asyncio.sleep(0.05)
    assert refs and all(ref() is None for ref in refs)
    return view, first


class TestTicketRelease:
    def test_a_settled_job_drops_its_ticket_and_keeps_its_result(self):
        async def scenario(server, client):
            view, first = await settle_and_release(server, client, small_spec())
            assert first.status == "ok"
            again = await client.result_envelope(view.job_id)
            assert again.result == first.result
            with pytest.raises(RemoteServiceError) as info:
                await client.cancel_job(view.job_id)
            assert (info.value.status, info.value.code) == (409, "conflict")

        serve(scenario)

    def test_a_job_settled_with_an_error_releases_its_generation(self):
        async def scenario(server, client):
            view, first = await settle_and_release(server, client, small_spec())
            assert first.status == "budget_exceeded"
            again = await client.job_result(view.job_id)
            assert again.status == 402
            assert again.payload["error"] == first.error
            assert first.error["code"] == "budget_exceeded"
            assert first.error["detail"]["partial"]["degraded_reason"] == "budget"

        serve(scenario, tenant_caps={TENANT: 6.0})


class ListSink:
    """A trace sink that keeps what it is given."""

    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def settle_directly(state, record, status="ok"):
    """Take ``record`` through admission and settle it, as the runner does."""
    assert state.take_batch(64, timeout=0) == [record]
    state.mark_running(record, 1, None)
    state.settle(record, status, None, None, 1.0)


class TestRetention:
    def test_oldest_settled_go_first_and_live_records_stay(self, monkeypatch):
        window = 3
        monkeypatch.setattr(state_module, "_MAX_SETTLED_RECORDS", window)

        async def scenario():
            state = ServiceState(asyncio.get_running_loop())
            running = state.submit(TENANT, small_spec())
            assert state.take_batch(64, timeout=0) == [running]
            state.mark_running(running, 1, None)
            settled = []

            def check():
                kept = [r for r in settled if r.job_id in state._records]
                assert kept == settled[-window:]
                assert state._records[running.job_id] is running

            for seed in range(2 * window):  # runner settles
                record = state.submit(TENANT, small_spec(seed=seed))
                settle_directly(state, record)
                settled.append(record)
                check()
            queued = state.submit(TENANT, small_spec())
            for seed in range(2 * window):  # queued cancels settle too
                record = state.submit(TENANT, small_spec(seed=seed))
                assert state.cancel(record) == "cancelled"
                settled.append(record)
                check()
                assert state._records[queued.job_id] is queued
            assert (running.status, queued.status) == ("running", "queued")
            assert len(state._records) == window + 2
            assert state.counts() == {
                "queued": 1, "running": 1, "settled": 4 * window, "generations": 0
            }

        asyncio.run(scenario())

    def test_an_evicted_id_is_404_on_every_job_route(self, monkeypatch):
        monkeypatch.setattr(state_module, "_MAX_SETTLED_RECORDS", 2)

        async def scenario(server, client):
            views = []
            for seed in range(3):
                views.append(await client.submit_job(small_spec(seed=seed)))
                await client.result_envelope(views[-1].job_id, wait=30.0)
            evicted, kept = views[0].job_id, views[1].job_id
            assert (await client.job_status(kept)).status == "ok"
            for route in (
                client.job_status(evicted),
                client.cancel_job(evicted),
                anext(client.job_events(evicted)),
            ):
                with pytest.raises(RemoteServiceError) as info:
                    await route
                assert (info.value.status, info.value.code) == (404, "not_found")
            response = await client.job_result(evicted, wait=1.0)
            assert response.status == 404
            assert response.payload["error"]["code"] == "not_found"
            # An id never issued is a 404 too, however long.
            for unknown in ("j-00000099", "j-" + "9" * 5000):
                with pytest.raises(RemoteServiceError) as info:
                    await client.job_status(unknown)
                assert (info.value.status, info.value.code) == (404, "not_found")

        serve(scenario)

    def test_a_held_long_poll_and_stream_finish_after_eviction(self, monkeypatch):
        monkeypatch.setattr(state_module, "_MAX_SETTLED_RECORDS", 1)

        async def scenario(server, client):
            server.runner.stop()  # the test runs the generation itself
            state = server.state
            first = await client.submit_job(small_spec(seed=1))
            await client.submit_job(small_spec(seed=2))
            record = state.get(first.job_id, TENANT)
            polling = asyncio.Event()
            wait_settled = state.wait_settled

            async def spy(record, timeout):
                polling.set()
                return await wait_settled(record, timeout)

            state.wait_settled = spy

            async def follow():
                return [event async for event in client.job_events(first.job_id)]

            poll = asyncio.ensure_future(client.job_result(first.job_id, wait=30.0))
            stream = asyncio.ensure_future(follow())
            await asyncio.wait_for(polling.wait(), 10)
            while not record.subscribers:
                await asyncio.sleep(0.01)
            # On the loop thread: both jobs settle, and the first is
            # evicted, before either handler wakes up.
            server.runner._run_generation(state.take_batch(64, timeout=0))
            assert first.job_id not in state._records
            response, events = await poll, await stream
            assert response.status == 200 and response.payload["status"] == "ok"
            assert events[-1].kind == "job_settled"
            assert events[-1].fields["status"] == "ok"
            with pytest.raises(RemoteServiceError) as info:
                await client.job_status(first.job_id)
            assert info.value.status == 404

        serve(scenario)

    def test_a_settled_record_drops_its_spec(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            spec = small_spec(seed=5, kind="topk", k=2)
            ref = weakref.ref(spec)
            record = state.submit(TENANT, spec)
            del spec
            await run_generation(state, runner)
            gc.collect()
            return record, ref

        record, ref = asyncio.run(scenario())
        assert record.status == "ok"
        assert ref() is None
        view = record.view()
        assert (view.kind, view.seed) == ("topk", 5)

    def test_retained_memory_is_flat_past_the_window(self, monkeypatch):
        window = 32
        monkeypatch.setattr(state_module, "_MAX_SETTLED_RECORDS", window)

        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            seeds = iter(range(1000))

            async def settle(jobs):
                for _ in range(jobs):
                    state.submit(TENANT, small_spec(seed=next(seeds)))
                await run_generation(state, runner)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]

            await settle(window)  # lazy imports and caches, untraced
            tracemalloc.start()
            try:
                one = await settle(window)
                three = await settle(2 * window)
            finally:
                tracemalloc.stop()
            assert state.settled == 4 * window
            return one, three

        one, three = asyncio.run(scenario())
        assert three <= 1.2 * one, f"{one} B after 1x the window, {three} B after 3x"

    def test_healthz_counts_evicted_settles(self, monkeypatch):
        monkeypatch.setattr(state_module, "_MAX_SETTLED_RECORDS", 2)

        async def scenario(server, client):
            for seed in range(5):
                view = await client.submit_job(small_spec(seed=seed))
                await client.result_envelope(view.job_id, wait=30.0)
            health = await client.health()
            assert (health.settled, health.queued, health.running) == (5, 0, 0)
            assert len(server.state._records) == 2

        serve(scenario)

    def test_a_queued_job_the_runner_took_settles_in_the_runner(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig())
            record = state.submit(TENANT, small_spec())
            batch = state.take_batch(64, timeout=0)
            # Cancelled between take_batch and admission: the runner
            # owns it now, so it settles there, once.
            assert state.cancel(record) == "queued"
            await loop.run_in_executor(None, runner._run_generation, batch)
            return state, record

        state, record = asyncio.run(scenario())
        assert record.status == "cancelled"
        assert list(state._settle_order) == [record]
        assert state.settled == 1


class TestHostTrace:
    @staticmethod
    def run_two_generations(host):
        async def scenario():
            loop = asyncio.get_running_loop()
            state = ServiceState(loop)
            runner = ServiceRunner(state, ServiceConfig(), tracer=host)
            records = []
            for generation in range(2):
                for k in range(2):
                    records.append(state.submit(TENANT, small_spec(seed=10 * generation + k)))
                await run_generation(state, runner)
            return records

        return asyncio.run(scenario())

    def test_one_order_across_generations_and_unchanged_streams(self):
        sink = ListSink()
        traced = self.run_two_generations(Tracer(sink=sink))
        seqs = [record["seq"] for record in sink.records]
        times = [record["t"] for record in sink.records]
        assert seqs == list(range(len(seqs)))
        assert times == sorted(times)
        kinds = [record["kind"] for record in sink.records]
        assert kinds.count("job_settled") == 4
        # Each generation's records lie inside its service.generation span.
        depth, generations = 0, 0
        for record in sink.records:
            if record.get("span") == "service.generation":
                start = record["kind"] == "span_start"
                depth += 1 if start else -1
                generations += start
            else:
                assert depth == 1, record
        assert (generations, depth) == (2, 0)

        def stream(record):
            return [
                {k: v for k, v in event.items() if k not in ("t", "duration_s")}
                for event in record.events
            ]

        untraced = self.run_two_generations(None)
        assert [stream(r) for r in traced] == [stream(r) for r in untraced]
        # Every job record of the streams reached the host trace too.
        assert sum(len(r.events) - 1 for r in traced) == sum(
            1 for record in sink.records if "job_index" in record
        )


    def test_threads_sharing_a_tracer_keep_one_order(self, tmp_path):
        """The loop and the runner thread both emit on the host tracer."""
        threads, per_thread = 4, 5000
        path = tmp_path / "shared.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def emit(worker):
                for k in range(per_thread):
                    tracer.event("tick", worker=worker, k=k)

            workers = [threading.Thread(target=emit, args=(w,)) for w in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
            tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(threads * per_thread))
        times = [r["t"] for r in records]
        assert times == sorted(times)
        for worker in range(threads):
            assert [r["k"] for r in records if r["worker"] == worker] == list(range(per_thread))


class TestQueuedCancel:
    def test_a_queued_cancel_streams_in_order_and_settles(self):
        async def scenario():
            state = ServiceState(asyncio.get_running_loop())
            record = state.submit(TENANT, small_spec())
            queue = state.subscribe(record)
            assert state.cancel(record) == "cancelled"
            return record, await drain(queue)

        record, stream = asyncio.run(scenario())
        # Same events, same order: the subscriber attached before the
        # job_queued callback ran.
        assert stream == record.events
        assert [e["kind"] for e in stream] == [
            "job_queued",
            "job_cancelled",
            "job_settled",
        ]
        assert stream[-1]["status"] == "cancelled"
        assert record.settled_event.is_set()
