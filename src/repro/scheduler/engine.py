"""The deterministic multi-job scheduler.

Section 1 positions the paper's algorithm as a primitive for host
systems (CrowdDB and friends) that answer *many* crowd queries at once.
This module is that serving layer for the simulator: a
:class:`CrowdScheduler` admits many jobs — any class exposing the
``steps()`` generator protocol of :mod:`repro.jobs` — and settles them
cooperatively against **shared** worker pools, instead of giving each
query a private platform.

Execution model
---------------
Each admitted job runs as a **coroutine ticket**: its algorithm body is
the ``steps()`` generator of :mod:`repro.jobs`, advanced on the
scheduler's own thread until it yields a platform-backed oracle call,
which parks it (no thread, no lock handoff).  When every live job is
parked, the scheduler runs one *tick* of its virtual clock:

1. **Coalesce** — the parked comparison requests are grouped per pool
   (one ``batch_coalesced`` record each), the scheduler-level view of
   a consolidated submission.
2. **Admit** — fair-share admission per pool: requests are served in
   least-total-tasks-served-first order (ties to earliest admission),
   a per-tick ``quantum`` bounds how many tasks one pool grants, and
   the front request is always admitted so no job can starve.
3. **Settle** — each admitted request is resolved against the
   cross-job :class:`~repro.scheduler.cache.ComparisonMemoCache`
   first; the misses are bought from the platform.  Fast-path-eligible
   requests are **fused**: the tick's requests for a pool become one
   plan — each tenant still draws from its own Philox counter stream —
   which is decided with one vectorized call per worker model and
   finalized once, while charges and counters land per tenant in
   admission order — bit-identical to serving the requests
   one by one, but with one platform pass per pool.  Requests the fast path
   cannot take (gold probes, fault plans, capped ledgers, fallback
   pools) are bought alone through the platform's ``compare_batch``.
   Journaled runs record the whole tick as one journal line, written
   with one write and one fsync as the phase ends.
4. **Resume** — replies are delivered in admission order, each
   ticket's generator advanced inline — so mutations of shared worker
   state (gold bans) happen in one deterministic order.

The three tick phases are timed separately (``scheduler.tick.settle``
/ ``scheduler.tick.scatter`` / ``scheduler.tick.resume`` spans).

Determinism contract
--------------------
Per-job randomness is isolated: admission order assigns each job two
``SeedSequence.spawn`` children (algorithm stream + platform stream),
and tenant platforms never share a generator.  Hence:

* Same root seed + same submission order + same configuration ⇒
  bit-identical per-job results, costs, and settle order, every run.
* With the cache disabled, each job's *result and cost* are invariant
  to ``quantum`` and to which other jobs share the schedule (settle
  order may shift — a finer quantum spreads completion across more
  ticks — but what each job answers and pays does not).
* With the cache disabled and stateless pools (no gold bans mutating
  shared workers), each job's result is bit-identical to executing it
  alone on a private platform with the same seeds — the baseline the
  throughput benchmark exploits.
* Cache hits skip platform RNG draws, so cache-enabled runs trade
  bit-identity *to the isolated baseline* for strictly lower cost;
  they remain bit-reproducible run-to-run.

See ``docs/SCHEDULER.md`` for the full contract and worked examples.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, groupby
from typing import Any, Callable, Iterable, Literal

import numpy as np

from ..core.steps import OracleCall, Steps
from ..durability import (
    JOURNAL_FORMAT,
    DurabilityError,
    DurabilityPolicy,
    JobJournal,
    JournalMismatchError,
    JournalRecord,
    PersistentComparisonStore,
)
from ..durability.journal import decode_flags, encode_flags
from ..durability.store import Segment
from ..platform.accounting import CostLedger
from ..platform.errors import CostCapError, DegradedBatchError
from ..platform.faults import FaultPlan, RetryPolicy
from ..platform.gold import GoldPolicy
from ..platform.job import BatchReport, TaskReport
from ..platform.oracle_adapter import PlatformWorkerModel
from ..platform.platform import CrowdPlatform, FastBatch, FastBatchPlan
from ..platform.workforce import WorkerPool
from ..jobs import BudgetExceededError, CrowdJobResult, CrowdMaxJob
from ..telemetry import NULL_TRACER, Tracer, resolve_tracer
from .cache import (
    ComparisonMemoCache,
    DurableComparisonCache,
    fingerprint_instance,
    pair_codes,
)
from .errors import JobCancelledError, SchedulerSaturatedError

__all__ = ["JobTicket", "JobOutcome", "CrowdScheduler"]


@dataclass
class _ChainedLedger(CostLedger):
    """A per-job ledger that also bills a shared per-tenant ledger.

    Gives each job private accounting (and a private ``hard_cap`` the
    job layer may tighten mid-run) while every charge *also* lands on
    the tenant's shared ledger — so a tenant-level cap is enforced
    jointly across all of that tenant's concurrent jobs.  The parent is
    checked before the private ledger records anything, keeping both
    ledgers' never-above-cap invariants intact.

    When :attr:`tape` is a list, every *successful* charge is also
    appended to it as ``(label, count, unit_cost)`` — the journal's
    charge tape.  Replaying the tape through :meth:`charge` in the
    recorded order rebuilds both ledgers with bit-identical float
    accumulation, which is what makes resumed cost totals exact.
    """

    parent: CostLedger | None = None
    tape: list[tuple[str, int, float]] | None = None

    def charge(self, label: str, count: int, unit_cost: float) -> None:
        amount = count * unit_cost
        if self.parent is not None and not self.parent.can_afford(amount):
            raise CostCapError(
                label=f"tenant:{label}",
                attempted=amount,
                cap=float(self.parent.hard_cap),  # type: ignore[arg-type]
                spent=self.parent.total_cost,
            )
        super().charge(label, count, unit_cost)
        if self.parent is not None:
            self.parent.charge(label, count, unit_cost)
        if self.tape is not None:
            self.tape.append((label, count, unit_cost))


def _capture_platform_state(platform: CrowdPlatform) -> dict[str, Any]:
    """Snapshot the platform facts a journaled batch must restore.

    Everything a later batch's outcome can depend on: the RNG stream
    position, the fast path's Philox key and judgment counter, and the
    step/fault counters the job meter diffs.  The judgment audit log is
    deliberately *not* captured (it can be huge and no decision reads
    it); a resumed run's log starts at the crash point.
    """
    return {
        "rng_state": platform.rng.bit_generator.state,
        "fast_key": platform._fast_key,
        "fast_seq": platform._fast_seq,
        "logical_steps": platform.logical_steps,
        "physical_steps_total": platform.physical_steps_total,
        "fast_batches_total": platform.fast_batches_total,
        "faults_injected_total": platform.faults_injected_total,
        "tasks_degraded_total": platform.tasks_degraded_total,
        "retries_total": platform.retries_total,
    }


def _restore_platform_state(platform: CrowdPlatform, state: dict[str, Any]) -> None:
    platform.rng.bit_generator.state = state["rng_state"]
    fast_key = state["fast_key"]
    platform._fast_key = None if fast_key is None else int(fast_key)
    platform._fast_seq = int(state["fast_seq"])
    platform.logical_steps = int(state["logical_steps"])
    platform.physical_steps_total = int(state["physical_steps_total"])
    platform.fast_batches_total = int(state["fast_batches_total"])
    platform.faults_injected_total = int(state["faults_injected_total"])
    platform.tasks_degraded_total = int(state["tasks_degraded_total"])
    platform.retries_total = int(state["retries_total"])


def _report_to_state(report: BatchReport) -> dict[str, Any]:
    """A :class:`BatchReport` as JSON-safe journal payload."""
    return {
        "answers": [bool(a) for a in report.answers],
        "physical_steps": report.physical_steps,
        "judgments_collected": report.judgments_collected,
        "judgments_discarded": report.judgments_discarded,
        "workers_banned": [int(w) for w in report.workers_banned],
        "task_reports": [asdict(t) for t in report.task_reports],
        "faults_injected": report.faults_injected,
        "judgments_malformed": report.judgments_malformed,
        "judgments_lost_late": report.judgments_lost_late,
        "retries": report.retries,
    }


def _report_from_state(state: dict[str, Any]) -> BatchReport:
    return BatchReport(
        answers=[bool(a) for a in state["answers"]],
        physical_steps=int(state["physical_steps"]),
        judgments_collected=int(state["judgments_collected"]),
        judgments_discarded=int(state["judgments_discarded"]),
        workers_banned=[int(w) for w in state["workers_banned"]],
        task_reports=[TaskReport(**t) for t in state["task_reports"]],
        faults_injected=int(state["faults_injected"]),
        judgments_malformed=int(state["judgments_malformed"]),
        judgments_lost_late=int(state["judgments_lost_late"]),
        retries=int(state["retries"]),
    )


@dataclass
class _CompareRequest:
    """One parked oracle call awaiting scheduler service."""

    pool_name: str
    indices_i: np.ndarray
    indices_j: np.ndarray
    values_i: np.ndarray
    values_j: np.ndarray
    judgments_per_task: int
    #: ``strict`` mirrors the worker model's flag: the scheduler raises
    #: ``DegradedBatchError`` at resume time where
    #: ``PlatformWorkerModel.decide`` would have.
    strict: bool = False
    answers: np.ndarray | None = None
    report: BatchReport | None = None
    error: BaseException | None = None

    @property
    def size(self) -> int:
        return len(self.indices_i)


@dataclass
class _Lookup:
    """One admitted request after its cache lookup."""

    ticket: "JobTicket"
    request: _CompareRequest
    #: Positions within the request that missed the cache.
    miss: np.ndarray
    #: Answer array with cache hits already filled in.
    answers: np.ndarray
    #: The misses as a mask over the request's pairs.
    missed: np.ndarray


#: A tick line's served request: its lookup, its charge tape, and its
#: ``[report, platform]`` state when it bought anything.
_LineEntry = tuple[_Lookup, list[tuple[str, int, float]], list[dict[str, Any]] | None]

#: The fields of a ``tick`` line and the JSON types each may hold.
_TICK_FIELDS: dict[str, tuple[type, ...]] = {
    "tick": (int,),
    "jobs": (list,),
    "pools": (list,),
    "judgments": (list,),
    "sizes": (list,),
    "charges": (list,),
    "bought": (list,),
    "miss": (str,),
    "answers": (str,),
    "pairs": (str,),
    "settled": (list,),
}

#: The per-request columns of a ``tick`` line and their entries' types.
_TICK_COLUMNS: dict[str, tuple[type, ...]] = {
    "jobs": (int,),
    "pools": (str,),
    "judgments": (int,),
    "sizes": (int,),
    "charges": (list,),
    "bought": (list, type(None)),
}

_NO_FLAGS = np.zeros(0, dtype=bool)


def _pairs_digest(requests: Iterable[_CompareRequest]) -> str:
    """The ``pairs`` of a tick line: SHA-256, truncated to 128 bits, over
    each request's pair count and index arrays as little-endian int32,
    fed request by request in record order."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(request.size.to_bytes(4, "little"))
        digest.update(request.indices_i.astype("<i4"))
        digest.update(request.indices_j.astype("<i4"))
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class _TickLine:
    """A recovered ``tick`` line, validated, with its flags decoded."""

    record: JournalRecord
    #: Request ``k``'s pairs are ``bounds[k]:bounds[k + 1]`` of the flags.
    bounds: list[int]
    miss: np.ndarray
    answers: np.ndarray


def _malformed(record: JournalRecord, field: str, problem: str) -> DurabilityError:
    tick = f" tick={record['tick']}" if type(record.get("tick")) is int else ""
    return DurabilityError(
        f"malformed journal {record.get('kind')} line{tick}: {field!r} {problem}"
    )


def _is_charge(charge: Any) -> bool:
    return (
        type(charge) is list
        and len(charge) == 3
        and type(charge[0]) is str
        and type(charge[1]) is int
        and type(charge[2]) in (int, float)
    )


def _parse_tick(record: JournalRecord) -> _TickLine:
    """Validate a recovered ``tick`` line and decode its flags.

    A line can pass its CRC and still be malformed — rewritten and
    re-framed, or written by other code — so every field is checked
    before anything replays: presence and JSON type, one entry per
    request in every column with the entry's type, no job twice, sizes
    not negative, charge tapes of ``[label, count, unit_cost]`` triples,
    ``miss`` and ``answers`` holding one flag per pair, and ``bought``
    set (to a report and a platform state) exactly for the requests
    that missed.  Any fault raises :class:`DurabilityError` naming the
    ``tick`` and the field.
    """
    for name, types in _TICK_FIELDS.items():
        if name not in record:
            raise _malformed(record, name, "is missing")
        if type(record[name]) not in types:
            raise _malformed(record, name, f"holds a {type(record[name]).__name__}")
    count = len(record["jobs"])
    for name, types in _TICK_COLUMNS.items():
        column = record[name]
        if len(column) != count:
            raise _malformed(record, name, f"holds {len(column)} entries for {count} jobs")
        for value in column:
            if type(value) not in types:
                raise _malformed(record, name, f"holds {value!r}")
    if len(set(record["jobs"])) != count:
        raise _malformed(record, "jobs", "names a job twice")
    if any(size < 0 for size in record["sizes"]):
        raise _malformed(record, "sizes", "holds a negative size")
    for tape in record["charges"]:
        for charge in tape:
            if not _is_charge(charge):
                raise _malformed(record, "charges", f"holds {charge!r}")
    if any(type(job) is not int for job in record["settled"]):
        raise _malformed(record, "settled", "holds a job that is not an int")
    bounds = [0, *accumulate(record["sizes"])]
    flags = []
    for name in ("miss", "answers"):
        try:
            flags.append(decode_flags(record[name], bounds[-1]))
        except DurabilityError as exc:
            raise _malformed(record, name, str(exc)) from exc
    miss, answers = flags
    for job, start, stop, bought in zip(record["jobs"], bounds, bounds[1:], record["bought"]):
        if not miss[start:stop].any():
            problem = "is set for a job that bought nothing" if bought is not None else ""
        elif bought is None:
            problem = "is missing for a job that bought"
        elif len(bought) != 2 or any(type(state) is not dict for state in bought):
            problem = "is not [report, platform]"
        else:
            problem = ""
        if problem:
            raise _malformed(record, "bought", f"{problem} (job {job})")
    return _TickLine(record, bounds, miss, answers)


class _TenantPlatform(CrowdPlatform):
    """One job's view of the shared platform.

    Shares the scheduler's :class:`WorkerPool` objects (and gold/fault
    policies) but owns a private RNG stream and a chained per-job
    ledger.  Its platform traffic arrives as the job's yielded
    ``OracleCall`` steps, which the scheduler parks and settles at the
    next tick — the entire interleaving mechanism — so a synchronous
    ``compare_batch`` is refused.
    """

    def compare_batch(
        self,
        pool_name: str,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        values_i: np.ndarray,
        values_j: np.ndarray,
        judgments_per_task: int = 1,
    ) -> tuple[np.ndarray, BatchReport]:
        # A synchronous call would run on the single scheduler thread,
        # outside the tick, the cache and the journal; refuse it loudly.
        raise RuntimeError(
            "synchronous compare_batch from a coroutine job; platform "
            "calls must be yielded as OracleCall steps"
        )


class _JobTracer(Tracer):
    """One ticket's view of the scheduler's tracer.

    Every record goes straight to the parent, stamped with the ticket's
    ``job_index``, and counters and timers land in the parent's
    registry, so a job's records reach the scheduler's trace (and its
    sink) as they are emitted, in one ``seq`` order with everything
    else.  The view itself keeps nothing.
    """

    def __init__(self, parent: Tracer, job_index: int):
        super().__init__()
        self.metrics = parent.metrics
        self._parent = parent
        self._job_index = job_index

    def event(self, kind: str, **fields: Any) -> None:
        """Emit ``kind`` on the parent tracer, stamped with ``job_index``."""
        self._parent.event(kind, job_index=self._job_index, **fields)


class JobTicket:
    """Handle for one admitted job; resolves to a :class:`JobOutcome`.

    Returned by :meth:`CrowdScheduler.submit`.  The two seed children
    (algorithm + platform stream) are spawned at admission, so a
    ticket's randomness is fixed by its admission index alone.
    """

    def __init__(
        self,
        index: int,
        job: CrowdMaxJob,
        tenant: str,
        seed: np.random.SeedSequence,
    ):
        self.index = index
        self.job = job
        self.tenant = tenant
        self.fingerprint = fingerprint_instance(job.instance)
        #: Cooperative cancellation flag; see :meth:`cancel`.
        self.cancel_requested = False
        job_seed, platform_seed = seed.spawn(2)
        self.rng = np.random.default_rng(job_seed)
        self._platform_rng = np.random.default_rng(platform_seed)
        self.outcome: JobOutcome | None = None
        #: Tasks served per pool, the fair-share bookkeeping.
        self.served: dict[str, int] = {}
        #: The job's view of the scheduler's tracer, set at launch.
        self.tracer: Tracer = NULL_TRACER
        self.platform: _TenantPlatform | None = None
        #: The job's suspended step generator.
        self._gen: Steps[CrowdJobResult] | None = None
        #: The request being settled this tick (popped from
        #: :attr:`request` at settle, delivered back at resume).
        self._inflight: _CompareRequest | None = None
        #: Set once the job has finished (result or error); the loop
        #: settles it at the start of the next tick.
        self.done = False
        self.request: _CompareRequest | None = None
        self._result: CrowdJobResult | None = None
        self._error: BaseException | None = None

    def cancel(self) -> None:
        """Request cooperative cancellation of this job.

        Safe to call from any thread at any time — the method only
        sets a flag.  The scheduler honours it at the job's next
        control point: a job not yet launched settles immediately as
        ``"cancelled"``; a running job has
        :class:`~repro.scheduler.errors.JobCancelledError` thrown into
        it at its next parked oracle call instead of the batch
        answers.  A job that has already settled is unaffected — its
        outcome stands, which is why the HTTP layer answers 409 for
        cancels of settled jobs.
        """
        self.cancel_requested = True


@dataclass(frozen=True)
class JobOutcome:
    """One settled job, in settle order.

    ``status`` is ``"ok"`` for a clean settle, ``"budget_exceeded"``
    when the job's (or its tenant's) mid-flight cap stopped it — the
    partial result rides on ``error.partial`` — ``"cancelled"`` when a
    host revoked the job via :meth:`JobTicket.cancel`, and
    ``"failed"`` for any other exception.  Exactly one of ``result`` /
    ``error`` is set.
    """

    ticket: JobTicket
    settle_index: int
    status: Literal["ok", "budget_exceeded", "cancelled", "failed"]
    result: CrowdJobResult | None
    error: BaseException | None

    @property
    def job(self) -> CrowdMaxJob:
        return self.ticket.job

    @property
    def tenant(self) -> str:
        return self.ticket.tenant

    @property
    def cost(self) -> float:
        """Money this job spent (its private ledger total)."""
        assert self.ticket.platform is not None
        return self.ticket.platform.ledger.total_cost


class CrowdScheduler:
    """Deterministic cooperative multi-job scheduler over shared pools.

    Every admitted job runs as a coroutine over its ``steps()``
    generator; each tick settles the parked requests through one path
    (replay, cache lookup, then a fused platform pass — or a lone
    ``compare_batch`` buy for requests the fast path cannot take).

    Parameters
    ----------
    pools:
        The shared worker pools every admitted job settles against.
    root_seed:
        Root of the per-job ``SeedSequence.spawn`` tree; with the same
        root and submission order, every run is bit-identical.
    gold, faults, retry:
        Shared platform policies, applied to every tenant view (one
        quality-control regime for the whole marketplace).
    cache:
        ``True`` (default) builds a fresh
        :class:`~repro.scheduler.cache.ComparisonMemoCache`; pass an
        existing cache to share it across scheduler generations, or
        ``False`` to disable cross-job reuse (the isolated-equivalent
        mode the determinism contract is stated against).
    quantum:
        Fair-share bound: at most this many comparison tasks granted
        per pool per tick (the front request is always admitted, even
        when larger).  ``None`` grants everything runnable each tick.
    max_pending:
        Bounded admission queue; submissions past it raise
        :class:`~repro.scheduler.errors.SchedulerSaturatedError`.
    tenant_caps:
        Optional ``{tenant: hard_cap}`` budgets; all jobs of a tenant
        charge one shared ledger, so the cap binds them jointly.
    tenant_ledgers:
        Optional ``{tenant: CostLedger}`` mapping used as the backing
        store for the shared tenant ledgers.  A scheduler is one-shot
        (:meth:`run` once), so a long-lived host — the HTTP service
        runs one scheduler *generation* per admitted batch — injects
        the same dict into every generation and tenant spending
        accumulates across them; a tenant cap then bounds the
        tenant's **lifetime** spend, not one generation's.  Ledgers
        for tenants missing from the dict are created lazily (with
        ``tenant_caps``) and left in it.
    tracer:
        Telemetry destination, one live stream.  Each ticket gets a
        view of it that stamps ``job_index``: the job, its tenant
        platform and the scheduler's job-scoped records
        (``job_admitted`` / ``cache_hit`` / ``resume_replayed`` /
        ``checkpoint_written`` / ``job_settled``) emit through it,
        while tick-level records (``scheduler_tick`` /
        ``batch_coalesced`` / ``batch_fused`` / ``journal_append``)
        carry no ``job_index``.  Every record lands once, as it is
        emitted, so a job's records lie between its ``job_admitted``
        and its ``job_settled``.
    durability:
        Opt-in durable state (see :mod:`repro.durability` and
        ``docs/DURABILITY.md``).  A scheduler built with ``cache=True``
        backs its cross-job cache with SQLite, warm-started from
        previous runs.  Each tick's settled batches are journaled as
        one line before they become observable anywhere else, and
        :meth:`run` transparently *resumes* when the policy's journal
        already holds lines for the identical workload — journaled
        batches are replayed without touching the platform (zero
        re-spend), then execution continues live, bit-identical to an
        uninterrupted run.  Requires
        stateless pools for exactness: gold bans mutate shared workers
        and are not reconstructed (a warning says so).
    """

    def __init__(
        self,
        pools: dict[str, WorkerPool],
        root_seed: int | np.random.SeedSequence,
        gold: GoldPolicy | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        cache: ComparisonMemoCache | bool = True,
        quantum: int | None = 64,
        max_pending: int = 64,
        tenant_caps: dict[str, float] | None = None,
        tenant_ledgers: dict[str, CostLedger] | None = None,
        tracer: Tracer | None = None,
        durability: DurabilityPolicy | None = None,
    ):
        if not pools:
            raise ValueError("the scheduler needs at least one worker pool")
        if quantum is not None and quantum < 1:
            raise ValueError("quantum must be at least 1 (or None for unlimited)")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.pools = dict(pools)
        self._seeds = (
            root_seed
            if isinstance(root_seed, np.random.SeedSequence)
            else np.random.SeedSequence(root_seed)
        )
        self.gold = gold
        self.faults = faults
        self.retry = retry
        self.tracer = resolve_tracer(tracer)
        self.durability = durability
        self._owns_cache = False
        if cache is True:
            if durability is not None:
                self.cache: ComparisonMemoCache | None = DurableComparisonCache(
                    PersistentComparisonStore(durability.cache_path),
                    tracer=self.tracer,
                )
                self._owns_cache = True
            else:
                self.cache = ComparisonMemoCache(tracer=self.tracer)
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        if durability is not None and gold is not None:
            warnings.warn(
                "journaled durability with a gold policy: gold bans mutate "
                "shared worker state that journal replay does not "
                "reconstruct, so a resumed run is only exact when no worker "
                "was banned before the crash",
                UserWarning,
                stacklevel=2,
            )
        self.quantum = quantum
        self.max_pending = max_pending
        # The injected dict (when given) is used *as* the store, not
        # copied: lazily-created ledgers land in it, so the host sees
        # them and the next generation reuses them.
        self._tenant_ledgers: dict[str, CostLedger] = (
            tenant_ledgers if tenant_ledgers is not None else {}
        )
        self._tenant_caps = dict(tenant_caps or {})
        self._tickets: list[JobTicket] = []
        self._started = False
        self.ticks = 0
        self._journal: JobJournal | None = None
        #: Recovered tick lines by tick number.  A tick has more than one
        #: line when a resumed run served, live, a request its first
        #: line lacks.
        self._replay: dict[int, list[_TickLine]] = {}
        #: The tick line being built: served requests in record order.
        self._line: list[_LineEntry] = []
        #: Jobs settled since the last line.
        self._settled_since: list[JobTicket] = []
        #: Jobs a recovered line names as settled.
        self._settled_journaled: set[int] = set()
        #: Requests served from the journal (not the platform) this run.
        self.replayed_batches = 0
        #: Ledger operations re-applied from journal charge tapes.  The
        #: ledgers themselves cannot tell replayed charges from live
        #: ones (that is the point — bit-identical totals), so this is
        #: the counter that proves zero re-spend: judgments actually
        #: bought this run = ``ledger ops - replayed_operations``.
        self.replayed_operations = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        job: CrowdMaxJob,
        tenant: str = "default",
        seed: int | np.random.SeedSequence | None = None,
    ) -> JobTicket:
        """Admit one job; returns its ticket (outcome set after run()).

        Raises ``TypeError`` for a job without a callable ``steps()``,
        :class:`SchedulerSaturatedError` when the bounded queue is full
        and ``RuntimeError`` after :meth:`run` has started — the job
        set must be fixed before the clock starts so admission order
        (and therefore seeding) is unambiguous.  Every refusal happens
        *before* any seed is spawned, so a refused submission leaves
        the root seed tree untouched.

        ``seed`` pins the ticket's randomness explicitly instead of
        spawning it from the scheduler's root: the ticket splits it
        into the usual (algorithm, platform) stream pair.  With the
        cache off and stateless pools, an explicitly-seeded job's
        result is bit-identical regardless of which scheduler
        generation serves it or what shares the schedule — the
        property the HTTP layer's parity gate is built on.
        """
        if self._started:
            raise RuntimeError("cannot submit after run() has started")
        if not callable(getattr(job, "steps", None)):
            raise TypeError(
                f"{type(job).__name__} has no steps() generator; the scheduler "
                "runs jobs only as coroutines over steps()"
            )
        if len(self._tickets) >= self.max_pending:
            raise SchedulerSaturatedError(
                capacity=self.max_pending, pending=len(self._tickets)
            )
        if seed is None:
            seed_seq = self._seeds.spawn(1)[0]
        elif isinstance(seed, np.random.SeedSequence):
            seed_seq = seed
        else:
            seed_seq = np.random.SeedSequence(int(seed))
        ticket = JobTicket(
            index=len(self._tickets),
            job=job,
            tenant=tenant,
            seed=seed_seq,
        )
        self._tickets.append(ticket)
        return ticket

    def tenant_ledger(self, tenant: str) -> CostLedger:
        """The shared ledger all of ``tenant``'s jobs charge."""
        ledger = self._tenant_ledgers.get(tenant)
        if ledger is None:
            ledger = CostLedger(hard_cap=self._tenant_caps.get(tenant))
            self._tenant_ledgers[tenant] = ledger
        return ledger

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self) -> list[JobOutcome]:
        """Settle every admitted job; returns outcomes in settle order.

        With a journaling :class:`~repro.durability.DurabilityPolicy`,
        recovers the journal first: an empty journal starts a fresh
        (recorded) run; an existing one must describe the identical
        workload (else :class:`JournalMismatchError`) and its settled
        batches are replayed instead of re-bought.
        """
        if self._started:
            raise RuntimeError("run() can only be called once per scheduler")
        self._started = True
        outcomes: list[JobOutcome] = []
        try:
            self._open_journal()
            with self.tracer.span(
                "scheduler.run", jobs=len(self._tickets), pools=sorted(self.pools)
            ):
                for ticket in self._tickets:
                    self._launch(ticket)
                self._loop(outcomes)
        finally:
            if self._journal is not None:
                # The last line holds the jobs settled in the final tick.
                self._journal_tick(self.ticks + 1)
                self._journal.close()
            if self._owns_cache and isinstance(self.cache, DurableComparisonCache):
                self.cache.close()
        return outcomes

    # ------------------------------------------------------------------
    # Durability: journal setup / recovery
    # ------------------------------------------------------------------
    def _journal_facts(self) -> dict[str, Any]:
        """The workload identity stamped into (and checked against) the
        journal header — everything the determinism contract requires
        to be identical for replay to be exact."""
        return {
            "format": JOURNAL_FORMAT,
            "root_entropy": str(self._seeds.entropy),
            "quantum": self.quantum,
            "cache": self.cache is not None,
            "pools": sorted(self.pools),
            "jobs": [
                [ticket.job.kind, ticket.fingerprint, ticket.tenant]
                for ticket in self._tickets
            ],
        }

    def _open_journal(self) -> None:
        policy = self.durability
        if policy is None:
            return
        records = JobJournal.recover(policy.journal_path)
        facts = self._journal_facts()
        if records:
            header = records[0]
            if header.get("kind") != "header":
                raise JournalMismatchError("kind", header.get("kind"), "header")
            for name, actual in facts.items():
                if header.get(name) != actual:
                    raise JournalMismatchError(name, header.get(name), actual)
            for record in records[1:]:
                if record.get("kind") != "tick":
                    raise _malformed(record, "kind", "is not tick")
                line = _parse_tick(record)
                lines = self._replay.setdefault(record["tick"], [])
                if any(set(record["jobs"]) & set(other.record["jobs"]) for other in lines):
                    raise _malformed(record, "jobs", "repeats a job of its tick's earlier line")
                lines.append(line)
                self._settled_journaled.update(record["settled"])
        self._journal = JobJournal(
            policy.journal_path, crash_after_appends=policy.crash_after_appends
        )
        if not records:
            self._journal.append("header", **facts)
            self._journal.commit_group()
        if isinstance(self.cache, DurableComparisonCache):
            # With a journal active the SQLite write-through is deferred
            # and flushed only after the tick's line is durable, so the
            # store can never get ahead of the journal even within a
            # fused tick.
            self.cache.deferred = True

    def _launch(self, ticket: JobTicket) -> None:
        """Build the tenant view, emit admission, start the job.

        The job's ``steps()`` generator is advanced to its first
        platform call right here, on the scheduler's own thread, in
        admission order.
        """
        ticket.tracer = (
            _JobTracer(self.tracer, ticket.index) if self.tracer.enabled else NULL_TRACER
        )
        ticket.platform = _TenantPlatform(
            pools=self.pools,
            rng=ticket._platform_rng,
            ledger=_ChainedLedger(parent=self.tenant_ledger(ticket.tenant)),
            gold=self.gold,
            faults=self.faults,
            retry=self.retry,
            tracer=ticket.tracer,
        )
        if ticket.cancel_requested:
            # Cancelled before launch: settle as "cancelled" without
            # opening the generator or spending anything.  The tenant
            # platform above is still built so the outcome's cost
            # accessor works (it reads 0.0).
            ticket._error = JobCancelledError(ticket.index)
            ticket.done = True
            return
        if ticket.tracer.enabled:
            ticket.tracer.event(
                "job_admitted",
                job_kind=ticket.job.kind,
                tenant=ticket.tenant,
                fingerprint=ticket.fingerprint[:12],
            )
        self._start(ticket)

    # ------------------------------------------------------------------
    # Coroutine tickets
    # ------------------------------------------------------------------
    def _start(self, ticket: JobTicket) -> None:
        """Open a coroutine ticket's generator and run to its first park."""
        assert ticket.platform is not None
        try:
            submitted = ticket.job.submit(
                ticket.platform, ticket.rng, tracer=ticket.tracer
            )
            ticket._gen = submitted.steps()
        except BaseException as exc:  # repro-lint: disable=ERR003 -- outcome capture; re-raised on the ticket
            ticket._error = exc
            ticket.done = True
            return
        self._advance(ticket, "next")

    def _advance(self, ticket: JobTicket, action: str, payload: Any = None) -> None:
        """Resume a coroutine ticket until it parks again or finishes.

        The scheduler-side twin of :func:`~repro.core.steps.drive_steps`:
        oracle calls backed by the ticket's own tenant platform are
        *intercepted* — converted to a parked :class:`_CompareRequest`
        for the next tick — while every other call (private simulated
        models) is performed inline, with exceptions delivered into the
        generator at its yield point exactly as the trampoline would.
        """
        gen = ticket._gen
        assert gen is not None
        try:
            if action == "next":
                step = next(gen)
            elif action == "throw":
                step = gen.throw(payload)
            else:
                step = gen.send(payload)
            while True:
                request = self._intercept(ticket, step)
                if request is not None:
                    ticket.request = request
                    return
                try:
                    result = step.perform()
                except BaseException as exc:  # repro-lint: disable=ERR003 -- re-raised inside the generator at its yield point
                    step = gen.throw(exc)
                else:
                    step = gen.send(result)
        except StopIteration as stop:
            ticket._result = stop.value
            ticket.done = True
        except BaseException as exc:  # repro-lint: disable=ERR003 -- outcome capture; re-raised on the ticket
            ticket._error = exc
            ticket.done = True

    def _intercept(
        self, ticket: JobTicket, step: OracleCall
    ) -> _CompareRequest | None:
        """A parked request for ``step`` when it targets this tenant's
        platform, else ``None`` (the step is performed inline)."""
        model = step.model
        if not isinstance(model, PlatformWorkerModel):
            return None
        if model.platform is not ticket.platform:
            return None
        indices_i, indices_j = step.indices_i, step.indices_j
        if indices_i is None or indices_j is None:
            # Mirror PlatformWorkerModel.decide's placeholder synthesis.
            indices_i = np.arange(len(step.values_i), dtype=np.intp)
            indices_j = indices_i + len(step.values_i)
        return _CompareRequest(
            pool_name=model.pool_name,
            indices_i=np.asarray(indices_i),
            indices_j=np.asarray(indices_j),
            values_i=np.asarray(step.values_i),
            values_j=np.asarray(step.values_j),
            judgments_per_task=model.judgments_per_task,
            strict=model.strict,
        )

    def _loop(self, outcomes: list[JobOutcome]) -> None:
        live = [t for t in self._tickets]
        while live:
            # Jobs that finished in the last tick settle here and ride in
            # this tick's journal line (the jobs that finish in the final
            # tick get a line of their own, written by run()).
            still_live: list[JobTicket] = []
            for ticket in live:
                if ticket.done:
                    self._settle(ticket, outcomes)
                else:
                    still_live.append(ticket)
            live = still_live
            if not live:
                break
            runnable = [t for t in live if t.request is not None]
            self.ticks += 1
            admitted = self._admit(runnable)
            if self.tracer.enabled:
                self.tracer.event(
                    "scheduler_tick",
                    tick=self.ticks,
                    live=len(live),
                    runnable=len(runnable),
                    admitted=len(admitted),
                    deferred=len(runnable) - len(admitted),
                )
            self._run_tick(admitted)

    def _run_tick(self, admitted: list[JobTicket]) -> None:
        """One tick's worth of service, in three timed phases.

        *settle* — every admitted request is resolved: journal replays
        and fast-path-ineligible requests alone, everything else
        through the fused buffer (cache lookups, one fused platform
        pass per flush), each served request joining the tick's journal
        line, which is written with one write and one fsync as the
        phase ends.
        *scatter* — the deferred durable-cache writes flush behind the
        written line, and every request is checked to carry an answer
        or an error.
        *resume* — jobs are resumed in admission order by sending or
        throwing into their generators.
        """
        with self.tracer.span(
            "scheduler.tick.settle", tick=self.ticks, requests=len(admitted)
        ):
            try:
                self._settle_requests(admitted)
            finally:
                self._journal_tick(self.ticks)
        with self.tracer.span("scheduler.tick.scatter", tick=self.ticks):
            if isinstance(self.cache, DurableComparisonCache):
                self.cache.flush_pending()
            for ticket in admitted:
                request = ticket._inflight
                assert request is not None
                assert request.error is not None or request.answers is not None
        with self.tracer.span("scheduler.tick.resume", tick=self.ticks):
            self._resume(admitted)

    # ------------------------------------------------------------------
    # Admission control (fair share)
    # ------------------------------------------------------------------
    def _admit(self, runnable: list[JobTicket]) -> list[JobTicket]:
        """Fair-share admission: who gets platform service this tick.

        Per pool, parked requests are ordered least-served-first (ties
        to earliest admission) and granted whole — a job's batch is one
        logical step and is never split — until the ``quantum`` of
        tasks is spent.  The front request is always granted, so a
        request larger than the quantum still makes progress and no
        job starves: every deferral strictly improves the deferred
        job's priority relative to the jobs that were served.
        """
        admitted: list[JobTicket] = []
        by_pool: dict[str, list[JobTicket]] = {}
        for ticket in runnable:
            assert ticket.request is not None
            by_pool.setdefault(ticket.request.pool_name, []).append(ticket)
        for pool_name in sorted(by_pool):
            queue = sorted(
                by_pool[pool_name],
                key=lambda t: (t.served.get(pool_name, 0), t.index),
            )
            granted: list[JobTicket] = []
            budget = self.quantum
            used = 0
            for ticket in queue:
                assert ticket.request is not None
                size = ticket.request.size
                if granted and budget is not None and used + size > budget:
                    break
                granted.append(ticket)
                used += size
                ticket.served[pool_name] = ticket.served.get(pool_name, 0) + size
            if self.tracer.enabled:
                self.tracer.event(
                    "batch_coalesced",
                    pool=pool_name,
                    requests=len(granted),
                    tasks=used,
                    deferred=len(queue) - len(granted),
                    jobs=[t.index for t in granted],
                )
            admitted.extend(granted)
        return admitted

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _settle_requests(self, admitted: list[JobTicket]) -> None:
        """Resolve every admitted request, fusing where eligible.

        Walks the admitted tickets in admission order.  Journal replays
        and requests the platform fast path cannot take are served
        alone — but only after the fused buffer is flushed, so the
        relative order of platform effects, journal records and trace
        events matches one-at-a-time service.  Fused-eligible requests
        are looked up in the cache and their misses buffered; a request
        whose pairs overlap a buffered miss forces a flush first, so its
        lookup sees exactly the store state one-at-a-time service would
        have produced.
        """
        replay = self._replayed(admitted)
        pending: list[_Lookup] = []
        pending_keys: dict[Segment, set[int]] = {}
        for ticket in admitted:
            request = ticket.request
            assert request is not None and ticket.platform is not None
            ticket.request = None
            ticket._inflight = request
            slot = replay.get(ticket.index)
            if slot is not None:
                self._flush_fused(pending, pending_keys)
                self._replay_serve(ticket, request, *slot)
                continue
            fusable = ticket.platform.fast_path_eligible(
                request.pool_name, request.judgments_per_task
            )
            if not fusable or (
                pending_keys and self._overlaps_pending(pending_keys, ticket, request)
            ):
                self._flush_fused(pending, pending_keys)
            lookup = self._lookup(ticket, request)
            if not len(lookup.miss):
                self._record_serve(lookup)
            elif not fusable:
                self._buy(lookup)
            else:
                pending.append(lookup)
                if self.cache is not None:
                    self._add_pending_keys(pending_keys, lookup)
        self._flush_fused(pending, pending_keys)

    def _lookup(self, ticket: JobTicket, request: _CompareRequest) -> _Lookup:
        """Answer what the cache can of ``request``; the rest are misses."""
        answers = np.zeros(request.size, dtype=bool)
        if self.cache is None:
            return _Lookup(
                ticket, request, np.arange(request.size), answers, np.ones(request.size, bool)
            )
        hit_mask, cached = self.cache.lookup_batch(
            ticket.fingerprint,
            request.pool_name,
            request.judgments_per_task,
            request.indices_i,
            request.indices_j,
        )
        answers[hit_mask] = cached[hit_mask]
        missed = ~hit_mask
        miss = np.flatnonzero(missed)
        hits = int(request.size - len(miss))
        if ticket.tracer.enabled and hits:
            ticket.tracer.event(
                "cache_hit", pool=request.pool_name, hits=hits, misses=len(miss)
            )
        return _Lookup(ticket, request, miss, answers, missed)

    @staticmethod
    def _add_pending_keys(
        pending_keys: dict[Segment, set[int]], lookup: _Lookup
    ) -> None:
        request, miss = lookup.request, lookup.miss
        codes, _ = pair_codes(request.indices_i[miss], request.indices_j[miss])
        segment = (lookup.ticket.fingerprint, request.pool_name, request.judgments_per_task)
        pending_keys.setdefault(segment, set()).update(codes.tolist())

    @staticmethod
    def _overlaps_pending(
        pending_keys: dict[Segment, set[int]],
        ticket: JobTicket,
        request: _CompareRequest,
    ) -> bool:
        """Whether any pair of ``request`` is a buffered (unstored) miss."""
        buffered = pending_keys.get(
            (ticket.fingerprint, request.pool_name, request.judgments_per_task)
        )
        if not buffered:
            return False
        codes, _ = pair_codes(request.indices_i, request.indices_j)
        return not buffered.isdisjoint(codes.tolist())

    def _flush_fused(
        self,
        pending: list[_Lookup],
        pending_keys: dict[Segment, set[int]],
    ) -> None:
        """Settle the buffered requests in one fused pass per pool.

        The buffer is cut into runs of consecutive requests for the same
        pool (admission groups a tick's requests by pool, so that is one
        run per pool), and each run is one plan with one batch per
        tenant.  Three sub-phases, all order-deterministic:

        1. *prepare* — ``fast_batch_prepare`` reserves each tenant
           platform's own Philox judgment slice, in admission order,
           exactly as a serial serve would have, and lays the run out
           as one plan;
        2. *decide* — ``_fused_decide`` answers each plan with **one**
           vectorized ``decide_from_uniforms`` call per worker model.
           Each judgment carries its own pre-drawn uniforms, so grouping
           cannot change any answer;
        3. *finalize* — ``fast_batch_finalize`` takes the majority once
           per plan and charges each tenant in admission order; then
           each tenant's request joins the tick's journal line and its
           cache store lands, in the same order, so ledger float
           accumulation and the store are bit-identical to
           one-at-a-time service.  A tenant whose charge is refused (a
           budget cap) keeps the error to itself; later tenants still
           settle, exactly as they would have serially.
        """
        if not pending:
            return
        runs: list[tuple[list[_Lookup], WorkerPool, FastBatchPlan]] = []
        for pool_name, run in groupby(pending, key=lambda p: p.request.pool_name):
            lookups = list(run)
            pool = self.pools[pool_name]
            batches = []
            for p in lookups:
                assert p.ticket.platform is not None
                batches.append(
                    FastBatch(
                        p.ticket.platform,
                        p.request.indices_i[p.miss],
                        p.request.indices_j[p.miss],
                        p.request.values_i[p.miss],
                        p.request.values_j[p.miss],
                        np.full(len(p.miss), p.request.judgments_per_task, dtype=np.intp),
                    )
                )
            runs.append((lookups, pool, CrowdPlatform.fast_batch_prepare(pool, batches)))
        raws = self._fused_decide([(pool, plan) for _, pool, plan in runs])
        for (lookups, pool, plan), raw in zip(runs, raws):
            self._settle_bought(
                lookups, partial(CrowdPlatform.fast_batch_finalize, pool, plan, raw)
            )
        if self.tracer.enabled:
            self.tracer.event(
                "batch_fused",
                requests=len(pending),
                tasks=int(sum(len(p.miss) for p in pending)),
                judgments=int(sum(plan.n_judgments for _, _, plan in runs)),
                pools=sorted({p.request.pool_name for p in pending}),
                jobs=[p.ticket.index for p in pending],
            )
        pending.clear()
        pending_keys.clear()

    @staticmethod
    def _fused_decide(plans: list[tuple[WorkerPool, FastBatchPlan]]) -> list[np.ndarray]:
        """Raw model answers for each pool plan of a flush.

        A plan already holds every tenant's judgments for its pool, so
        ``fast_batch_decide`` makes one ``decide_from_uniforms`` call
        per worker model of the pool.  That call is element-wise (each
        judgment reads only its own row), so the answers are
        bit-identical to per-request decides.
        """
        return [CrowdPlatform.fast_batch_decide(pool, plan) for pool, plan in plans]

    def _resume(self, admitted: list[JobTicket]) -> None:
        """Deliver every settled request back to its job, in admission
        order, by sending (or throwing) into the generator at its yield
        point."""
        for ticket in admitted:
            request = ticket._inflight
            assert request is not None
            ticket._inflight = None
            if ticket.cancel_requested and request.error is None:
                # The resume point is the cancellation point: instead
                # of the answers the job paid for, it receives the
                # typed cancel error (the charges stand — ledgers are
                # authoritative; see JobTicket.cancel).
                request.error = JobCancelledError(ticket.index)
            if request.error is not None:
                self._advance(ticket, "throw", request.error)
            elif (
                request.strict
                and request.report is not None
                and request.report.degraded
            ):
                # Where PlatformWorkerModel.decide would have raised.
                self._advance(ticket, "throw", DegradedBatchError(request.report))
            else:
                self._advance(ticket, "send", request.answers)

    def _buy(self, lookup: _Lookup) -> None:
        """Buy one request's misses alone through ``compare_batch``.

        The route for requests the fast path cannot settle (gold probes
        armed, active fault plans, capped private ledgers, fallback
        pools): the platform's full step loop runs with the job's own
        RNG stream, ledger, and fault plan.
        """
        platform, request, miss = lookup.ticket.platform, lookup.request, lookup.miss
        assert platform is not None
        self._settle_bought(
            [lookup],
            lambda: [
                CrowdPlatform.compare_batch(  # repro-lint: disable=SCH001 -- the lone buy for fast-path-ineligible requests
                    platform,
                    request.pool_name,
                    request.indices_i[miss],
                    request.indices_j[miss],
                    request.values_i[miss],
                    request.values_j[miss],
                    judgments_per_task=request.judgments_per_task,
                )
            ],
        )

    def _settle_bought(
        self,
        lookups: list[_Lookup],
        buy: Callable[[], list[tuple[np.ndarray, BatchReport] | CostCapError]],
    ) -> None:
        """Buy the ``lookups``' misses with ``buy`` and record each serve.

        ``buy`` returns one entry per lookup: its fresh answers and
        report, or the ``CostCapError`` that refused it.  Each job's
        ledger tapes its charges for the journal while ``buy`` runs.
        A lookup whose buy raised or was refused (a budget cap) hands
        the error to its job and is not journaled: a failed settle
        settles nothing, so on resume the re-run reaches this batch
        live (with the restored state) and fails identically.
        """
        ledgers: list[CostLedger] = []
        tapes: list[list[tuple[str, int, float]]] = []
        for lookup in lookups:
            assert lookup.ticket.platform is not None
            ledger = lookup.ticket.platform.ledger
            ledgers.append(ledger)
            tapes.append([])
            if self._journal is not None and isinstance(ledger, _ChainedLedger):
                ledger.tape = tapes[-1]
        try:
            bought = buy()
        except BaseException as exc:  # repro-lint: disable=ERR003 -- tunnelled to (and re-raised in) the job at its yield point
            for lookup in lookups:
                lookup.request.error = exc
            return
        finally:
            for ledger in ledgers:
                if isinstance(ledger, _ChainedLedger):
                    ledger.tape = None
        for lookup, settled, tape in zip(lookups, bought, tapes):
            if isinstance(settled, CostCapError):
                lookup.request.error = settled
                continue
            fresh, report = settled
            lookup.answers[lookup.miss] = fresh
            self._record_serve(lookup, fresh, report, tape)

    def _record_serve(
        self,
        lookup: _Lookup,
        fresh: np.ndarray | None = None,
        report: BatchReport | None = None,
        tape: list[tuple[str, int, float]] | None = None,
    ) -> None:
        """Journal one served request, then store its fresh judgments.

        Without ``fresh`` every pair was a cache hit, and the request's
        report is ``None`` (only a bought batch can be degraded).
        Ordering discipline: the tick's journal line (durable when it is
        written at the end of the settle phase) must precede the
        durable cache's commit of these judgments (deferred to the
        scatter phase), so the store can never hold an entry whose
        journal record was lost to a crash (which would flip a miss to
        a hit on resume and break ledger parity).
        """
        ticket, request, miss = lookup.ticket, lookup.request, lookup.miss
        self._journal_serve(lookup, report, tape)
        if self.cache is not None and fresh is not None:
            self.cache.store_batch(
                ticket.fingerprint,
                request.pool_name,
                request.judgments_per_task,
                request.indices_i[miss],
                request.indices_j[miss],
                fresh,
            )
        request.answers = lookup.answers
        request.report = report

    def _journal_serve(
        self,
        lookup: _Lookup,
        report: BatchReport | None,
        tape: list[tuple[str, int, float]] | None,
    ) -> None:
        """Add one served request to the tick's journal line, with the
        report and platform state of a request that bought."""
        if self._journal is None:
            return
        bought = None
        if len(lookup.miss):
            assert report is not None and lookup.ticket.platform is not None
            bought = [_report_to_state(report), _capture_platform_state(lookup.ticket.platform)]
        self._line.append((lookup, tape or [], bought))

    def _journal_tick(self, tick: int) -> None:
        """Write the tick's journal line with one write and one fsync.

        The line holds the requests served this tick as columns in
        record order, their miss and answer flags over the tick's
        pairs, one digest of those pairs, and the jobs settled since
        the last line.  A tick with nothing new to record (every
        request replayed, no job settled) writes nothing.
        """
        journal, served, settled = self._journal, self._line, self._settled_since
        if journal is None or not (served or settled):
            return
        self._line, self._settled_since = [], []
        lookups = [lookup for lookup, _, _ in served]
        missed = [lookup.missed for lookup in lookups] or [_NO_FLAGS]
        answers = [lookup.answers for lookup in lookups] or [_NO_FLAGS]
        journal.append(
            "tick",
            tick=tick,
            jobs=[lookup.ticket.index for lookup in lookups],
            pools=[lookup.request.pool_name for lookup in lookups],
            judgments=[lookup.request.judgments_per_task for lookup in lookups],
            sizes=[lookup.request.size for lookup in lookups],
            charges=[tape for _, tape, _ in served],
            bought=[bought for _, _, bought in served],
            miss=encode_flags(np.concatenate(missed)),
            answers=encode_flags(np.concatenate(answers)),
            pairs=_pairs_digest(lookup.request for lookup in lookups),
            settled=[ticket.index for ticket in settled],
        )
        journal.commit_group()
        self.tracer.count("durability.journal_appends")
        if self.tracer.enabled:
            self.tracer.event(
                "journal_append", tick=tick, requests=len(served), settled=len(settled)
            )
            for ticket in settled:
                assert ticket.outcome is not None
                ticket.tracer.event(
                    "checkpoint_written",
                    settle_index=ticket.outcome.settle_index,
                    status=ticket.outcome.status,
                    tick=tick,
                )

    def _replayed(self, admitted: list[JobTicket]) -> dict[int, tuple[_TickLine, int]]:
        """This tick's journaled requests by job index, as (line, column).

        Each of the tick's recovered lines is checked against the live
        tick before anything is served: every job it names must be
        admitted (``tick.jobs``), and the digest of those jobs' live
        pairs, taken in the line's order, must match its ``pairs``
        (``tick.pairs``).  An admitted request no line names runs live.
        """
        lines = self._replay.pop(self.ticks, None)
        if not lines:
            return {}
        live = {t.index: t.request for t in admitted if t.request is not None}
        slots: dict[int, tuple[_TickLine, int]] = {}
        for line in lines:
            jobs = line.record["jobs"]
            if not all(job in live for job in jobs):
                raise JournalMismatchError("tick.jobs", jobs, sorted(live))
            digest = _pairs_digest(live[job] for job in jobs)
            if digest != line.record["pairs"]:
                raise JournalMismatchError("tick.pairs", line.record["pairs"], digest)
            slots.update((job, (line, k)) for k, job in enumerate(jobs))
        return slots

    def _replay_serve(
        self, ticket: JobTicket, request: _CompareRequest, line: _TickLine, k: int
    ) -> None:
        """Serve one request from its slice of a journal line — no
        platform spend.

        The tick's digest already bound the live pairs to the line
        (:meth:`_replayed`); the request's pool and redundancy are
        checked here.  Then the charge tape replays through the real
        ledgers, and a request that bought restores its platform's
        post-batch state and rebuilds the report the job originally
        saw.  The pairs themselves come from the live request.
        """
        record = line.record
        for name, recorded, actual in (
            ("pool", record["pools"][k], request.pool_name),
            ("judgments", record["judgments"][k], request.judgments_per_task),
        ):
            if recorded != actual:
                raise JournalMismatchError(f"request.{name}", recorded, actual)
        start, stop = line.bounds[k], line.bounds[k + 1]
        miss = np.flatnonzero(line.miss[start:stop])
        answers = line.answers[start:stop]
        hits = request.size - len(miss)
        if self.cache is not None:
            # Mirror the original lookup's traffic counters and event.
            self.cache.hits += hits
            self.cache.misses += len(miss)
            if ticket.tracer.enabled and hits:
                ticket.tracer.event(
                    "cache_hit", pool=request.pool_name, hits=hits, misses=len(miss)
                )
        assert ticket.platform is not None
        for label, count, unit_cost in record["charges"][k]:
            ticket.platform.ledger.charge(label, count, float(unit_cost))
            self.replayed_operations += count
        report = None
        bought = record["bought"][k]
        if bought is not None:
            report_state, platform_state = bought
            try:
                _restore_platform_state(ticket.platform, platform_state)
                report = _report_from_state(report_state)
            except (KeyError, TypeError, ValueError) as exc:
                raise _malformed(
                    record, "bought", f"cannot be restored for job {ticket.index}: {exc!r}"
                ) from exc
            if self.cache is not None:
                # Replay rebuilds the store from lines the original run
                # already journaled; there is nothing new to append.
                self.cache.store_batch(  # repro-lint: disable=FLOW003 -- replay of journaled data
                    ticket.fingerprint,
                    request.pool_name,
                    request.judgments_per_task,
                    request.indices_i[miss],
                    request.indices_j[miss],
                    answers[miss],
                )
        self.replayed_batches += 1
        if ticket.tracer.enabled:
            ticket.tracer.event(
                "resume_replayed",
                pool=request.pool_name,
                tick=record["tick"],
                tasks=request.size,
                misses=len(miss),
            )
        self.tracer.count("durability.resume_replays")
        request.answers = answers
        request.report = report

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def _settle(self, ticket: JobTicket, outcomes: list[JobOutcome]) -> None:
        error = ticket._error
        if error is None:
            status: Literal["ok", "budget_exceeded", "cancelled", "failed"] = "ok"
        elif isinstance(error, BudgetExceededError):
            status = "budget_exceeded"
        elif isinstance(error, JobCancelledError):
            status = "cancelled"
        else:
            status = "failed"
        outcome = JobOutcome(
            ticket=ticket,
            settle_index=len(outcomes),
            status=status,
            result=ticket._result,
            error=error,
        )
        ticket.outcome = outcome
        outcomes.append(outcome)
        if self._journal is not None and ticket.index not in self._settled_journaled:
            # Journaled in the next line, which fires ``checkpoint_written``.
            self._settled_since.append(ticket)
        if ticket.tracer.enabled:
            ticket.tracer.event(
                "job_settled",
                settle_index=outcome.settle_index,
                status=status,
                tenant=ticket.tenant,
                cost=round(outcome.cost, 9),
            )
