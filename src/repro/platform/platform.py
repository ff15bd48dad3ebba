"""The crowdsourcing platform simulator (stands in for CrowdFlower).

Implements the computation model of Section 3: algorithms submit
*batches* of pairwise comparisons (one batch per logical step); the
platform plays out a sequence of *physical steps*, in each of which a
random subset of the pool's workers is active and each active worker
judges one pair.  Quality control follows Section 3.1: a configurable
fraction of judgments are *gold probes* with known ground truth, and a
worker whose gold accuracy drops below the ban threshold is banned and
has all of her judgments discarded (and re-collected from others).

Presentation order is randomised per judgment — each worker sees the
pair in a random left/right order — which neutralises position-biased
spammers (see :class:`repro.workers.spammer.LazyFirstModel`).

Every judgment is paid, including gold probes and judgments later
discarded for spam: detecting a spammer costs real money, exactly as on
the real platform.

Beyond the paper's model, the platform carries a resilience layer (see
``docs/RELIABILITY.md``): a :class:`~repro.platform.faults.FaultPlan`
injects reproducible worker faults (abandonment, stragglers, offline
windows, malformed judgments), a
:class:`~repro.platform.faults.RetryPolicy` governs re-assignment,
deadlines and fallback pools, and ``submit_batch`` *always* settles —
tasks that cannot be completed are flagged ``degraded`` on a per-task
:class:`~repro.platform.job.TaskReport` instead of a stall error
throwing away collected work.  With no faults and no caps the paper
path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ..telemetry import Tracer, resolve_tracer
from ..workers.base import WorkerModel
from .accounting import CostLedger
from .errors import CostCapError, DegradedBatchError
from .faults import FaultPlan, RetryPolicy
from .gold import GoldPolicy
from .job import BatchReport, ComparisonTask, Judgment, TaskReport
from .workforce import SimulatedWorker, WorkerPool

__all__ = ["CrowdPlatform", "FastBatch", "FastBatchPlan", "fast_model_groups"]

#: Graceful defaults: unlimited attempts, no deadline, settle degraded.
_DEFAULT_RETRY = RetryPolicy()

#: Uniform variates reserved per judgment on the vectorized fast path:
#: [presentation flip, model draw, model draw, majority-tie coin].
#: Exactly one Philox block (``advance(1)`` = 4 doubles), so judgment
#: ``t``'s block starts at counter ``t`` — the whole RNG discipline.
_FAST_UNIFORM_WIDTH = 4


@dataclass
class _BatchState:
    """Mutable per-batch bookkeeping for one ``submit_batch`` call."""

    tasks: list[ComparisonTask]
    #: Kept judgments per task and the workers who produced them.
    kept: dict[int, list[Judgment]] = field(default_factory=dict)
    judged_by: dict[int, set[int]] = field(default_factory=dict)
    #: Early-settled (degraded) tasks: task id -> reason.
    settled: dict[int, str] = field(default_factory=dict)
    #: Failed assignments (abandoned / malformed) per task.
    failures: dict[int, int] = field(default_factory=dict)
    #: Backoff: task not re-assignable before this physical step.
    not_before: dict[int, int] = field(default_factory=dict)
    #: In-flight straggler judgments: (arrival step, judgment).
    pending: list[tuple[int, Judgment]] = field(default_factory=list)
    #: Worker offline windows: worker id -> first step online again.
    offline_until: dict[int, int] = field(default_factory=dict)
    discarded: int = 0
    malformed: int = 0
    lost_late: int = 0
    retries: int = 0
    faults: int = 0
    banned_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kept = {t.task_id: [] for t in self.tasks}
        self.judged_by = {t.task_id: set() for t in self.tasks}
        self.failures = {t.task_id: 0 for t in self.tasks}

    def open_tasks(self) -> list[ComparisonTask]:
        """Tasks still collecting: not settled, below their requirement."""
        return [
            t
            for t in self.tasks
            if t.task_id not in self.settled
            and len(self.kept[t.task_id]) < t.required_judgments
        ]

    def deficit(self, task: ComparisonTask) -> int:
        return task.required_judgments - len(self.kept[task.task_id])

    def pending_for(self, task_id: int) -> int:
        return sum(1 for _, j in self.pending if j.task_id == task_id)

    def settle(self, task: ComparisonTask, reason: str) -> None:
        if task.task_id not in self.settled:
            self.settled[task.task_id] = reason


@dataclass
class FastBatch:
    """One platform's request in a fused fast-path pass over a pool.

    ``required[k]`` judgments are bought for the pair
    ``(index_first[k], index_second[k])``, shown with their values.
    ``tasks``, when given, are the batch's :class:`ComparisonTask`
    objects; the finalize then also writes the per-judgment audit trail
    (judgment log, per-task reports, listed answers) that
    ``submit_batch`` promises.
    """

    platform: "CrowdPlatform"
    index_first: np.ndarray
    index_second: np.ndarray
    values_first: np.ndarray
    values_second: np.ndarray
    required: np.ndarray
    tasks: list[ComparisonTask] | None = None


@dataclass
class FastBatchPlan:
    """Array-level state of one prepared fast-path pass over a pool.

    ``fast_batch_prepare`` reserves each batch's slice of its own
    platform's Philox judgment stream and lays the batches out end to
    end: which uniforms each judgment reads, which worker position it
    lands on, and the flipped pair each worker is shown.  The plan is
    then *decided* (the only model-dependent part) and *finalized*
    (majority answers, charges, counters) as one unit — which is what
    lets the scheduler settle many tenants' requests for a pool with
    one pass while each tenant keeps its own counter stream.  Batch
    ``b`` owns tasks ``task_bounds[b]:task_bounds[b + 1]`` and
    judgments ``judgment_bounds[b]:judgment_bounds[b + 1]``.
    """

    batches: list[FastBatch]
    task_bounds: list[int]
    judgment_bounds: list[int]
    n_tasks: int
    required: np.ndarray
    task_of: np.ndarray
    n_judgments: int
    uniforms: np.ndarray
    worker_pos: np.ndarray
    flip: np.ndarray
    shown_vi: np.ndarray
    shown_vj: np.ndarray
    shown_ii: np.ndarray
    shown_jj: np.ndarray


def fast_model_groups(pool: WorkerPool) -> tuple[list[WorkerModel], np.ndarray]:
    """Distinct worker models of ``pool`` and each worker's group index.

    Returns ``(models, group_of_worker)`` where ``group_of_worker[p]``
    is the position in ``models`` of worker ``p``'s model.  Grouping is
    by model *identity*: pools routinely share one model object across
    many workers, and the fused scheduler path relies on tenant views
    of one pool resolving to the same groups.
    """
    workers = pool.workers
    model_index: dict[int, int] = {}
    models: list[WorkerModel] = []
    group_of_worker = np.empty(len(workers), dtype=np.intp)
    for pos, worker in enumerate(workers):
        key = id(worker.model)
        if key not in model_index:
            model_index[key] = len(models)
            models.append(worker.model)
        group_of_worker[pos] = model_index[key]
    return models, group_of_worker


class CrowdPlatform:
    """A simulated crowdsourcing platform with pools, gold, and accounting.

    A batch that needs none of the resilience machinery (no gold, no
    active faults, no deadline / attempt limit / fallback pool, no hard
    cap, no bans, full availability, every model supports
    uniform-driven decisions) settles from ndarrays — one vectorized
    decide per worker model — instead of the physical-step loop.  Its
    judgment draws come from a private counter-based Philox stream (see
    ``docs/PERFORMANCE.md``): deterministic and invariant to how a task
    sequence is split into batches, but *not* bit-identical to the step
    loop's draws.

    Parameters
    ----------
    pools:
        Worker pools by name (typically ``{"naive": ..., "expert": ...}``).
    rng:
        Randomness source for availability, assignment, tie breaks —
        and fault injection, so a seeded run reproduces its faults.
    ledger:
        Cost ledger charged per judgment; a private one is created when
        omitted.  Give it a ``hard_cap`` to enforce a budget mid-flight
        (a refused charge raises :class:`CostCapError`).
    gold:
        Optional gold/quality-control policy, applied to every pool.
    faults:
        Optional fault-injection plan.  ``None`` (or an all-zero plan)
        injects nothing and leaves the RNG stream untouched.
    retry:
        Default retry policy for every batch; individual
        ``submit_batch`` calls may override it.  Defaults to graceful
        settling with unlimited attempts and no deadline.
    tracer:
        Telemetry tracer; one ``platform_batch`` record is emitted per
        logical step (batch submitted), plus ``fault_injected`` /
        ``task_retry`` / ``batch_degraded`` / ``budget_breach`` events
        as the resilience layer acts.  Defaults to the ambient tracer
        (a no-op unless activated).
    """

    def __init__(
        self,
        pools: dict[str, WorkerPool],
        rng: np.random.Generator,
        ledger: CostLedger | None = None,
        gold: GoldPolicy | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ):
        if not pools:
            raise ValueError("the platform needs at least one worker pool")
        self.pools = dict(pools)
        self.rng = rng
        self.ledger = ledger if ledger is not None else CostLedger()
        self.gold = gold
        self.faults = faults
        self.retry = retry if retry is not None else _DEFAULT_RETRY
        self.tracer = resolve_tracer(tracer)
        #: Logical steps executed (batches submitted).
        self.logical_steps = 0
        #: Physical steps executed across all batches.
        self.physical_steps_total = 0
        #: Batches settled by the vectorized fast path.
        self.fast_batches_total = 0
        #: All judgments ever kept (for audit/debugging).
        self.judgment_log: list[Judgment] = []
        #: Aggregate resilience counters across all batches.
        self.faults_injected_total = 0
        self.tasks_degraded_total = 0
        self.retries_total = 0
        # Counter-based stream for fast-path judgments: the key is
        # drawn lazily from the platform RNG at first use (one draw),
        # after which judgment ``t`` always reads Philox block ``t`` —
        # independent of batch boundaries.
        self._fast_key: int | None = None
        self._fast_seq = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compare_batch(
        self,
        pool_name: str,
        indices_i: np.ndarray,
        indices_j: np.ndarray,
        values_i: np.ndarray,
        values_j: np.ndarray,
        judgments_per_task: int = 1,
    ) -> tuple[np.ndarray, BatchReport]:
        """Submit one batch of comparisons; return majority answers.

        Returns the boolean answer array (``True`` = first element of
        the pair wins) plus the execution report.
        """
        tasks = [
            ComparisonTask(
                task_id=k,
                first=int(indices_i[k]),
                second=int(indices_j[k]),
                value_first=float(values_i[k]),
                value_second=float(values_j[k]),
                required_judgments=judgments_per_task,
            )
            for k in range(len(indices_i))
        ]
        report = self.submit_batch(pool_name, tasks)
        return np.asarray(report.answers, dtype=bool), report

    def submit_batch(
        self,
        pool_name: str,
        tasks: list[ComparisonTask],
        retry: RetryPolicy | None = None,
    ) -> BatchReport:
        """Execute one logical step: collect judgments for ``tasks``.

        Always settles: every task either completes with its required
        judgments or is flagged ``degraded`` on its
        :class:`~repro.platform.job.TaskReport` with the judgments that
        *were* kept.  The only exceptions that can escape are typed —
        :class:`CostCapError` when the ledger's hard cap refuses a
        charge (collected work is flushed to the judgment log first)
        and :class:`DegradedBatchError` when the retry policy is strict
        (``on_degraded="raise"``; the fully-settled report rides on the
        exception).
        """
        pool = self._pool(pool_name)
        policy = retry if retry is not None else self.retry
        if not tasks:
            return BatchReport(
                answers=[], physical_steps=0, judgments_collected=0, judgments_discarded=0
            )
        fallback = self._fallback_pool(pool_name, policy)
        max_required = max(task.required_judgments for task in tasks)
        capacity = len(pool.workers) + (len(fallback.workers) if fallback else 0)
        if max_required > capacity:
            raise ValueError(
                f"tasks require {max_required} distinct judgments but pool "
                f"{pool_name!r} has only {len(pool.workers)} workers"
                + (f" (+{len(fallback.workers)} fallback)" if fallback else "")
            )

        self.logical_steps += 1
        plan = self.faults if (self.faults is not None and self.faults.active) else None
        if self._fast_path_ok(pool, policy, fallback, plan, tasks, max_required):
            return self._submit_batch_vectorized(pool, tasks)
        state = _BatchState(tasks=tasks)

        total_needed = sum(task.required_judgments for task in tasks)
        # Generous stall guard: availability, gold probes, bans and
        # faults slow collection down but cannot legitimately exceed
        # this budget; reaching it settles the batch instead of raising.
        max_steps = 200 + 50 * total_needed
        physical_steps = 0
        try:
            while state.open_tasks():
                if (
                    policy.deadline_steps is not None
                    and physical_steps >= policy.deadline_steps
                ):
                    self._settle_remaining(state, "deadline")
                    break
                if physical_steps >= max_steps:
                    self._settle_remaining(state, "stalled")
                    break
                physical_steps += 1
                self.physical_steps_total += 1
                self._deliver_stragglers(state, physical_steps)
                self._settle_unsatisfiable(state, pool, fallback)
                open_tasks = state.open_tasks()
                if not open_tasks:
                    continue
                active = self._sample_active(pool, plan, state, physical_steps)
                if active:
                    self.rng.shuffle(active)  # type: ignore[arg-type]
                    self._run_assignment_pass(
                        pool, active, open_tasks, state, plan, policy, physical_steps
                    )
                if fallback is not None:
                    self._run_fallback_pass(
                        pool, fallback, state, plan, policy, physical_steps
                    )
        except CostCapError:
            # Budget breach mid-batch: preserve all collected work, make
            # the breach observable, and let the typed error propagate.
            self._flush_judgments(state)
            if self.tracer.enabled:
                self.tracer.event(
                    "budget_breach",
                    pool=pool_name,
                    cap=self.ledger.hard_cap,
                    spent=self.ledger.total_cost,
                    physical_steps=physical_steps,
                )
            raise

        report = self._settle_batch(state, pool_name, physical_steps)
        if report.degraded and policy.on_degraded == "raise":
            raise DegradedBatchError(report)
        return report

    # ------------------------------------------------------------------
    # The vectorized fast path
    # ------------------------------------------------------------------
    def _fast_path_ok(
        self,
        pool: WorkerPool,
        policy: RetryPolicy,
        fallback: WorkerPool | None,
        plan: FaultPlan | None,
        tasks: list[ComparisonTask],
        max_required: int,
    ) -> bool:
        """Whether this batch can settle without the physical-step loop.

        The fast path reproduces the step loop's *outcomes* (judgments
        collected, distinct workers per task, costs, majority answers)
        but none of its failure handling, so every feature that can
        alter collection mid-flight forces the step loop.
        """
        if plan is not None or fallback is not None:
            return False
        if any(task.is_gold for task in tasks):
            return False
        return self._fast_path_state_ok(pool, policy, max_required)

    def _fast_path_state_ok(
        self, pool: WorkerPool, policy: RetryPolicy, max_required: int
    ) -> bool:
        """The task-independent half of the fast-path eligibility check."""
        if self.gold is not None:
            return False
        if policy.deadline_steps is not None or policy.max_attempts is not None:
            return False
        if self.ledger.hard_cap is not None:
            return False
        if pool.availability < 1.0:
            return False
        workers = pool.workers
        if max_required > len(workers):
            return False
        if any(worker.banned for worker in workers):
            return False
        seen: set[int] = set()
        for worker in workers:
            key = id(worker.model)
            if key in seen:
                continue
            seen.add(key)
            if not worker.model.supports_uniform_decide():
                return False
        return True

    def fast_path_eligible(self, pool_name: str, judgments_per_task: int) -> bool:
        """Whether a plain comparison batch would take the fast path.

        The array-level twin of ``_fast_path_ok`` for callers (the
        scheduler's fused settlement) that have no ``ComparisonTask``
        objects yet: scheduler requests are never gold, so only the
        platform/pool state matters.  Must stay conservative — a
        ``True`` here promises that ``submit_batch`` on the same
        request would have settled via ``_submit_batch_vectorized``.
        """
        pool = self._pool(pool_name)
        policy = self.retry
        if self.faults is not None and self.faults.active:
            return False
        if self._fallback_pool(pool_name, policy) is not None:
            return False
        return self._fast_path_state_ok(pool, policy, judgments_per_task)

    def _fast_uniforms(self, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the uniform blocks of judgments ``start ..``.

        ``out`` holds one row per judgment and one Philox block (4
        doubles) per row: ``advance(t)`` skips exactly ``t`` blocks, so
        the variates a judgment consumes are a function of its global
        sequence number alone — splitting a task stream into different
        batches cannot change any outcome.
        """
        if self._fast_key is None:
            self._fast_key = int(self.rng.integers(0, 2**63))
        bits = np.random.Philox(key=self._fast_key)
        bits.advance(start)
        np.random.Generator(bits).random(out=out.reshape(-1))

    def _submit_batch_vectorized(
        self, pool: WorkerPool, tasks: list[ComparisonTask]
    ) -> BatchReport:
        """Settle one fault-free batch from ndarrays, no step loop.

        A fused pass of one batch that carries its tasks, so the audit
        trail is written.  Workers are assigned round-robin over the
        global judgment sequence: judgment ``q`` goes to worker
        ``q mod P``.  A task's judgments are consecutive, so its workers
        are distinct whenever ``required_judgments <= P`` (checked by
        ``_fast_path_ok``), and the rotation carries across batches
        like the step loop's round-robin fairness.
        """
        batch = FastBatch(
            self,
            np.array([t.first for t in tasks], dtype=np.intp),
            np.array([t.second for t in tasks], dtype=np.intp),
            np.array([t.value_first for t in tasks]),
            np.array([t.value_second for t in tasks]),
            np.array([t.required_judgments for t in tasks], dtype=np.intp),
            tasks=tasks,
        )
        plan = self.fast_batch_prepare(pool, [batch], count_logical_step=False)
        (settled,) = self.fast_batch_finalize(pool, plan, self.fast_batch_decide(pool, plan))
        if isinstance(settled, CostCapError):
            raise settled
        return settled[1]

    @staticmethod
    def fast_batch_prepare(
        pool: WorkerPool, batches: list[FastBatch], count_logical_step: bool = True
    ) -> FastBatchPlan:
        """Reserve each batch's judgment stream and lay out one plan.

        Each batch advances its own platform's ``_fast_seq`` (and, for
        external callers, its logical step counter — ``submit_batch``
        counts its own) and draws its own Philox slice, in batch order.
        Everything else runs once over the concatenation: the task
        repeat, the worker rotation (judgment ``q`` of a batch whose
        platform stood at ``base`` lands on worker ``(base + q) mod P``),
        the gathers and the presentation flips.  The fused scheduler
        path passes every tenant's batch for one pool here — one batch
        per tenant platform — before a single decide pass.
        """
        counts = [int(batch.required.sum()) for batch in batches]
        judgment_bounds = [0, *accumulate(counts)]
        n_judgments = judgment_bounds[-1]
        n_workers = len(pool.workers)
        # Each batch draws straight into its rows of the plan's blocks,
        # and its workers continue its platform's rotation.
        drawn = np.empty((n_judgments, _FAST_UNIFORM_WIDTH))
        cycle = np.resize(np.arange(n_workers, dtype=np.intp), n_workers + max(counts))
        positions: list[np.ndarray] = []
        for batch, count, q0 in zip(batches, counts, judgment_bounds):
            platform = batch.platform
            if count_logical_step:
                platform.logical_steps += 1
            base = platform._fast_seq
            platform._fast_seq += count
            platform._fast_uniforms(base, drawn[q0 : q0 + count])
            positions.append(cycle[base % n_workers :][:count])
        required = np.concatenate([batch.required for batch in batches])
        n_tasks = len(required)
        task_of = np.repeat(np.arange(n_tasks, dtype=np.intp), required)
        # Randomised presentation order per judgment, as in the step
        # loop: the model sees the flipped pair and the answer is
        # flipped back.  With each task's pair interleaved, judgment
        # ``q`` is shown slots ``k[q]`` and ``k[q] ^ 1``.
        flip = drawn[:, 0] < 0.5
        k = 2 * task_of + flip
        other = k ^ 1

        def pairs(first: list[np.ndarray], second: list[np.ndarray]) -> np.ndarray:
            return np.stack((np.concatenate(first), np.concatenate(second)), axis=1).ravel()

        values = pairs(
            [batch.values_first for batch in batches],
            [batch.values_second for batch in batches],
        )
        indices = pairs(
            [batch.index_first for batch in batches],
            [batch.index_second for batch in batches],
        ).astype(np.intp, copy=False)
        return FastBatchPlan(
            batches=list(batches),
            task_bounds=[0, *accumulate(len(batch.required) for batch in batches)],
            judgment_bounds=judgment_bounds,
            n_tasks=n_tasks,
            required=required,
            task_of=task_of,
            n_judgments=n_judgments,
            uniforms=drawn,
            worker_pos=np.concatenate(positions),
            flip=flip,
            shown_vi=values[k],
            shown_vj=values[other],
            shown_ii=indices[k],
            shown_jj=indices[other],
        )

    @staticmethod
    def fast_batch_decide(pool: WorkerPool, plan: FastBatchPlan) -> np.ndarray:
        """Raw model answers for one prepared plan.

        One vectorized decide per distinct worker model of the pool,
        over every batch of the plan; each judgment consumes its own
        uniform block regardless of grouping, so the grouping cannot
        affect outcomes.
        """
        models, group_of_worker = fast_model_groups(pool)
        model_uniforms = plan.uniforms[:, 1:3]
        if len(models) == 1:
            return np.asarray(
                models[0].decide_from_uniforms(
                    plan.shown_vi,
                    plan.shown_vj,
                    model_uniforms,
                    indices_i=plan.shown_ii,
                    indices_j=plan.shown_jj,
                ),
                dtype=bool,
            )
        raw = np.empty(plan.n_judgments, dtype=bool)
        judgment_group = group_of_worker[plan.worker_pos]
        for gid, model in enumerate(models):
            members = np.flatnonzero(judgment_group == gid)
            if not len(members):
                continue
            raw[members] = model.decide_from_uniforms(
                plan.shown_vi[members],
                plan.shown_vj[members],
                model_uniforms[members],
                indices_i=plan.shown_ii[members],
                indices_j=plan.shown_jj[members],
            )
        return raw

    @staticmethod
    def fast_batch_finalize(
        pool: WorkerPool, plan: FastBatchPlan, raw: np.ndarray
    ) -> list[tuple[np.ndarray, BatchReport] | CostCapError]:
        """Majority answers, charges and counters for a decided plan.

        The majority (vote count and tie coin) is computed once for the
        whole plan.  Then each batch is charged on its own platform's
        ledger, one charge per batch in batch order — so a tenant
        ledger shared by several batches accumulates exactly as under
        one-at-a-time service — before that platform's counters move.
        A batch whose charge raises :class:`CostCapError` keeps the
        error to itself: its counters and the pool's per-worker tallies
        do not move, and the later batches still settle.  The tallies
        of the charged batches are added once at the end.

        Returns one entry per batch: ``(answers, report)``, or the
        ``CostCapError`` that refused it.  A batch with ``tasks`` gets
        the full per-judgment audit trail (judgment log, per-task
        reports, listed answers) — the ``submit_batch`` contract; the
        fused scheduler path, which never reads them, skips those
        allocations and gets a report with the aggregate totals.
        """
        workers = pool.workers
        n_workers = len(workers)
        first_wins = raw ^ plan.flip

        # Majority answers; ties use the judgment block's spare coin
        # (the task's first judgment), never the platform RNG.
        votes_first = np.bincount(plan.task_of[first_wins], minlength=plan.n_tasks)
        first_row = np.cumsum(plan.required) - plan.required
        tie_coin = plan.uniforms[first_row, 3] < 0.5
        answers = np.where(
            2 * votes_first == plan.required, tie_coin, 2 * votes_first > plan.required
        )

        # Bookkeeping parity with the step loop: charges, physical
        # steps, per-worker tallies, and the audit log all match what
        # an all-active round-robin collection would record.
        settled: list[tuple[np.ndarray, BatchReport] | CostCapError] = []
        charged = np.ones(plan.n_judgments, dtype=bool)
        for b, batch in enumerate(plan.batches):
            platform = batch.platform
            t0, t1 = plan.task_bounds[b], plan.task_bounds[b + 1]
            q0, q1 = plan.judgment_bounds[b], plan.judgment_bounds[b + 1]
            n_judgments = q1 - q0
            try:
                platform.ledger.charge(pool.name, n_judgments, pool.cost_per_judgment)
            except CostCapError as exc:
                settled.append(exc)
                charged[q0:q1] = False
                continue
            physical_steps = -(-n_judgments // n_workers)
            platform.physical_steps_total += physical_steps
            platform.fast_batches_total += 1
            answers_list: list[bool] = []
            task_reports: list[TaskReport] = []
            if batch.tasks is not None:
                tasks = batch.tasks
                steps = np.arange(n_judgments) // n_workers + 1
                worker_ids = np.array([w.worker_id for w in workers], dtype=np.intp)
                judgment_workers = worker_ids[plan.worker_pos[q0:q1]]
                task_of = plan.task_of[q0:q1] - t0
                platform.judgment_log.extend(
                    Judgment(
                        task_id=tasks[task_of[q]].task_id,
                        worker_id=int(judgment_workers[q]),
                        first_wins=bool(first_wins[q0 + q]),
                        physical_step=int(steps[q]),
                        is_gold=False,
                    )
                    for q in range(n_judgments)
                )
                answers_list = answers[t0:t1].tolist()
                task_reports = [
                    TaskReport(
                        task_id=task.task_id,
                        status="ok",
                        reason="",
                        judgments_kept=task.required_judgments,
                        required_judgments=task.required_judgments,
                        attempts_failed=0,
                    )
                    for task in tasks
                ]
            if platform.tracer.enabled:
                platform.tracer.event(
                    "platform_batch",
                    pool=pool.name,
                    tasks=t1 - t0,
                    physical_steps=physical_steps,
                    judgments_collected=n_judgments,
                    judgments_discarded=0,
                    workers_banned=0,
                    faults_injected=0,
                    tasks_degraded=0,
                    fast_path=True,
                )
            report = BatchReport(
                answers=answers_list,
                physical_steps=physical_steps,
                judgments_collected=n_judgments,
                judgments_discarded=0,
                workers_banned=[],
                task_reports=task_reports,
                faults_injected=0,
                judgments_malformed=0,
                judgments_lost_late=0,
                retries=0,
            )
            settled.append((answers[t0:t1], report))
        per_worker = np.bincount(plan.worker_pos[charged], minlength=n_workers)
        for worker, count in zip(workers, per_worker.tolist()):
            worker.judgments_made += count
        return settled

    # ------------------------------------------------------------------
    # Batch execution internals
    # ------------------------------------------------------------------
    def _run_assignment_pass(
        self,
        pool: WorkerPool,
        active: list[SimulatedWorker],
        open_tasks: list[ComparisonTask],
        state: _BatchState,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """One physical step's worth of assignments for one pool."""
        for worker in active:
            if worker.banned:
                continue
            if self.gold is not None and self.gold.should_inject(self.rng):
                newly_banned = self._run_gold_probe(pool, worker, physical_steps)
                if newly_banned:
                    state.banned_ids.append(worker.worker_id)
                    state.discarded += self._discard_judgments(worker.worker_id, state)
                continue
            task = self._next_task_for(worker, open_tasks, state, physical_steps)
            if task is None:
                continue
            fault = (
                plan.roll_assignment(self.rng)
                if plan is not None and plan.has_assignment_faults
                else None
            )
            if fault is None:
                judgment = self._collect_judgment(pool, worker, task, physical_steps)
                state.kept[task.task_id].append(judgment)
                state.judged_by[task.task_id].add(worker.worker_id)
                continue
            self._apply_assignment_fault(
                fault, pool, worker, task, state, plan, policy, physical_steps
            )

    def _apply_assignment_fault(
        self,
        fault: str,
        pool: WorkerPool,
        worker: SimulatedWorker,
        task: ComparisonTask,
        state: _BatchState,
        plan: FaultPlan,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Play out one rolled fault on one assignment."""
        state.faults += 1
        self.faults_injected_total += 1
        if self.tracer.enabled:
            self.tracer.event(
                "fault_injected",
                pool=pool.name,
                worker=worker.worker_id,
                task=task.task_id,
                fault=fault,
            )
        if fault == "straggle":
            # The judgment is produced (and paid) now but lands late;
            # the worker is committed, so she is never double-assigned.
            judgment = self._collect_judgment(pool, worker, task, physical_steps)
            state.judged_by[task.task_id].add(worker.worker_id)
            state.pending.append((physical_steps + plan.straggle_steps, judgment))
            return
        if fault == "malformed":
            # Paid work, unusable answer: judge (consuming the worker's
            # RNG draws), charge, then discard the judgment.
            self._collect_judgment(pool, worker, task, physical_steps)
            state.judged_by[task.task_id].add(worker.worker_id)
            state.malformed += 1
        # abandon: no judgment, no charge; the worker may retry later.
        self._record_failure(task, state, policy, physical_steps)

    def _record_failure(
        self,
        task: ComparisonTask,
        state: _BatchState,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Count a failed assignment; back off or settle the task."""
        state.failures[task.task_id] += 1
        failures = state.failures[task.task_id]
        if policy.attempts_exhausted(failures):
            state.settle(task, "retries_exhausted")
            return
        state.retries += 1
        self.retries_total += 1
        backoff = policy.backoff_steps(failures)
        if backoff > 0:
            state.not_before[task.task_id] = physical_steps + backoff
        if self.tracer.enabled:
            self.tracer.event(
                "task_retry",
                task=task.task_id,
                failures=failures,
                not_before=state.not_before.get(task.task_id, physical_steps),
            )

    def _run_fallback_pass(
        self,
        pool: WorkerPool,
        fallback: WorkerPool,
        state: _BatchState,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        physical_steps: int,
    ) -> None:
        """Serve primary-starved tasks from the fallback pool."""
        starved = [
            t
            for t in state.open_tasks()
            if self._eligible_count(pool, t, state) + state.pending_for(t.task_id)
            < state.deficit(t)
        ]
        if not starved:
            return
        active = self._sample_active(fallback, plan, state, physical_steps)
        if not active:
            return
        self.rng.shuffle(active)  # type: ignore[arg-type]
        self._run_assignment_pass(
            fallback, active, starved, state, plan, policy, physical_steps
        )

    def _deliver_stragglers(self, state: _BatchState, physical_steps: int) -> None:
        """Land matured straggler judgments; drop ones whose task settled."""
        if not state.pending:
            return
        still_pending: list[tuple[int, Judgment]] = []
        for arrival, judgment in state.pending:
            if arrival > physical_steps:
                still_pending.append((arrival, judgment))
                continue
            task_id = judgment.task_id
            task = next(t for t in state.tasks if t.task_id == task_id)
            if (
                task_id in state.settled
                or len(state.kept[task_id]) >= task.required_judgments
            ):
                state.lost_late += 1
            else:
                state.kept[task_id].append(judgment)
        state.pending = still_pending

    def _settle_unsatisfiable(
        self, state: _BatchState, pool: WorkerPool, fallback: WorkerPool | None
    ) -> None:
        """Settle tasks no remaining workforce can ever complete.

        Mid-batch gold bans can drop the *unbanned* worker count below a
        task's outstanding requirement; the seed platform then spun
        until the stall guard fired, discarding everything.  Detect it
        and settle with the judgments already kept instead.
        """
        for task in state.open_tasks():
            eligible = self._eligible_count(pool, task, state)
            if fallback is not None:
                eligible += self._eligible_count(fallback, task, state)
            if eligible + state.pending_for(task.task_id) < state.deficit(task):
                state.settle(task, "pool_exhausted")

    def _eligible_count(
        self, pool: WorkerPool, task: ComparisonTask, state: _BatchState
    ) -> int:
        """Unbanned workers that could still judge ``task``."""
        judged = state.judged_by[task.task_id]
        return sum(
            1
            for w in pool.workers
            if not w.banned and w.worker_id not in judged
        )

    def _sample_active(
        self,
        pool: WorkerPool,
        plan: FaultPlan | None,
        state: _BatchState,
        physical_steps: int,
    ) -> list[SimulatedWorker]:
        """Sample ``W_t``, excluding workers inside an offline window."""
        if plan is None or plan.offline_rate <= 0.0:
            return pool.sample_active(self.rng)
        online: list[SimulatedWorker] = []
        for worker in pool.active_members:
            if state.offline_until.get(worker.worker_id, 0) > physical_steps:
                continue
            if plan.roll_offline(self.rng):
                state.offline_until[worker.worker_id] = (
                    physical_steps + plan.offline_steps
                )
                state.faults += 1
                self.faults_injected_total += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "fault_injected",
                        pool=pool.name,
                        worker=worker.worker_id,
                        task=-1,
                        fault="offline",
                    )
                continue
            online.append(worker)
        if pool.availability >= 1.0:
            return online
        mask = self.rng.random(len(online)) < pool.availability
        return [w for w, is_active in zip(online, mask) if is_active]

    def _settle_remaining(self, state: _BatchState, reason: str) -> None:
        """Settle every still-open task as degraded with ``reason``."""
        for task in state.open_tasks():
            state.settle(task, reason)
        if state.pending:
            state.lost_late += len(state.pending)
            state.pending = []

    def _flush_judgments(self, state: _BatchState) -> None:
        """Append every kept judgment to the platform audit log."""
        for task in state.tasks:
            self.judgment_log.extend(state.kept[task.task_id])

    def _settle_batch(
        self, state: _BatchState, pool_name: str, physical_steps: int
    ) -> BatchReport:
        """Answers, per-task reports, telemetry — the batch's epilogue."""
        answers = [
            self._majority_answer(state.kept[task.task_id]) for task in state.tasks
        ]
        collected = sum(len(v) for v in state.kept.values())
        self._flush_judgments(state)
        task_reports = [
            TaskReport(
                task_id=task.task_id,
                status="degraded" if task.task_id in state.settled else "ok",
                reason=state.settled.get(task.task_id, ""),
                judgments_kept=len(state.kept[task.task_id]),
                required_judgments=task.required_judgments,
                attempts_failed=state.failures[task.task_id],
            )
            for task in state.tasks
        ]
        degraded = [t for t in task_reports if t.status == "degraded"]
        self.tasks_degraded_total += len(degraded)
        if self.tracer.enabled:
            self.tracer.event(
                "platform_batch",
                pool=pool_name,
                tasks=len(state.tasks),
                physical_steps=physical_steps,
                judgments_collected=collected,
                judgments_discarded=state.discarded,
                workers_banned=len(state.banned_ids),
                faults_injected=state.faults,
                tasks_degraded=len(degraded),
                fast_path=False,
            )
            if degraded:
                reasons = sorted({t.reason for t in degraded})
                self.tracer.event(
                    "batch_degraded",
                    pool=pool_name,
                    tasks_degraded=len(degraded),
                    reasons=reasons,
                    judgments_kept=sum(t.judgments_kept for t in degraded),
                )
        return BatchReport(
            answers=answers,
            physical_steps=physical_steps,
            judgments_collected=collected,
            judgments_discarded=state.discarded,
            workers_banned=state.banned_ids,
            task_reports=task_reports,
            faults_injected=state.faults,
            judgments_malformed=state.malformed,
            judgments_lost_late=state.lost_late,
            retries=state.retries,
        )

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _pool(self, pool_name: str) -> WorkerPool:
        try:
            return self.pools[pool_name]
        except KeyError:
            raise KeyError(
                f"unknown pool {pool_name!r}; available: {sorted(self.pools)}"
            ) from None

    def _fallback_pool(
        self, pool_name: str, policy: RetryPolicy
    ) -> WorkerPool | None:
        if policy.fallback_pool is None or policy.fallback_pool == pool_name:
            return None
        return self._pool(policy.fallback_pool)

    def _next_task_for(
        self,
        worker: SimulatedWorker,
        open_tasks: list[ComparisonTask],
        state: _BatchState,
        physical_steps: int,
    ) -> ComparisonTask | None:
        """Most judgment-starved assignable task; RNG breaks ties.

        A deterministic first-wins tie break would bias collection
        toward early list positions, so equal-deficit candidates are
        drawn uniformly (no RNG is consumed when there is no tie).
        """
        best: list[ComparisonTask] = []
        best_deficit = 0
        for task in open_tasks:
            if task.task_id in state.settled:
                continue
            if worker.worker_id in state.judged_by[task.task_id]:
                continue
            if state.not_before.get(task.task_id, 0) > physical_steps:
                continue
            deficit = state.deficit(task)
            if deficit > best_deficit:
                best = [task]
                best_deficit = deficit
            elif deficit == best_deficit and deficit > 0:
                best.append(task)
        if not best:
            return None
        if len(best) == 1:
            return best[0]
        return best[int(self.rng.integers(len(best)))]

    def _collect_judgment(
        self,
        pool: WorkerPool,
        worker: SimulatedWorker,
        task: ComparisonTask,
        physical_step: int,
    ) -> Judgment:
        """Ask one worker one task, with randomised presentation order."""
        if not self.ledger.can_afford(pool.cost_per_judgment):
            raise CostCapError(
                label=pool.name,
                attempted=pool.cost_per_judgment,
                cap=float(self.ledger.hard_cap),  # type: ignore[arg-type]
                spent=self.ledger.total_cost,
            )
        flip = bool(self.rng.random() < 0.5)
        if flip:
            raw = worker.judge(
                task.value_second, task.value_first, self.rng, task.second, task.first
            )
            first_wins = not raw
        else:
            first_wins = worker.judge(
                task.value_first, task.value_second, self.rng, task.first, task.second
            )
        self.ledger.charge(pool.name, 1, pool.cost_per_judgment)
        return Judgment(
            task_id=task.task_id,
            worker_id=worker.worker_id,
            first_wins=first_wins,
            physical_step=physical_step,
            is_gold=False,
        )

    def _run_gold_probe(
        self, pool: WorkerPool, worker: SimulatedWorker, physical_step: int
    ) -> bool:
        """Send the worker a gold pair; return True if she got banned."""
        assert self.gold is not None
        if not self.ledger.can_afford(pool.cost_per_judgment):
            raise CostCapError(
                label=f"gold:{pool.name}",
                attempted=pool.cost_per_judgment,
                cap=float(self.ledger.hard_cap),  # type: ignore[arg-type]
                spent=self.ledger.total_cost,
            )
        pair = self.gold.sample_pair(self.rng)
        flip = bool(self.rng.random() < 0.5)
        if flip:
            raw = worker.judge(
                pair.value_second, pair.value_first, self.rng, pair.second, pair.first
            )
            first_wins = not raw
        else:
            first_wins = worker.judge(
                pair.value_first, pair.value_second, self.rng, pair.first, pair.second
            )
        self.ledger.charge(f"gold:{pool.name}", 1, pool.cost_per_judgment)
        correct = first_wins == pair.first_wins
        return self.gold.record_and_check(worker, correct)

    def _discard_judgments(self, worker_id: int, state: _BatchState) -> int:
        """Drop all judgments of a banned worker; return the count.

        The affected tasks fall below their required judgment count and
        will be re-collected from other workers in later physical steps
        (the banned worker stays recorded in ``judged_by`` so she is
        never re-assigned).  In-flight straggler judgments of the
        banned worker are dropped too.
        """
        dropped = 0
        for task_id, judgments in state.kept.items():
            before = len(judgments)
            state.kept[task_id] = [j for j in judgments if j.worker_id != worker_id]
            dropped += before - len(state.kept[task_id])
        if state.pending:
            before = len(state.pending)
            state.pending = [
                (a, j) for a, j in state.pending if j.worker_id != worker_id
            ]
            dropped += before - len(state.pending)
        return dropped

    def _majority_answer(self, judgments: list[Judgment]) -> bool:
        """Majority of kept judgments; ties broken by a fair coin."""
        first_votes = sum(1 for j in judgments if j.first_wins)
        second_votes = len(judgments) - first_votes
        if first_votes == second_votes:
            return bool(self.rng.random() < 0.5)
        return first_votes > second_votes
