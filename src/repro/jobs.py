"""High-level job API: crowd queries the CrowdDB way.

Section 1: "Our algorithm can be used inside systems like CrowdDB [14]
to answer a wider range of queries using the crowd."  This module is
that integration surface — a declarative job object per query type
(MAX, TOP-k) that a host system can configure, submit against a
:class:`~repro.platform.platform.CrowdPlatform`, and settle, with
budget caps enforced before any money is spent.

A job binds together:

* the instance (what is being asked about),
* the platform pools to use for each phase (and their redundancy),
* the algorithm parameters (``u_n``, phase-2 choice, ``k``), and
* budget enforcement on two levels: a worst-case cap checked *up
  front* (Theorem 1's envelopes, rejecting a job before any money is
  spent) and a *mid-flight* hard cap enforced by the platform's
  :class:`~repro.platform.accounting.CostLedger` — when a judgment
  would push the bill past it, the job stops with a typed
  :class:`BudgetExceededError` carrying a partial
  :class:`CrowdJobResult` (survivors so far, money actually spent).

Every job class speaks one uniform two-step protocol::

    result = job.submit(platform, rng).settle()

:meth:`CrowdMaxJob.submit` performs the up-front worst-case budget
check and binds the job to a platform; :meth:`CrowdMaxJob.settle` runs
it to completion.  The split is what lets the multi-job engine in
:mod:`repro.scheduler` admit many jobs and drive them cooperatively
against shared pools.  :meth:`CrowdMaxJob.execute` remains as the
one-call convenience (``submit(...).settle()``).

Graceful degradation is a *policy*, not a subclass: pass
``resilience=ResiliencePolicy(...)`` and phase 2 falls back to
high-redundancy naive judgments when the expert pool is exhausted or
banned out, flagging the result ``degraded``.  See
``docs/RELIABILITY.md``.

This module holds the **in-process** job layer; the HTTP serving layer
lives in :mod:`repro.service_http` and speaks the same result shape
over the wire — :meth:`CrowdJobResult.to_dict` /
:meth:`CrowdJobResult.from_dict` are the stable ``repro.service/v1``
round-trip both sides share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal, Mapping

import numpy as np

from .core.bounds import (
    all_play_all_comparisons,
    filter_comparisons_upper_bound,
    survivor_upper_bound,
    two_maxfind_comparisons_upper_bound,
)
from .core.filter_phase import filter_candidates_steps
from .core.instance import ProblemInstance
from .core.oracle import ComparisonOracle
from .core.steps import Steps, drive_steps
from .core.tournament import play_all_play_all_steps
from .core.two_maxfind import two_maxfind_steps
from .platform.errors import CostCapError, DegradedBatchError
from .platform.oracle_adapter import PlatformWorkerModel
from .platform.platform import CrowdPlatform
from .telemetry import Tracer, resolve_tracer

__all__ = [
    "WIRE_SCHEMA",
    "JobPhaseConfig",
    "ResiliencePolicy",
    "CrowdJobResult",
    "BudgetExceededError",
    "CrowdMaxJob",
    "CrowdTopKJob",
]

#: Schema stamp carried by every serialized job payload — results,
#: error envelopes, and the HTTP wire dataclasses of
#: :mod:`repro.service_http` all declare this version so a consumer can
#: reject payloads from an incompatible release instead of
#: mis-parsing them.
WIRE_SCHEMA = "repro.service/v1"


@dataclass(frozen=True)
class JobPhaseConfig:
    """How one phase talks to the platform."""

    pool: str
    judgments_per_comparison: int = 1

    def __post_init__(self) -> None:
        if self.judgments_per_comparison < 1:
            raise ValueError("judgments_per_comparison must be at least 1")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Graceful-degradation policy for phase 2.

    When the expert pool is exhausted (too few unbanned experts to
    deliver the configured redundancy) or collapses mid-phase (a batch
    settles degraded), phase 2 falls back to the phase-1 pool at
    ``fallback_redundancy`` independent judgments per comparison,
    majority-voted — the Section 4 amplification mechanism — and the
    result is flagged ``degraded`` with reason
    ``"expert_pool_exhausted"``.  See ``docs/RELIABILITY.md``.
    """

    fallback_redundancy: int = 5

    def __post_init__(self) -> None:
        if self.fallback_redundancy < 1:
            raise ValueError("fallback_redundancy must be at least 1")


@dataclass
class CrowdJobResult:
    """Outcome of a settled crowd job.

    ``degraded`` marks results produced under duress — the expert pool
    collapsed and phase 2 fell back to redundant naive judgments, or
    the job was cut short by a budget breach (in which case this object
    rides on the :class:`BudgetExceededError` as the partial result).
    """

    answer: list[int]
    survivors: np.ndarray
    total_cost: float
    naive_comparisons: int
    expert_comparisons: int
    logical_steps: int
    physical_steps: int
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def winner(self) -> int:
        return self.answer[0]

    def to_dict(self) -> dict[str, Any]:
        """The stable ``repro.service/v1`` wire form of this result.

        Every field is reduced to a JSON-native type — ``survivors``
        (an ``np.intp`` array) becomes a plain list of ints — and the
        payload is stamped with :data:`WIRE_SCHEMA`.  The round-trip
        ``CrowdJobResult.from_dict(result.to_dict())`` is exact: two
        results are bit-identical iff their ``to_dict()`` forms are
        equal, which is how the HTTP layer's parity gate compares an
        over-the-wire result against an in-process run.
        """
        return {
            "schema": WIRE_SCHEMA,
            "answer": [int(a) for a in self.answer],
            "survivors": [int(s) for s in self.survivors],
            "total_cost": float(self.total_cost),
            "naive_comparisons": int(self.naive_comparisons),
            "expert_comparisons": int(self.expert_comparisons),
            "logical_steps": int(self.logical_steps),
            "physical_steps": int(self.physical_steps),
            "degraded": bool(self.degraded),
            "degraded_reason": str(self.degraded_reason),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CrowdJobResult":
        """Rebuild a result from its :meth:`to_dict` form.

        Raises ``ValueError`` on a missing or unknown ``schema`` stamp
        so version skew fails loudly instead of mis-parsing.
        """
        schema = payload.get("schema")
        if schema != WIRE_SCHEMA:
            raise ValueError(
                f"cannot decode CrowdJobResult: schema {schema!r} is not "
                f"{WIRE_SCHEMA!r}"
            )
        return cls(
            answer=[int(a) for a in payload["answer"]],
            survivors=np.asarray(payload["survivors"], dtype=np.intp),
            total_cost=float(payload["total_cost"]),
            naive_comparisons=int(payload["naive_comparisons"]),
            expert_comparisons=int(payload["expert_comparisons"]),
            logical_steps=int(payload["logical_steps"]),
            physical_steps=int(payload["physical_steps"]),
            degraded=bool(payload["degraded"]),
            degraded_reason=str(payload["degraded_reason"]),
        )


class BudgetExceededError(RuntimeError):
    """The mid-flight hard cap stopped a job before it could finish.

    Unlike the up-front worst-case rejection (a ``ValueError`` before
    any money moves), this error fires *during* execution, and it
    preserves the work already paid for:

    Attributes
    ----------
    partial:
        A :class:`CrowdJobResult` with the survivors found so far, the
        money actually spent, and empty ``answer`` (no winner was
        settled); ``degraded_reason`` is ``"budget"``.
    cap:
        The hard cap that was enforced.
    spent:
        Ledger total at the moment of refusal (never above ``cap``).
    """

    def __init__(self, partial: CrowdJobResult, cap: float, spent: float):
        super().__init__(
            f"budget hard cap {cap:,.2f} reached after spending {spent:,.2f}; "
            f"partial result carries {len(partial.survivors)} survivors"
        )
        self.partial = partial
        self.cap = cap
        self.spent = spent

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the breach: cap, spend, and the partial result."""
        return {
            "schema": WIRE_SCHEMA,
            "cap": float(self.cap),
            "spent": float(self.spent),
            "partial": self.partial.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BudgetExceededError":
        """Rebuild the breach (partial result included) from the wire."""
        schema = payload.get("schema")
        if schema != WIRE_SCHEMA:
            raise ValueError(
                f"cannot decode BudgetExceededError: schema {schema!r} is "
                f"not {WIRE_SCHEMA!r}"
            )
        return cls(
            partial=CrowdJobResult.from_dict(payload["partial"]),
            cap=float(payload["cap"]),
            spent=float(payload["spent"]),
        )


@dataclass
class _JobMeter:
    """Per-run deltas against a shared platform (cost, steps)."""

    platform: CrowdPlatform
    start_cost: float = field(init=False)
    start_logical: int = field(init=False)
    start_physical: int = field(init=False)

    def __post_init__(self) -> None:
        self.start_cost = self.platform.ledger.total_cost
        self.start_logical = self.platform.logical_steps
        self.start_physical = self.platform.physical_steps_total

    @property
    def cost(self) -> float:
        return self.platform.ledger.total_cost - self.start_cost

    @property
    def logical(self) -> int:
        return self.platform.logical_steps - self.start_logical

    @property
    def physical(self) -> int:
        return self.platform.physical_steps_total - self.start_physical


class CrowdMaxJob:
    """A MAX query executed through a crowdsourcing platform.

    Parameters
    ----------
    instance:
        The items the query ranges over.
    u_n:
        The confusion parameter for the filtering phase.
    phase1, phase2:
        Pool bindings (phase 1 = cheap filtering pool, phase 2 = expert
        pool; phase 2 may point at the same pool with higher redundancy
        to emulate simulated experts).
    budget_cap:
        Hard monetary cap checked *up front*: the job refuses to start
        if the worst-case cost under Theorem 1's envelopes exceeds it.
    hard_cap:
        Mid-flight monetary cap for *this job's* spending: installed on
        the platform ledger for the duration of the run (tightening any
        cap already there, never loosening it).  A breach raises
        :class:`BudgetExceededError` with the partial result.
    resilience:
        Optional :class:`ResiliencePolicy`.  When set, phase 2 runs
        *strict* (a degraded expert batch surfaces as
        :class:`~repro.platform.errors.DegradedBatchError`) and falls
        back to amplified naive judgments instead of failing.
    """

    kind: Literal["max"] = "max"
    #: Telemetry span bracketing one settled run of this job kind.
    _span_name = "job.max"

    def __init__(
        self,
        instance: ProblemInstance | np.ndarray,
        u_n: int,
        phase1: JobPhaseConfig,
        phase2: JobPhaseConfig,
        budget_cap: float | None = None,
        hard_cap: float | None = None,
        resilience: ResiliencePolicy | None = None,
    ):
        if u_n < 1:
            raise ValueError("u_n must be at least 1")
        if hard_cap is not None and hard_cap <= 0:
            raise ValueError("hard_cap must be positive")
        self.instance = instance
        self.u_n = int(u_n)
        self.phase1 = phase1
        self.phase2 = phase2
        self.budget_cap = budget_cap
        self.hard_cap = hard_cap
        self.resilience = resilience
        #: ``(platform, rng, tracer)`` between submit() and settle().
        self._binding: tuple[CrowdPlatform, np.random.Generator, Tracer] | None = None
        # Set by _phase2 implementations that had to degrade.
        self._degraded_reason = ""
        self._fallback_comparisons = 0

    # ------------------------------------------------------------------
    # Worst-case budgeting
    # ------------------------------------------------------------------
    def _n(self) -> int:
        return len(
            self.instance.values
            if isinstance(self.instance, ProblemInstance)
            else self.instance
        )

    def _filter_u(self) -> int:
        """The (possibly inflated) confusion parameter for phase 1."""
        return self.u_n

    def worst_case_cost(self, platform: CrowdPlatform) -> float:
        """Theorem-1 worst-case bill against the platform's price list."""
        pool1 = platform.pools[self.phase1.pool]
        pool2 = platform.pools[self.phase2.pool]
        naive_wc = (
            filter_comparisons_upper_bound(self._n(), self._filter_u())
            * self.phase1.judgments_per_comparison
            * pool1.cost_per_judgment
        )
        expert_wc = (
            self._phase2_comparisons_upper_bound()
            * self.phase2.judgments_per_comparison
            * pool2.cost_per_judgment
        )
        return naive_wc + expert_wc

    def _phase2_comparisons_upper_bound(self) -> float:
        return float(
            two_maxfind_comparisons_upper_bound(survivor_upper_bound(self._filter_u()))
        )

    def _check_budget(self, platform: CrowdPlatform) -> None:
        if self.budget_cap is None:
            return
        worst = self.worst_case_cost(platform)
        if worst > self.budget_cap:
            raise ValueError(
                f"worst-case cost {worst:,.0f} exceeds the budget cap "
                f"{self.budget_cap:,.0f}; raise the cap, lower u_n, or use "
                "cheaper pools"
            )

    def _build_oracles(
        self,
        platform: CrowdPlatform,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
        expert_strict: bool = False,
    ) -> tuple[ComparisonOracle, ComparisonOracle]:
        pool1 = platform.pools[self.phase1.pool]
        pool2 = platform.pools[self.phase2.pool]
        naive_oracle = ComparisonOracle(
            self.instance,
            PlatformWorkerModel(
                platform,
                self.phase1.pool,
                judgments_per_task=self.phase1.judgments_per_comparison,
            ),
            rng,
            cost_per_comparison=(
                pool1.cost_per_judgment * self.phase1.judgments_per_comparison
            ),
            label=self.phase1.pool,
            tracer=tracer,
        )
        expert_oracle = ComparisonOracle(
            self.instance,
            PlatformWorkerModel(
                platform,
                self.phase2.pool,
                judgments_per_task=self.phase2.judgments_per_comparison,
                is_expert=True,
                strict=expert_strict,
            ),
            rng,
            cost_per_comparison=(
                pool2.cost_per_judgment * self.phase2.judgments_per_comparison
            ),
            label=self.phase2.pool,
            tracer=tracer,
        )
        return naive_oracle, expert_oracle

    # ------------------------------------------------------------------
    # Mid-flight budget plumbing
    # ------------------------------------------------------------------
    def _install_hard_cap(self, platform: CrowdPlatform, meter: _JobMeter) -> float | None:
        """Tighten the ledger cap for this run; return the previous cap."""
        previous = platform.ledger.hard_cap
        if self.hard_cap is not None:
            job_cap = meter.start_cost + self.hard_cap
            platform.ledger.hard_cap = (
                job_cap if previous is None else min(previous, job_cap)
            )
        return previous

    def _budget_exceeded(
        self,
        exc: CostCapError,
        meter: _JobMeter,
        survivors: np.ndarray,
        naive_oracle: ComparisonOracle,
        expert_oracle: ComparisonOracle,
    ) -> BudgetExceededError:
        """Wrap a refused charge into the job-level typed error."""
        partial = CrowdJobResult(
            answer=[],
            survivors=survivors,
            total_cost=meter.cost,
            naive_comparisons=naive_oracle.comparisons,
            expert_comparisons=expert_oracle.comparisons,
            logical_steps=meter.logical,
            physical_steps=meter.physical,
            degraded=True,
            degraded_reason="budget",
        )
        return BudgetExceededError(partial=partial, cap=exc.cap, spent=exc.spent)

    # ------------------------------------------------------------------
    # The uniform submit()/settle() protocol
    # ------------------------------------------------------------------
    def submit(
        self,
        platform: CrowdPlatform,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
    ) -> "CrowdMaxJob":
        """Validate and bind the job to a platform; returns the job.

        Performs the up-front worst-case budget check (rejecting the
        job with a ``ValueError`` before any money is spent) and
        records the execution binding consumed by :meth:`settle`.
        The identical signature across all job classes is the contract
        the :mod:`repro.scheduler` engine drives.
        """
        self._check_budget(platform)
        self._binding = (platform, rng, resolve_tracer(tracer))
        return self

    def settle(self) -> CrowdJobResult:
        """Run the previously submitted job to completion.

        Raises ``RuntimeError`` when called without a prior
        :meth:`submit`, :class:`BudgetExceededError` on a mid-flight
        hard-cap breach (carrying the partial result), and re-binds
        nothing — each settle consumes its binding.
        """
        return drive_steps(self.steps())

    def steps(self) -> Steps[CrowdJobResult]:
        """Step-generator form of :meth:`settle`.

        Runs the same pipeline, but every worker-model batch surfaces
        as a yielded :class:`~repro.core.steps.OracleCall` instead of a
        blocking platform call.  The multi-job scheduler drives this
        generator directly — one coroutine ticket per job, no thread —
        parking it whenever a call targets the job's platform and
        settling the batch through its cross-job fusion queue.
        ``drive_steps(job.steps())`` is bit-identical to the classic
        blocking :meth:`settle`.
        """
        if self._binding is None:
            raise RuntimeError("settle() requires a prior submit(platform, rng)")
        platform, rng, tracer = self._binding
        self._binding = None

        meter = _JobMeter(platform)
        self._degraded_reason = ""
        self._fallback_comparisons = 0
        previous_cap = self._install_hard_cap(platform, meter)

        naive_oracle, expert_oracle = self._build_oracles(
            platform, rng, tracer=tracer, expert_strict=self._expert_strict()
        )
        survivors = np.asarray([], dtype=np.intp)
        try:
            with tracer.span(self._span_name, **self._span_fields()):
                filter_result = yield from filter_candidates_steps(
                    naive_oracle, u_n=self._filter_u(), tracer=tracer
                )
                survivors = filter_result.survivors
                answer = yield from self._phase2_steps(
                    platform, expert_oracle, survivors, rng, tracer=tracer
                )
        except CostCapError as exc:
            raise self._budget_exceeded(
                exc, meter, survivors, naive_oracle, expert_oracle
            ) from exc
        finally:
            platform.ledger.hard_cap = previous_cap

        return CrowdJobResult(
            answer=answer,
            survivors=survivors,
            total_cost=meter.cost,
            naive_comparisons=naive_oracle.comparisons + self._fallback_comparisons,
            expert_comparisons=expert_oracle.comparisons,
            logical_steps=meter.logical,
            physical_steps=meter.physical,
            degraded=bool(self._degraded_reason),
            degraded_reason=self._degraded_reason,
        )

    def execute(
        self,
        platform: CrowdPlatform,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
    ) -> CrowdJobResult:
        """One-call convenience: ``submit(platform, rng).settle()``."""
        return self.submit(platform, rng, tracer=tracer).settle()

    # ------------------------------------------------------------------
    # Phase-2 template hooks
    # ------------------------------------------------------------------
    def _span_fields(self) -> dict[str, object]:
        return {"u_n": self.u_n, "budget_cap": self.budget_cap}

    def _expert_strict(self) -> bool:
        """Whether phase 2 should surface degraded batches as errors."""
        return self.resilience is not None

    def _phase2_steps(
        self,
        platform: CrowdPlatform,
        expert_oracle: ComparisonOracle,
        survivors: np.ndarray,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
    ) -> Steps[list[int]]:
        if len(survivors) == 1:
            return [int(survivors[0])]
        if self.resilience is None:
            return (
                yield from self._phase2_algorithm_steps(
                    expert_oracle, survivors, tracer
                )
            )
        pool2 = platform.pools[self.phase2.pool]
        healthy = len(pool2.active_members) >= self.phase2.judgments_per_comparison
        if healthy:
            try:
                return (
                    yield from self._phase2_algorithm_steps(
                        expert_oracle, survivors, tracer
                    )
                )
            except DegradedBatchError:
                pass  # expert pool collapsed mid-phase; degrade below
        return (yield from self._phase2_fallback_steps(platform, survivors, rng, tracer))

    def _phase2_algorithm_steps(
        self,
        expert_oracle: ComparisonOracle,
        survivors: np.ndarray,
        tracer: Tracer | None,
    ) -> Steps[list[int]]:
        """The phase-2 algorithm proper, on an already-built oracle."""
        result = yield from two_maxfind_steps(expert_oracle, survivors, tracer=tracer)
        return [result.winner]

    def _phase2_fallback_steps(
        self,
        platform: CrowdPlatform,
        survivors: np.ndarray,
        rng: np.random.Generator,
        tracer: Tracer | None,
    ) -> Steps[list[int]]:
        """Finish phase 2 on the naive pool with amplified redundancy."""
        assert self.resilience is not None
        self._degraded_reason = "expert_pool_exhausted"
        tracer = resolve_tracer(tracer)
        pool1 = platform.pools[self.phase1.pool]
        redundancy = max(
            1, min(self.resilience.fallback_redundancy, len(pool1.workers))
        )
        if tracer.enabled:
            tracer.event(
                "batch_degraded",
                pool=self.phase2.pool,
                scope="job",
                reasons=["expert_pool_exhausted"],
                fallback_pool=self.phase1.pool,
                fallback_redundancy=redundancy,
                survivors=len(survivors),
            )
        fallback_oracle = ComparisonOracle(
            self.instance,
            PlatformWorkerModel(
                platform, self.phase1.pool, judgments_per_task=redundancy
            ),
            rng,
            cost_per_comparison=pool1.cost_per_judgment * redundancy,
            label=self.phase1.pool,
            tracer=tracer,
        )
        answer = yield from self._phase2_algorithm_steps(
            fallback_oracle, survivors, tracer
        )
        self._fallback_comparisons = fallback_oracle.comparisons
        return answer


class CrowdTopKJob(CrowdMaxJob):
    """A TOP-k query executed through a crowdsourcing platform.

    Phase 1 filters with the inflated parameter ``u_n + k - 1`` (see
    :mod:`repro.core.topk`); phase 2 ranks the survivors with an expert
    all-play-all and returns the best ``k``.  Speaks the same
    :meth:`~CrowdMaxJob.submit` / :meth:`~CrowdMaxJob.settle` protocol
    as every other job class.
    """

    kind: Literal["topk"] = "topk"  # type: ignore[assignment]
    _span_name = "job.topk"

    def __init__(
        self,
        instance: ProblemInstance | np.ndarray,
        u_n: int,
        k: int,
        phase1: JobPhaseConfig,
        phase2: JobPhaseConfig,
        budget_cap: float | None = None,
        hard_cap: float | None = None,
        resilience: ResiliencePolicy | None = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        super().__init__(
            instance,
            u_n,
            phase1,
            phase2,
            budget_cap=budget_cap,
            hard_cap=hard_cap,
            resilience=resilience,
        )
        self.k = int(k)

    def _filter_u(self) -> int:
        return self.u_n + self.k - 1

    def _phase2_comparisons_upper_bound(self) -> float:
        return float(all_play_all_comparisons(survivor_upper_bound(self._filter_u())))

    def _span_fields(self) -> dict[str, object]:
        return {"u_n": self.u_n, "k": self.k}

    def _phase2_algorithm_steps(
        self,
        expert_oracle: ComparisonOracle,
        survivors: np.ndarray,
        tracer: Tracer | None,
    ) -> Steps[list[int]]:
        tournament = yield from play_all_play_all_steps(expert_oracle, survivors)
        order = np.argsort(-tournament.wins, kind="stable")
        return [int(e) for e in tournament.elements[order][: self.k]]
