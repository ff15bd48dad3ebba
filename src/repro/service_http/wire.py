"""The versioned wire shapes of the serving layer.

Every request and response body the HTTP API speaks is one of these
dataclasses, stamped with the ``repro.service/v1`` schema
(:data:`~repro.jobs.WIRE_SCHEMA`) and serialized **only** through
:mod:`repro.service_http.codec`.  The same shapes are consumed
verbatim by the ``repro-serve`` CLI, the async
:class:`~repro.service_http.client.ServiceClient`, and the
``http_load`` benchmark's load generator — one codec, one schema,
three frontends.

The job *result* payload is not defined here: it is
:meth:`repro.jobs.CrowdJobResult.to_dict`, shared with the in-process
API, which is what makes an HTTP-submitted job's result directly
comparable (bit-identical) to the same job run through ``repro.api``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..jobs import (
    WIRE_SCHEMA,
    CrowdMaxJob,
    CrowdTopKJob,
    JobPhaseConfig,
    ResiliencePolicy,
)
from .errors import InvalidRequestError

__all__ = [
    "WIRE_SCHEMA",
    "JOB_STATES",
    "SETTLED_STATES",
    "JobSpec",
    "JobView",
    "ResultEnvelope",
    "EventRecord",
    "HealthView",
]

#: Lifecycle of a wire job.  ``queued`` → ``running`` → one of the
#: settled states, which mirror
#: :class:`~repro.scheduler.engine.JobOutcome` statuses exactly.
JOB_STATES: tuple[str, ...] = (
    "queued",
    "running",
    "ok",
    "budget_exceeded",
    "cancelled",
    "failed",
)

#: The terminal states: once here, a job never changes again.
SETTLED_STATES: frozenset[str] = frozenset(
    {"ok", "budget_exceeded", "cancelled", "failed"}
)


def _require_schema(payload: Mapping[str, Any], what: str) -> None:
    schema = payload.get("schema")
    if schema != WIRE_SCHEMA:
        raise InvalidRequestError(
            f"{what}: schema {schema!r} is not {WIRE_SCHEMA!r}"
        )


@dataclass(frozen=True)
class JobSpec:
    """A submittable crowd query, as it travels over ``POST /v1/jobs``.

    The wire twin of constructing a :class:`~repro.jobs.CrowdMaxJob` /
    :class:`~repro.jobs.CrowdTopKJob` in-process: ``values`` is the
    item catalog, the ``phase*`` fields bind server-side pools, and
    ``seed`` pins the job's randomness — the scheduler splits it into
    the standard (algorithm, platform) stream pair, so the same spec
    executed in-process with the same split is bit-identical.
    """

    values: tuple[float, ...]
    u_n: int
    seed: int
    kind: str = "max"
    k: int = 1
    phase1_pool: str = "crowd"
    phase2_pool: str = "experts"
    phase1_redundancy: int = 1
    phase2_redundancy: int = 1
    budget_cap: float | None = None
    hard_cap: float | None = None
    fallback_redundancy: int | None = None

    _FIELDS = frozenset(
        {
            "schema",
            "values",
            "u_n",
            "seed",
            "kind",
            "k",
            "phase1_pool",
            "phase2_pool",
            "phase1_redundancy",
            "phase2_redundancy",
            "budget_cap",
            "hard_cap",
            "fallback_redundancy",
        }
    )

    def to_dict(self) -> dict[str, Any]:
        """The schema-stamped submission body (``POST /v1/jobs``)."""
        return {
            "schema": WIRE_SCHEMA,
            "values": [float(v) for v in self.values],
            "u_n": int(self.u_n),
            "seed": int(self.seed),
            "kind": self.kind,
            "k": int(self.k),
            "phase1_pool": self.phase1_pool,
            "phase2_pool": self.phase2_pool,
            "phase1_redundancy": int(self.phase1_redundancy),
            "phase2_redundancy": int(self.phase2_redundancy),
            "budget_cap": None if self.budget_cap is None else float(self.budget_cap),
            "hard_cap": None if self.hard_cap is None else float(self.hard_cap),
            "fallback_redundancy": (
                None
                if self.fallback_redundancy is None
                else int(self.fallback_redundancy)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Validate and decode a submission body.

        The wire is strict: unknown keys, a missing schema stamp, or
        out-of-domain fields raise :class:`InvalidRequestError` (a
        400), never a silent default — version skew must fail loudly.
        """
        if not isinstance(payload, Mapping):
            raise InvalidRequestError("job spec must be a JSON object")
        _require_schema(payload, "job spec")
        unknown = sorted(set(payload) - cls._FIELDS)
        if unknown:
            raise InvalidRequestError(f"job spec has unknown fields: {unknown}")
        try:
            values = tuple(float(v) for v in payload["values"])
            u_n = int(payload["u_n"])
            seed = int(payload["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequestError(
                f"job spec needs numeric 'values', 'u_n', and 'seed': {exc}"
            ) from exc
        if len(values) < 2:
            raise InvalidRequestError("job spec needs at least 2 values")
        if u_n < 1:
            raise InvalidRequestError("u_n must be at least 1")
        if seed < 0:
            raise InvalidRequestError("seed must be non-negative")
        kind = payload.get("kind", "max")
        if kind not in ("max", "topk"):
            raise InvalidRequestError(f"unknown job kind {kind!r}")
        try:
            k = int(payload.get("k", 1))
            phase1_redundancy = int(payload.get("phase1_redundancy", 1))
            phase2_redundancy = int(payload.get("phase2_redundancy", 1))
            budget_cap = payload.get("budget_cap")
            hard_cap = payload.get("hard_cap")
            fallback = payload.get("fallback_redundancy")
            spec = cls(
                values=values,
                u_n=u_n,
                seed=seed,
                kind=str(kind),
                k=k,
                phase1_pool=str(payload.get("phase1_pool", "crowd")),
                phase2_pool=str(payload.get("phase2_pool", "experts")),
                phase1_redundancy=phase1_redundancy,
                phase2_redundancy=phase2_redundancy,
                budget_cap=None if budget_cap is None else float(budget_cap),
                hard_cap=None if hard_cap is None else float(hard_cap),
                fallback_redundancy=None if fallback is None else int(fallback),
            )
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"malformed job spec field: {exc}") from exc
        if spec.kind == "topk" and spec.k < 1:
            raise InvalidRequestError("k must be at least 1 for topk jobs")
        if spec.phase1_redundancy < 1 or spec.phase2_redundancy < 1:
            raise InvalidRequestError("phase redundancy must be at least 1")
        return spec

    def build_job(self) -> CrowdMaxJob:
        """The in-process job object this spec describes.

        Used identically by the server's runner and by the parity gate
        (which executes the same object on a private platform), so a
        spec can never mean two different computations.  Constructor
        ``ValueError``s (domain violations the wire checks could not
        see) surface as :class:`InvalidRequestError`.
        """
        instance = np.asarray(self.values, dtype=float)
        phase1 = JobPhaseConfig(
            pool=self.phase1_pool,
            judgments_per_comparison=self.phase1_redundancy,
        )
        phase2 = JobPhaseConfig(
            pool=self.phase2_pool,
            judgments_per_comparison=self.phase2_redundancy,
        )
        resilience = (
            None
            if self.fallback_redundancy is None
            else ResiliencePolicy(fallback_redundancy=self.fallback_redundancy)
        )
        try:
            if self.kind == "topk":
                return CrowdTopKJob(
                    instance,
                    u_n=self.u_n,
                    k=self.k,
                    phase1=phase1,
                    phase2=phase2,
                    budget_cap=self.budget_cap,
                    hard_cap=self.hard_cap,
                    resilience=resilience,
                )
            return CrowdMaxJob(
                instance,
                u_n=self.u_n,
                phase1=phase1,
                phase2=phase2,
                budget_cap=self.budget_cap,
                hard_cap=self.hard_cap,
                resilience=resilience,
            )
        except ValueError as exc:
            raise InvalidRequestError(f"invalid job spec: {exc}") from exc


@dataclass(frozen=True)
class JobView:
    """Status of one job, as ``GET /v1/jobs/{id}`` reports it."""

    job_id: str
    tenant: str
    kind: str
    status: str
    seed: int
    generation: int | None = None
    cost: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """The schema-stamped status body (``GET /v1/jobs/{id}``)."""
        return {
            "schema": WIRE_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "status": self.status,
            "seed": int(self.seed),
            "generation": self.generation,
            "cost": None if self.cost is None else float(self.cost),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobView":
        _require_schema(payload, "job view")
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            kind=str(payload["kind"]),
            status=str(payload["status"]),
            seed=int(payload["seed"]),
            generation=payload.get("generation"),
            cost=payload.get("cost"),
        )


@dataclass(frozen=True)
class ResultEnvelope:
    """Body of ``GET /v1/jobs/{id}/result`` once a job settled.

    ``result`` is the :meth:`CrowdJobResult.to_dict` payload for an
    ``"ok"`` settle; ``error`` is the registry envelope's ``error``
    object otherwise (for ``budget_exceeded`` it carries the partial
    result in ``detail``).
    """

    job_id: str
    status: str
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The schema-stamped result body (``GET /v1/jobs/{id}/result``)."""
        return {
            "schema": WIRE_SCHEMA,
            "job_id": self.job_id,
            "status": self.status,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultEnvelope":
        _require_schema(payload, "result envelope")
        return cls(
            job_id=str(payload["job_id"]),
            status=str(payload["status"]),
            result=payload.get("result"),
            error=payload.get("error"),
        )


@dataclass(frozen=True)
class EventRecord:
    """One line of the ``GET /v1/jobs/{id}/events`` ndjson stream.

    ``kind`` and ``fields`` are the telemetry record bridged from the
    scheduler's event bus (``job_admitted``, ``job_settled``, ...)
    plus the service's own lifecycle kinds (``job_queued``,
    ``job_cancelled``); ``seq`` is the per-job stream position, so a
    client that reconnects can deduplicate.
    """

    job_id: str
    seq: int
    kind: str
    fields: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """One schema-stamped ndjson line of the event stream."""
        return {
            "schema": WIRE_SCHEMA,
            "job_id": self.job_id,
            "seq": int(self.seq),
            "kind": self.kind,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EventRecord":
        _require_schema(payload, "event record")
        return cls(
            job_id=str(payload["job_id"]),
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            fields=dict(payload.get("fields") or {}),
        )


@dataclass(frozen=True)
class HealthView:
    """Body of ``GET /healthz`` (unauthenticated liveness probe)."""

    status: str
    queued: int
    running: int
    settled: int
    generations: int

    def to_dict(self) -> dict[str, Any]:
        """The schema-stamped liveness body (``GET /healthz``)."""
        return {
            "schema": WIRE_SCHEMA,
            "status": self.status,
            "queued": int(self.queued),
            "running": int(self.running),
            "settled": int(self.settled),
            "generations": int(self.generations),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HealthView":
        _require_schema(payload, "health view")
        return cls(
            status=str(payload["status"]),
            queued=int(payload["queued"]),
            running=int(payload["running"]),
            settled=int(payload["settled"]),
            generations=int(payload["generations"]),
        )
