"""An asyncio client for the ``repro.service/v1`` wire API.

Stdlib only, symmetric with the server: the same codec, the same wire
dataclasses, the same error registry.  A response's error envelope is
rehydrated into the *typed* exception its code names —
``budget_exceeded`` comes back as a real
:class:`~repro.jobs.BudgetExceededError` with the partial result
attached — so remote failures are handled with the same ``except``
clauses as in-process ones.  Codes that do not rehydrate (the
HTTP-layer ones, or anything unknown) raise
:class:`RemoteServiceError`, which carries the code and status.

The client opens one connection per request (``Connection: close``
semantics): the simplest thing that is fully correct for independent
request/response pairs over real sockets.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Mapping

from ..jobs import BudgetExceededError
from . import codec
from .wire import EventRecord, HealthView, JobSpec, JobView, ResultEnvelope

__all__ = ["RemoteServiceError", "ServiceResponse", "ServiceClient"]


class RemoteServiceError(Exception):
    """A wire error that has no richer typed rehydration.

    Lives here, not in :mod:`repro.service_http.errors`: it is a
    *client-side* wrapper around an envelope, not a wire code of its
    own — the registry's bijection (``FLOW004``) stays intact.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int,
        retry_after: float | None = None,
        detail: Mapping[str, Any] | None = None,
    ):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.status = status
        self.retry_after = retry_after
        self.detail = dict(detail) if detail else None


def error_from_envelope(status: int, envelope: Mapping[str, Any]) -> BaseException:
    """The typed exception a wire error envelope describes."""
    error = envelope.get("error") or {}
    code = str(error.get("code", "internal"))
    message = str(error.get("message", ""))
    detail = error.get("detail")
    if code == "budget_exceeded" and isinstance(detail, Mapping):
        try:
            return BudgetExceededError.from_dict(detail)
        except (KeyError, TypeError, ValueError):
            pass  # malformed detail: fall back to the generic wrapper
    return RemoteServiceError(
        code=code,
        message=message,
        status=status,
        retry_after=error.get("retry_after"),
        detail=detail if isinstance(detail, Mapping) else None,
    )


class ServiceResponse:
    """One decoded HTTP exchange."""

    def __init__(self, status: int, payload: dict[str, Any]):
        self.status = status
        self.payload = payload

    @property
    def ok(self) -> bool:
        return self.status < 400

    def raise_for_error(self) -> "ServiceResponse":
        """Raise the typed error this envelope describes (if any)."""
        if not self.ok:
            raise error_from_envelope(self.status, self.payload)
        return self


class ServiceClient:
    """Async helper speaking the v1 wire API to one server."""

    def __init__(self, host: str, port: int, token: str):
        self.host = host
        self.port = port
        self.token = token

    # ------------------------------------------------------------------
    # Raw exchange
    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        authenticated: bool = True,
    ) -> ServiceResponse:
        """One raw HTTP exchange (new connection, ``Connection: close``)."""
        body = codec.dumps(payload) if payload is not None else b""
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: close",
        ]
        if authenticated:
            head.append(f"Authorization: Bearer {self.token}")
        if body:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
            await writer.drain()
            status, headers = await _read_head(reader)
            length = int(headers.get("content-length", "0") or "0")
            raw = await reader.readexactly(length) if length else b""
        finally:
            writer.close()
        decoded = codec.loads(raw) if raw else {}
        return ServiceResponse(status, decoded)

    # ------------------------------------------------------------------
    # Typed endpoints
    # ------------------------------------------------------------------
    async def health(self) -> HealthView:
        """``GET /healthz`` (unauthenticated liveness probe)."""
        response = await self.request("GET", "/healthz", authenticated=False)
        response.raise_for_error()
        return HealthView.from_dict(response.payload)

    async def submit_job(self, spec: JobSpec) -> JobView:
        """``POST /v1/jobs``: submit ``spec``, return its queued view."""
        response = await self.request("POST", "/v1/jobs", payload=spec.to_dict())
        response.raise_for_error()
        return JobView.from_dict(response.payload)

    async def job_status(self, job_id: str) -> JobView:
        """``GET /v1/jobs/{id}``: the job's current status view."""
        response = await self.request("GET", f"/v1/jobs/{job_id}")
        response.raise_for_error()
        return JobView.from_dict(response.payload)

    async def job_result(
        self, job_id: str, wait: float | None = None
    ) -> ServiceResponse:
        """The raw result exchange; settled bodies decode via
        :meth:`result_envelope`.  Not raising here lets callers treat
        402 (budget breach, partial result in the envelope) as data.
        """
        path = f"/v1/jobs/{job_id}/result"
        if wait is not None:
            path += f"?wait={float(wait)}"
        return await self.request("GET", path)

    async def result_envelope(
        self, job_id: str, wait: float | None = None
    ) -> ResultEnvelope:
        """Decoded result envelope (settled or still-running 202)."""
        response = await self.job_result(job_id, wait=wait)
        if response.status in (200, 202, 402, 409, 500) and "job_id" in response.payload:
            return ResultEnvelope.from_dict(response.payload)
        response.raise_for_error()
        return ResultEnvelope.from_dict(response.payload)

    async def cancel_job(self, job_id: str) -> JobView:
        """``POST /v1/jobs/{id}/cancel``: request cooperative cancel."""
        response = await self.request("POST", f"/v1/jobs/{job_id}/cancel")
        response.raise_for_error()
        return JobView.from_dict(response.payload)

    async def job_events(self, job_id: str) -> AsyncIterator[EventRecord]:
        """Follow a job's ndjson event stream until it settles."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            head = [
                f"GET /v1/jobs/{job_id}/events HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Authorization: Bearer {self.token}",
                "Connection: close",
                "Content-Length: 0",
            ]
            writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
            await writer.drain()
            status, headers = await _read_head(reader)
            if status != 200:
                length = int(headers.get("content-length", "0") or "0")
                raw = await reader.readexactly(length) if length else b""
                raise error_from_envelope(status, codec.loads(raw) if raw else {})
            while True:
                line = await reader.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield EventRecord.from_dict(codec.loads(line))
        finally:
            writer.close()


async def _read_head(reader: asyncio.StreamReader) -> tuple[int, dict[str, str]]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers
