"""The asyncio HTTP/1.1 server fronting the scheduler.

Stdlib only: ``asyncio.start_server`` plus a small hand-rolled
HTTP/1.1 reader — enough protocol for JSON request/response bodies
with keep-alive and one streaming (ndjson) endpoint.  Routes:

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
GET       ``/healthz``                liveness + queue counts (no auth)
POST      ``/v1/jobs``                submit a :class:`JobSpec` → 202
GET       ``/v1/jobs/{id}``           status :class:`JobView`
GET       ``/v1/jobs/{id}/result``    settled outcome (``?wait=`` long-poll)
POST      ``/v1/jobs/{id}/cancel``    cooperative cancel
GET       ``/v1/jobs/{id}/events``    ndjson progress stream
========  ==========================  =====================================

Every error — protocol, auth, backpressure, or a typed error from the
depths of the platform — leaves through one boundary
(:meth:`_Connection.handle`) as a registry envelope with its stable
wire code and status; 429s carry ``Retry-After``.  Nothing else in the
module writes an error body.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

from ..telemetry import Tracer, resolve_tracer
from . import codec
from .auth import TenantAuth
from .errors import (
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
    error_envelope,
    wire_code,
    wire_status,
)
from .runner import ServiceConfig, ServiceRunner
from .state import JobRecord, ServiceState
from .wire import SETTLED_STATES, EventRecord, HealthView, JobSpec, ResultEnvelope

__all__ = ["ServiceServer"]

#: Request bodies past this are refused outright (413 would need its
#: own code; the registry treats it as an invalid request).
_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024


class _HttpRequest:
    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, list[str]],
        headers: dict[str, str],
        body: bytes,
    ):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def query_float(self, name: str, default: float) -> float:
        values = self.query.get(name)
        if not values:
            return default
        try:
            return float(values[-1])
        except ValueError as exc:
            raise InvalidRequestError(
                f"query parameter {name!r} must be a number"
            ) from exc


class _Connection:
    """One accepted socket; serves requests until close/EOF."""

    def __init__(self, server: "ServiceServer", reader, writer):
        self._server = server
        self._reader = reader
        self._writer = writer

    async def serve(self) -> None:
        try:
            while True:
                request = await self._read_request()
                if request is None:
                    return
                keep_alive = await self.handle(request)
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            return  # client went away mid-request; nothing to answer
        finally:
            self._writer.close()

    async def _read_request(self) -> _HttpRequest | None:
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise
        if len(head) > _MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("header block too large", len(head))
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(head, None)
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise asyncio.LimitOverrunError("request body too large", length)
        body = await self._reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return _HttpRequest(
            method=method.upper(),
            path=split.path,
            query=parse_qs(split.query),
            headers=headers,
            body=body,
        )

    # ------------------------------------------------------------------
    # The one error boundary
    # ------------------------------------------------------------------
    async def handle(self, request: _HttpRequest) -> bool:
        server = self._server
        status = 500
        try:
            status, payload, streamed = await server.dispatch(request, self)
            if not streamed:
                await self._respond(status, payload)
            return not streamed
        except Exception as exc:  # repro-lint: disable=ERR003 -- the wire error boundary
            code = wire_code(exc)
            status = wire_status(code)
            extra = {}
            if status == 429:
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is None:
                    retry_after = server.config.retry_after_s
                extra["Retry-After"] = str(max(0.0, float(retry_after)))
            await self._respond(status, error_envelope(exc), extra_headers=extra)
            return True
        finally:
            if server.tracer.enabled:
                server.tracer.event(
                    "http_request",
                    method=request.method,
                    path=request.path,
                    status=status,
                )
            server.tracer.count("service.http_requests")

    async def _respond(
        self,
        status: int,
        payload: Mapping[str, Any],
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        body = codec.dumps(payload)
        reason = {200: "OK", 202: "Accepted"}.get(status, "Error")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        head.append("Connection: keep-alive")
        self._writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        await self._writer.drain()

    async def stream_events(self, record: JobRecord) -> None:
        """The ndjson event stream; ends when the job settles."""
        server = self._server
        writer = self._writer
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue = server.state.subscribe(record)
        try:
            # Replay the backlog first (events carry their stream seq),
            # then follow live until the settle sentinel.
            backlog = list(record.events)
            for event in backlog:
                writer.write(self._event_line(record, event))
            await writer.drain()
            seen = backlog[-1]["seq"] + 1 if backlog else 0
            if record.status in SETTLED_STATES and record.settled_event.is_set():
                return
            while True:
                event = await queue.get()
                if event is None:
                    return
                if event.get("seq", seen) < seen:
                    continue  # raced with the backlog replay
                seen = event["seq"] + 1
                writer.write(self._event_line(record, event))
                await writer.drain()
        finally:
            server.state.unsubscribe(record, queue)

    @staticmethod
    def _event_line(record: JobRecord, event: dict[str, Any]) -> bytes:
        fields = {
            k: v for k, v in event.items() if k not in ("kind", "seq") and _is_json(v)
        }
        wire = EventRecord(
            job_id=record.job_id,
            seq=int(event.get("seq", 0)),
            kind=str(event.get("kind", "event")),
            fields=fields,
        )
        return codec.encode_line(wire.to_dict())


def _is_json(value: Any) -> bool:
    if isinstance(value, (str, int, bool)) or value is None:
        return True
    if isinstance(value, float):
        return value == value and value not in (float("inf"), float("-inf"))
    if isinstance(value, (list, tuple)):
        return all(_is_json(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_json(v) for k, v in value.items())
    return False


class ServiceServer:
    """The serving layer: socket, auth, state, and runner, assembled.

    Usage (see ``examples/http_client.py`` and the ``repro-serve``
    CLI)::

        server = ServiceServer(ServiceConfig(tokens={"tok": "acme"}))
        await server.start()       # binds; server.port is now real
        ...
        await server.aclose()
    """

    def __init__(self, config: ServiceConfig, tracer: Tracer | None = None):
        self.config = config
        self.tracer = resolve_tracer(tracer)
        self.auth = TenantAuth(
            tokens=dict(config.tokens),
            tenants=config.tenants,
            rate=config.rate,
            burst=config.burst,
        )
        self.state: ServiceState = None  # type: ignore[assignment]
        self.runner: ServiceRunner | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self.port: int | None = None

    async def start(self) -> None:
        """Bind the socket and start the runner; sets :attr:`port`."""
        loop = asyncio.get_running_loop()
        self.state = ServiceState(loop, max_queued=self.config.max_queued)
        self.runner = ServiceRunner(self.state, self.config, tracer=self.tracer)
        self.runner.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``repro-serve`` main loop)."""
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections and join the runner thread.

        Idle keep-alive connections (parked between requests) are
        cancelled and reaped here; without the reap they would linger
        until loop teardown and surface as spurious ``CancelledError``
        logs.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.runner is not None:
            self.runner.stop()

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await _Connection(self, reader, writer).serve()
        except asyncio.CancelledError:
            pass  # aclose() reaped this connection mid-wait
        finally:
            self._connections.discard(task)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def dispatch(
        self, request: _HttpRequest, connection: _Connection
    ) -> tuple[int, dict[str, Any], bool]:
        """Route one request; returns (status, payload, streamed)."""
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                raise MethodNotAllowedError("healthz is GET-only")
            counts = self.state.counts()
            return 200, HealthView(status="ok", **counts).to_dict(), False
        if path == "/v1/jobs":
            if request.method != "POST":
                raise MethodNotAllowedError("submit jobs with POST /v1/jobs")
            status, payload = await self._submit(request)
            return status, payload, False
        if path.startswith("/v1/jobs/"):
            return await self._job_route(request, connection)
        raise NotFoundError(f"no such route: {request.method} {path}")

    async def _job_route(
        self, request: _HttpRequest, connection: _Connection
    ) -> tuple[int, dict[str, Any], bool]:
        tenant = self.auth.authenticate(request.headers.get("authorization"))
        segments = request.path.split("/")  # ['', 'v1', 'jobs', id, tail?]
        if len(segments) not in (4, 5) or not segments[3]:
            raise NotFoundError(f"no such route: {request.path}")
        record = self.state.get(segments[3], tenant)
        tail = segments[4] if len(segments) == 5 else None
        if tail is None:
            if request.method != "GET":
                raise MethodNotAllowedError("job status is GET-only")
            return 200, record.view().to_dict(), False
        if tail == "result":
            if request.method != "GET":
                raise MethodNotAllowedError("job result is GET-only")
            status, payload = await self._result(request, record)
            return status, payload, False
        if tail == "cancel":
            if request.method != "POST":
                raise MethodNotAllowedError("cancel jobs with POST")
            status = self.state.cancel(record)
            http_status = 200 if status == "cancelled" else 202
            return http_status, record.view().to_dict(), False
        if tail == "events":
            if request.method != "GET":
                raise MethodNotAllowedError("job events is GET-only")
            await connection.stream_events(record)
            return 200, {}, True
        raise NotFoundError(f"no such route: {request.path}")

    async def _submit(self, request: _HttpRequest) -> tuple[int, dict[str, Any]]:
        tenant = self.auth.authenticate(request.headers.get("authorization"))
        self.auth.throttle(tenant)
        spec = JobSpec.from_dict(codec.loads(request.body))
        spec.build_job()  # reject un-buildable specs at the door (400)
        record = self.state.submit(tenant, spec)
        self.tracer.count("service.jobs_submitted")
        return 202, record.view().to_dict()

    async def _result(
        self, request: _HttpRequest, record: JobRecord
    ) -> tuple[int, dict[str, Any]]:
        wait = request.query_float("wait", 0.0)
        if wait > 0.0:
            await self.state.wait_settled(
                record, min(wait, self.config.result_wait_cap_s)
            )
        status = record.status
        if status not in SETTLED_STATES:
            return 202, record.view().to_dict()
        if status == "ok":
            assert record.result is not None
            envelope = ResultEnvelope(
                job_id=record.job_id, status=status, result=record.result.to_dict()
            )
            return 200, envelope.to_dict()
        error = record.error
        assert error is not None
        wire_error = error_envelope(error)["error"]
        envelope = ResultEnvelope(
            job_id=record.job_id, status=status, error=wire_error
        )
        return wire_status(wire_error["code"]), envelope.to_dict()
