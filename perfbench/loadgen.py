"""Load generator for ``http_load``: a separate process, driven over its stdin.

Reads one JSON command per line and answers one JSON line each:

* ``{"cmd": "generate", "seed": s, "count": c}`` — encode the bodies of
  jobs ``0 .. c-1`` (more are encoded on demand);
* ``{"cmd": "run", "port": p, "token": t, "connections": c, "window": w,
  "first": i, "seconds": x | "jobs": m, "parity_every": k}`` — a closed
  loop over ``c`` keep-alive connections, each submitting ``w`` jobs and
  then long-polling their results, until ``x`` seconds have passed or
  ``m`` jobs were submitted.  The reply lists every settled job, the
  HTTP status counts, and the full result of every ``k``-th job;
* ``{"cmd": "exit"}``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any

import harness

perf = harness.perf


class LoadGenerator:
    def __init__(self) -> None:
        from http_load import job_spec
        from repro.service_http import codec

        self._spec = job_spec
        self._dumps = codec.dumps
        self.seed = 0
        self.bodies: dict[int, bytes] = {}

    def body(self, index: int) -> bytes:
        body = self.bodies.get(index)
        if body is None:
            body = self._dumps(self._spec(self.seed, index).to_dict())
            self.bodies[index] = body
        return body

    def generate(self, seed: int, count: int) -> dict[str, Any]:
        self.seed = seed
        self.bodies = {}
        for index in range(count):
            self.body(index)
        return {"generated": count}

    async def run(self, cmd: dict[str, Any]) -> dict[str, Any]:
        next_index = int(cmd["first"])
        limit = None if "jobs" not in cmd else next_index + int(cmd["jobs"])
        seconds = cmd.get("seconds")
        parity_every = int(cmd["parity_every"])
        statuses: dict[str, int] = {}
        jobs: list[list[Any]] = []
        parity: dict[str, Any] = {}
        attempted = 0
        start = perf()

        def more() -> bool:
            if limit is not None:
                return next_index < limit
            return perf() - start < float(seconds)

        async def connection() -> None:
            nonlocal next_index, attempted
            reader, writer = await asyncio.open_connection("127.0.0.1", int(cmd["port"]))
            client = _KeepAlive(reader, writer, str(cmd["token"]), statuses)
            try:
                while more():
                    window = []
                    for _ in range(int(cmd["window"])):
                        if limit is not None and next_index >= limit:
                            break
                        index = next_index
                        next_index += 1
                        attempted += 1
                        body = self.body(index)
                        sent = perf()
                        status, payload = await client.exchange("POST", "/v1/jobs", body)
                        if status == 202:
                            window.append((index, sent, payload["job_id"]))
                    for index, sent, job_id in window:
                        path = f"/v1/jobs/{job_id}/result?wait=30"
                        status, payload = await client.exchange("GET", path)
                        while status == 202:
                            status, payload = await client.exchange("GET", path)
                        latency = perf() - sent
                        result = payload.get("result")
                        if status != 200 or payload.get("status") != "ok" or result is None:
                            continue
                        jobs.append([index, latency, result["total_cost"],
                                     result["naive_comparisons"], result["expert_comparisons"],
                                     len(result["survivors"])])
                        if index % parity_every == 0:
                            parity[str(index)] = result
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(connection() for _ in range(int(cmd["connections"]))))
        return {"attempted": attempted, "next": next_index, "statuses": statuses,
                "jobs": jobs, "parity": parity}


class _KeepAlive:
    """One persistent HTTP/1.1 connection speaking the v1 wire API."""

    def __init__(self, reader: Any, writer: Any, token: str, statuses: dict[str, int]):
        self.reader = reader
        self.writer = writer
        self.auth = f"Authorization: Bearer {token}\r\n"
        self.statuses = statuses

    async def exchange(self, method: str, path: str, body: bytes = b"") -> tuple[int, Any]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{self.auth}"
                f"Connection: keep-alive\r\nContent-Length: {len(body)}\r\n")
        if body:
            head += "Content-Type: application/json\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = json.loads(await self.reader.readexactly(length)) if length else {}
        key = str(status)
        self.statuses[key] = self.statuses.get(key, 0) + 1
        return status, payload


async def serve() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=1 << 20)
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    generator = LoadGenerator()
    while True:
        line = await reader.readline()
        if not line:
            return
        cmd = json.loads(line)
        try:
            if cmd["cmd"] == "exit":
                return
            if cmd["cmd"] == "generate":
                reply: dict[str, Any] = generator.generate(int(cmd["seed"]), int(cmd["count"]))
            else:
                reply = await generator.run(cmd)
        except (OSError, ValueError, KeyError, asyncio.IncompleteReadError) as exc:
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    harness.use_checkout_source()
    asyncio.run(serve())
