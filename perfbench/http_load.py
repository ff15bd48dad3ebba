"""``http_load``: the serving path as ``repro-serve`` runs it.

A ``ServiceServer`` on loopback (cache off, no durability) in this
process; one load-generator process (``loadgen.py``) drives it over
``CONNECTIONS`` keep-alive connections in a closed loop.  Each connection
submits a window of ``WINDOW`` jobs, then long-polls their results.
Every job has its own catalog and an explicit seed (:func:`job_spec`).

With two or more CPUs, this process (event loop and runner thread, which
share one interpreter lock) is pinned to one CPU and the load generator to
another, so the generator never competes with the server for a core and
lock hand-offs stay on one core; unpinned, runs on a 2-vCPU host spread
far more.

Checks: no 5xx, every job settles ``ok``, and every ``PARITY_EVERY``-th
result is dict-equal to the same spec run in-process with the same seed
split.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from harness import Phase, perf
from repro import api
from repro.core.bounds import (
    expert_comparisons_lower_bound_deterministic,
    naive_comparisons_lower_bound,
    survivor_upper_bound,
)
from repro.service_http import default_pool_factory

N, U_N, U_E = 200, 4, 2
CONNECTIONS = 2
WINDOW = 8
WARMUP_JOBS = 48
#: Specs generated at set-up (the load generator makes more on demand).
PREGENERATED = 4096
PARITY_EVERY = 64
TOKEN = "perfbench-token"
#: Load-generator replies carry one summary per job: allow long lines.
_PIPE_LIMIT = 1 << 26
_REPLY_TIMEOUT_S = 120.0


def job_spec(seed: int, index: int) -> api.JobSpec:
    """The ``index``-th job of a run: its own planted catalog and seed."""
    rng = np.random.default_rng([seed, 0x4774, index])
    instance = api.planted_instance(
        n=N, u_n=U_N, u_e=U_E, delta_n=1.0, delta_e=0.25, rng=rng
    )
    return api.JobSpec(
        values=tuple(float(v) for v in instance.values),
        u_n=U_N,
        seed=(seed * 1_000_003 + index) % (1 << 31),
    )


def run_in_process(spec: api.JobSpec) -> dict[str, Any]:
    """The parity twin: the same spec on a private platform, same seed split."""
    job_seed, platform_seed = np.random.SeedSequence(spec.seed).spawn(2)
    platform = api.CrowdPlatform(default_pool_factory(), rng=np.random.default_rng(platform_seed))
    return spec.build_job().execute(platform, np.random.default_rng(job_seed)).to_dict()


class HttpLoad:
    def __init__(self, seed: int):
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.server: api.ServiceServer | None = None
        self.specs: list[api.JobSpec] = []
        self.first_index = 0
        self._proc: asyncio.subprocess.Process | None = None
        self._affinity = os.sched_getaffinity(0)
        try:
            self.loop.run_until_complete(self._spawn())
        except BaseException:
            self.close()  # stop and reap a half-started load generator
            raise
        cpus = sorted(self._affinity)
        if len(cpus) >= 2 and self._proc is not None:
            os.sched_setaffinity(0, {cpus[0]})
            os.sched_setaffinity(self._proc.pid, {cpus[1]})

    async def _spawn(self) -> None:
        # The load generator is harness, not program: it starts and encodes
        # its own copy of the job bodies before set-up is timed.
        self._proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(Path(__file__).with_name("loadgen.py")),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=_PIPE_LIMIT,
        )
        await self._command({"cmd": "generate", "seed": self.seed, "count": PREGENERATED})

    async def _command(self, message: dict[str, Any]) -> dict[str, Any]:
        proc = self._proc
        assert proc is not None and proc.stdin is not None and proc.stdout is not None
        proc.stdin.write(json.dumps(message).encode() + b"\n")
        await proc.stdin.drain()
        line = await asyncio.wait_for(proc.stdout.readline(), _REPLY_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"load generator exited with {await proc.wait()}")
        reply: dict[str, Any] = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"load generator: {reply['error']}")
        return reply

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        self.specs = [job_spec(self.seed, index) for index in range(PREGENERATED)]
        self.server = api.ServiceServer(
            api.ServiceConfig(port=0, tokens={TOKEN: "bench"}, max_queued=4 * PREGENERATED)
        )
        await self.server.start()
        warm = await self._drive({"jobs": WARMUP_JOBS, "first": 0})
        bad = warm["attempted"] - len(warm["jobs"])
        if bad:
            raise RuntimeError(f"{bad} of {warm['attempted']} warm-up jobs failed")
        self.first_index = WARMUP_JOBS

    async def _drive(self, limit: dict[str, Any]) -> dict[str, Any]:
        assert self.server is not None
        return await self._command(
            {"cmd": "run", "port": self.server.port, "token": TOKEN, "connections": CONNECTIONS,
             "window": WINDOW, "parity_every": PARITY_EVERY, **limit}
        )

    def timed(self, seconds: float, recorder: object) -> Phase:
        start = perf()
        reply = self.loop.run_until_complete(
            self._drive({"seconds": seconds, "first": self.first_index})
        )
        phase = Phase(perf() - start, [], [], reply["attempted"], 0)
        self.first_index = reply["next"]
        server_errors = sum(n for status, n in reply["statuses"].items() if int(status) >= 500)
        if server_errors:
            phase.problems.append(f"{server_errors} responses were 5xx")
        phase.failed = reply["attempted"] - len(reply["jobs"])
        if phase.failed:
            phase.problems.append(f"{phase.failed} jobs failed: statuses {reply['statuses']}")
        for index, latency, cost, naive, expert, survivors in reply["jobs"]:
            phase.latencies_s.append(latency)
            phase.money.append(cost)
            phase.add("jobs")
            phase.add("naive", naive)
            phase.add("expert", expert)
            phase.add("expert_in_lb", expert)
            phase.add("naive_lb", naive_comparisons_lower_bound(N, U_N))
            phase.add("expert_lb", expert_comparisons_lower_bound_deterministic(U_N))
            phase.add("survivors", survivors)
            phase.add("survivor_bound", survivor_upper_bound(U_N))
        for key, result in reply["parity"].items():
            index = int(key)
            spec = self.specs[index] if index < len(self.specs) else job_spec(self.seed, index)
            if run_in_process(spec) != result:
                phase.failed += 1
                phase.problems.append(f"job {key}: HTTP result differs from in-process run")
        phase.extra["parity_checked"] = (float(len(reply["parity"])), "jobs")
        return phase

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.aclose())
            self.server = None

    def close(self) -> None:
        self.teardown()
        if self._proc is not None:
            self.loop.run_until_complete(self._stop_loadgen())
            self._proc = None
        self.loop.close()
        os.sched_setaffinity(0, self._affinity)

    async def _stop_loadgen(self) -> None:
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        try:
            proc.stdin.write(b'{"cmd": "exit"}\n')
            proc.stdin.close()
        except (BrokenPipeError, ConnectionResetError):
            pass  # it already exited; reap it below
        try:
            await asyncio.wait_for(proc.wait(), 10.0)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
