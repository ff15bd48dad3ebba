"""``paper_sweep``: the paper's own hot path at the scale of Figures 4-5.

In-process ``find_max`` (threshold workers, 2-MaxFind phase 2), one job
at a time on one thread: a closed loop with one caller.  Each pass holds
``STRATA`` jobs per (u_n, u_e) configuration whose sizes are stratified
over n in [1000, 5000], so every pass has the same mix of sizes and the
latency distribution has no gaps for a percentile to straddle.  The
timed phase cycles the passes generated at set-up until the time is up,
always finishing a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import Phase, perf
from repro import api
from repro.core.bounds import (
    expert_comparisons_lower_bound_deterministic,
    filter_comparisons_upper_bound,
    naive_comparisons_lower_bound,
    survivor_upper_bound,
    two_maxfind_comparisons_upper_bound,
)

N_RANGE = (1000, 5000)
CONFIGS = ((10, 5), (50, 10))  # (u_n, u_e)
DELTA_N, DELTA_E = 1.0, 0.25
COST_N, COST_E = 1.0, 20.0  # c_e / c_n = 20
STRATA = 8
PASSES = 3


@dataclass
class _Job:
    instance: api.ProblemInstance
    u_n: int


class PaperSweep:
    def __init__(self, seed: int):
        self.seed = seed
        self.passes: list[list[_Job]] = []
        self.naive, self.expert = api.make_worker_classes(
            delta_n=DELTA_N, delta_e=DELTA_E, cost_n=COST_N, cost_e=COST_E
        )

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0x5EEE])
        lo, hi = N_RANGE
        self.passes = []
        for _ in range(PASSES):
            jobs = []
            for u_n, u_e in CONFIGS:
                for k, offset in enumerate(rng.random(STRATA)):
                    n = int(lo + (k + offset) * (hi - lo) / STRATA)
                    instance = api.planted_instance(
                        n=n, u_n=u_n, u_e=u_e, delta_n=DELTA_N, delta_e=DELTA_E, rng=rng
                    )
                    jobs.append(_Job(instance, u_n))
            self.passes.append([jobs[i] for i in rng.permutation(len(jobs))])
        self._run_pass(self.passes[0], -1, Phase(0.0, [], [], 0, 0))

    def timed(self, seconds: float, recorder: object) -> Phase:
        phase = Phase(0.0, [], [], 0, 0)
        start = perf()
        index = 0
        while True:
            self._run_pass(self.passes[index % PASSES], index, phase)
            index += 1
            if perf() - start >= seconds:
                break
        phase.wall_s = perf() - start
        return phase

    def _run_pass(self, jobs: list[_Job], index: int, phase: Phase) -> None:
        for k, job in enumerate(jobs):
            rng = np.random.default_rng([self.seed, index + 1, k])
            phase.attempted += 1
            t0 = perf()
            result = api.find_max(job.instance, self.naive, self.expert, job.u_n, rng)
            phase.latencies_s.append(perf() - t0)
            problem = check(job, result)
            if problem:
                phase.failed += 1
                phase.problems.append(problem)
                continue
            phase.money.append(result.cost)
            n = len(job.instance.values)
            phase.add("jobs")
            phase.add("naive", result.naive_comparisons)
            phase.add("expert", result.expert_comparisons)
            phase.add("expert_in_lb", result.expert_comparisons)
            phase.add("naive_lb", naive_comparisons_lower_bound(n, job.u_n))
            phase.add("expert_lb", expert_comparisons_lower_bound_deterministic(job.u_n))
            phase.add("survivors", result.survivor_count)
            phase.add("survivor_bound", survivor_upper_bound(job.u_n))

    def teardown(self) -> None:
        """Nothing to release: the inputs live in memory."""

    close = teardown


def check(job: _Job, result: api.MaxFindResult) -> str:
    """The paper's guarantees for one run; an empty string when they hold."""
    values = job.instance.values
    n = len(values)
    gap = float(values.max() - values[result.winner])
    survivors = result.survivor_count
    if gap > 2 * DELTA_E + 1e-9:
        return f"n={n}: winner is {gap:.3f} below the maximum (> 2*delta_e)"
    if (
        not result.filter_result.underestimation_fallback
        and survivors > survivor_upper_bound(job.u_n)
    ):
        return f"n={n}: {survivors} survivors exceed 2*u_n-1"
    if result.naive_comparisons > filter_comparisons_upper_bound(n, job.u_n):
        return f"n={n}: {result.naive_comparisons} naive comparisons exceed 4*n*u_n"
    if result.expert_comparisons > two_maxfind_comparisons_upper_bound(max(survivors, 1)):
        return f"n={n}: {result.expert_comparisons} expert comparisons exceed 2*s^1.5"
    return ""
