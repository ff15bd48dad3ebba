"""Figures 6, 7, 10 and the survival statistics of Section 5.2.

Section 5.2 studies what happens when ``u_n(n)`` is mis-estimated,
parameterised by the *estimation factor* — "the ratio between the
estimated and the true value of u_n(n)" — over
``{0.2, 0.5, 0.8, 1, 1.2, 2}``:

* **Figure 6** — accuracy (average true rank) per factor vs n;
* **Figure 7** — average cost per factor vs n (``c_e in {10,20,50}``);
* **Figure 10** — worst-case cost per factor vs n;
* in-text survival rates — how often the phase-1 set still contains
  the true maximum ("99% of the times" at factor 0.8, "82%" at 0.5,
  "38%" at 0.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bounds import (
    filter_comparisons_upper_bound,
    monetary_cost,
    survivor_upper_bound,
    two_maxfind_comparisons_upper_bound,
)
from ..core.generators import planted_instance
from ..core.maxfinder import ExpertAwareMaxFinder
from ..parallel import RunResult, RunSpec, execute_runs, spawn_run_seeds
from ..workers.expert import make_worker_classes
from .base import FigureResult, TableResult
from .sweep import PAPER_NS

__all__ = [
    "PAPER_ESTIMATION_FACTORS",
    "EstimationConfig",
    "EstimationCell",
    "EstimationData",
    "run_estimation_sweep",
    "figure6_from_estimation",
    "figure7_from_estimation",
    "figure10_from_estimation",
    "survival_table",
]

#: The paper's estimation-factor grid.
PAPER_ESTIMATION_FACTORS = (0.2, 0.5, 0.8, 1.0, 1.2, 2.0)


@dataclass(frozen=True)
class EstimationConfig:
    """Parameters of the Section 5.2 sweep."""

    ns: tuple[int, ...] = PAPER_NS
    u_n: int = 10
    u_e: int = 5
    factors: tuple[float, ...] = PAPER_ESTIMATION_FACTORS
    trials: int = 5
    delta_n: float = 1.0
    delta_e: float = 0.25

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if any(f <= 0 for f in self.factors):
            raise ValueError("estimation factors must be positive")
        if self.u_e > self.u_n:
            raise ValueError("u_e must not exceed u_n")


@dataclass
class EstimationCell:
    """Measurements for one (n, factor) combination."""

    n: int
    factor: float
    estimated_u_n: int
    rank: list[int] = field(default_factory=list)
    naive: list[int] = field(default_factory=list)
    expert: list[int] = field(default_factory=list)
    max_survived: int = 0
    trials: int = 0

    def mean(self, attribute: str) -> float:
        samples = getattr(self, attribute)
        if not samples:
            raise ValueError(f"no samples recorded for {attribute!r}")
        return float(np.mean(samples))

    @property
    def naive_wc(self) -> int:
        """Theory worst case for the *estimated* parameter."""
        return filter_comparisons_upper_bound(self.n, self.estimated_u_n)

    @property
    def expert_wc(self) -> int:
        return two_maxfind_comparisons_upper_bound(
            survivor_upper_bound(self.estimated_u_n)
        )


@dataclass
class EstimationData:
    """Full Section 5.2 sweep: a cell per (n, factor)."""

    config: EstimationConfig
    cells: dict[tuple[int, float], EstimationCell] = field(default_factory=dict)
    failures: list[RunResult] = field(default_factory=list)

    @property
    def ns(self) -> list[int]:
        return list(self.config.ns)

    def cell(self, n: int, factor: float) -> EstimationCell:
        """The measurements for one (n, estimation factor) pair."""
        return self.cells[(n, factor)]

    def factor_series(self, factor: float, attribute: str) -> list[float]:
        """Mean of ``attribute`` across n, for one estimation factor."""
        return [self.cell(n, factor).mean(attribute) for n in self.config.ns]


def _estimated_u(u_n: int, factor: float) -> int:
    """The mis-estimated parameter, floored at 1 (a u of 0 is illegal)."""
    return max(1, round(factor * u_n))


def _estimation_trial(
    rng: np.random.Generator, *, n: int, config: EstimationConfig
) -> list[dict]:
    """One independent (n, trial) run: every estimation factor on one
    shared trial instance (the paper's protocol — factors see the same
    instance so their curves are directly comparable)."""
    naive, expert = make_worker_classes(
        delta_n=config.delta_n, delta_e=config.delta_e
    )
    instance = planted_instance(
        n=n,
        u_n=config.u_n,
        u_e=config.u_e,
        delta_n=config.delta_n,
        delta_e=config.delta_e,
        rng=rng,
    )
    true_max = instance.max_index
    measurements: list[dict] = []
    for factor in config.factors:
        finder = ExpertAwareMaxFinder(
            naive=naive,
            expert=expert,
            u_n=_estimated_u(config.u_n, factor),
            phase2="two_maxfind",
        )
        result = finder.run(instance, rng)
        measurements.append(
            {
                "factor": factor,
                "rank": instance.rank_of(result.winner),
                "naive": result.naive_comparisons,
                "expert": result.expert_comparisons,
                "survived": bool(true_max in result.survivors),
            }
        )
    return measurements


def run_estimation_sweep(
    config: EstimationConfig, rng: np.random.Generator, jobs: int = 1
) -> EstimationData:
    """Run the Section 5.2 sweep.

    For every trial instance, Algorithm 1 is run once per estimation
    factor; survival is judged by whether the true maximum is in the
    phase-1 candidate set.

    Each (n, trial) run gets its own seed spawned from ``rng`` and the
    grid executes on ``jobs`` processes (``0`` for all cores) with
    bit-identical results for any ``jobs``; isolated run failures land
    in ``data.failures``.
    """
    grid = [
        (n, trial) for n in config.ns for trial in range(config.trials)
    ]
    seeds = spawn_run_seeds(rng, len(grid))
    specs = [
        RunSpec(
            index=i,
            fn=_estimation_trial,
            seed=seed,
            params={"n": n, "config": config},
            label=f"estimation[n={n},trial={trial}]",
        )
        for i, ((n, trial), seed) in enumerate(zip(grid, seeds))
    ]
    results = execute_runs(specs, jobs=jobs)

    data = EstimationData(config=config)
    for n in config.ns:
        for factor in config.factors:
            data.cells[(n, factor)] = EstimationCell(
                n=n, factor=factor, estimated_u_n=_estimated_u(config.u_n, factor)
            )
    for (n, _trial), run in zip(grid, results):
        if not run.ok:
            data.failures.append(run)
            continue
        for measurement in run.value:
            cell = data.cells[(n, measurement["factor"])]
            cell.rank.append(measurement["rank"])
            cell.naive.append(measurement["naive"])
            cell.expert.append(measurement["expert"])
            cell.trials += 1
            cell.max_survived += int(measurement["survived"])
    return data


def _factor_label(factor: float) -> str:
    if factor == 1.0:
        return "Alg 1"
    return f"Alg 1 ({factor:g}*un)"


def figure6_from_estimation(data: EstimationData) -> FigureResult:
    """Figure 6: accuracy vs n, one curve per estimation factor."""
    config = data.config
    figure = FigureResult(
        figure_id="fig6",
        title=(
            f"average real rank of max vs n under mis-estimated u_n "
            f"(u_n={config.u_n}, u_e={config.u_e})"
        ),
        x_label="n",
        x_values=data.ns,
    )
    for factor in config.factors:
        figure.add_series(_factor_label(factor), data.factor_series(factor, "rank"))
    figure.notes.append(
        "overestimation is harmless for accuracy; underestimation degrades "
        "it moderately (Section 5.2)"
    )
    return figure


def figure7_from_estimation(
    data: EstimationData, cost_expert: float, cost_naive: float = 1.0
) -> FigureResult:
    """Figure 7: average cost vs n per estimation factor at one c_e."""
    config = data.config
    figure = FigureResult(
        figure_id=f"fig7(ce={cost_expert:g})",
        title=(
            f"average cost vs n under mis-estimated u_n "
            f"(c_e={cost_expert:g}, u_n={config.u_n}, u_e={config.u_e})"
        ),
        x_label="n",
        x_values=data.ns,
    )
    for factor in config.factors:
        costs = [
            monetary_cost(xn, xe, cost_naive, cost_expert)
            for xn, xe in zip(
                data.factor_series(factor, "naive"),
                data.factor_series(factor, "expert"),
            )
        ]
        figure.add_series(_factor_label(factor) + " (avg)", costs)
    figure.notes.append("cost scales roughly linearly with the estimation factor")
    return figure


def figure10_from_estimation(
    data: EstimationData, cost_expert: float, cost_naive: float = 1.0
) -> FigureResult:
    """Figure 10: worst-case cost vs n per estimation factor at one c_e."""
    config = data.config
    figure = FigureResult(
        figure_id=f"fig10(ce={cost_expert:g})",
        title=(
            f"worst-case cost vs n under mis-estimated u_n "
            f"(c_e={cost_expert:g}, u_n={config.u_n}, u_e={config.u_e})"
        ),
        x_label="n",
        x_values=data.ns,
    )
    for factor in config.factors:
        costs = [
            monetary_cost(
                data.cell(n, factor).naive_wc,
                data.cell(n, factor).expert_wc,
                cost_naive,
                cost_expert,
            )
            for n in config.ns
        ]
        figure.add_series(_factor_label(factor) + " (wc)", costs)
    return figure


def survival_table(data: EstimationData) -> TableResult:
    """In-text Section 5.2 statistic: survival rate of the true max.

    Paper reference points: ~0.99 at factor 0.8, ~0.82 at 0.5, ~0.38
    at 0.2 (aggregated across n).
    """
    table = TableResult(
        table_id="sec5.2-survival",
        title="fraction of runs whose phase-1 candidate set contains the true max",
        headers=["estimation factor", "survival rate", "trials"],
    )
    for factor in data.config.factors:
        survived = sum(data.cell(n, factor).max_survived for n in data.config.ns)
        trials = sum(data.cell(n, factor).trials for n in data.config.ns)
        table.add_row([factor, survived / trials if trials else float("nan"), trials])
    table.notes.append("paper reference: 0.99 @ 0.8, 0.82 @ 0.5, 0.38 @ 0.2")
    return table
