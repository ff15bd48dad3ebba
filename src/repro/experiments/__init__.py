"""Experiment harness: one module per paper table/figure (see DESIGN.md)."""

from .ablation import (
    run_group_multiplier_ablation,
    run_loss_counter_ablation,
    run_memoization_ablation,
    run_phase2_ablation,
)
from .accuracy_curves import (
    CARS_BUCKETS,
    DOTS_BUCKETS,
    run_accuracy_curves,
    run_figure2_cars,
    run_figure2_dots,
)
from .accuracy_vs_n import figure3_from_sweep, run_figure3
from .base import FigureResult, TableResult, experiment_tracer, failure_notes
from .baselines import run_baseline_shootout
from .bounds_check import run_bounds_check
from .budget_planning import run_budget_planning
from .comparisons_vs_n import figure4_from_sweep
from .cost_vs_n import PAPER_EXPERT_COSTS, figure5_from_sweep, figure9_from_sweep
from .crowdflower import (
    CrowdFlowerRun,
    run_crowdflower_experiment,
    run_repeated_two_maxfind,
    run_search_evaluation,
    run_table1_dots,
    run_table2_cars,
)
from .estimation_sweep import (
    PAPER_ESTIMATION_FACTORS,
    EstimationConfig,
    EstimationData,
    figure6_from_estimation,
    figure7_from_estimation,
    figure10_from_estimation,
    run_estimation_sweep,
    survival_table,
)
from .expert_discovery import run_expert_discovery
from .extensions import run_cascade_experiment, run_expert_fraction_experiment
from .io import load_result, save_result
from .latency import run_latency_experiment
from .report import compose_report, write_report
from .robustness import (
    run_epsilon_robustness,
    run_fatigue_experiment,
    run_fault_sweep,
)
from .sorting_quality import run_sorting_quality
from .sweep import PAPER_NS, SweepConfig, SweepData, run_sweep

__all__ = [
    "CARS_BUCKETS",
    "CrowdFlowerRun",
    "DOTS_BUCKETS",
    "EstimationConfig",
    "EstimationData",
    "FigureResult",
    "PAPER_ESTIMATION_FACTORS",
    "PAPER_EXPERT_COSTS",
    "PAPER_NS",
    "SweepConfig",
    "SweepData",
    "TableResult",
    "experiment_tracer",
    "compose_report",
    "failure_notes",
    "figure10_from_estimation",
    "figure3_from_sweep",
    "figure4_from_sweep",
    "figure5_from_sweep",
    "figure6_from_estimation",
    "figure7_from_estimation",
    "figure9_from_sweep",
    "load_result",
    "run_accuracy_curves",
    "run_baseline_shootout",
    "run_bounds_check",
    "run_budget_planning",
    "run_cascade_experiment",
    "run_crowdflower_experiment",
    "run_epsilon_robustness",
    "run_estimation_sweep",
    "run_expert_discovery",
    "run_expert_fraction_experiment",
    "run_fatigue_experiment",
    "run_fault_sweep",
    "run_figure2_cars",
    "run_figure2_dots",
    "run_figure3",
    "run_group_multiplier_ablation",
    "run_latency_experiment",
    "run_loss_counter_ablation",
    "run_memoization_ablation",
    "run_phase2_ablation",
    "run_repeated_two_maxfind",
    "run_search_evaluation",
    "run_sorting_quality",
    "run_sweep",
    "run_table1_dots",
    "run_table2_cars",
    "save_result",
    "survival_table",
    "write_report",
]
