"""Evaluation harness: episode execution, paper metrics, table rendering."""

from .metrics import (EvaluationReport, aggregate, FleetImpactReport,
                      aggregate_fleet)
from .episodes import (run_episode, evaluate_controller, run_fleet_episode,
                       evaluate_fleet, RewardStats, reward_statistics)
from .tables import render_table, render_metric_table, PAPER_COLUMNS
from .significance import ConfidenceInterval, bootstrap_mean, bootstrap_difference
from .degradation import (FaultyHarness, DegradationPoint, DegradationReport,
                          build_faulty_env, degradation_sweep)

__all__ = [
    "EvaluationReport", "aggregate", "FleetImpactReport", "aggregate_fleet",
    "run_episode", "evaluate_controller", "run_fleet_episode", "evaluate_fleet",
    "RewardStats", "reward_statistics",
    "render_table", "render_metric_table", "PAPER_COLUMNS",
    "ConfidenceInterval", "bootstrap_mean", "bootstrap_difference",
    "FaultyHarness", "DegradationPoint", "DegradationReport",
    "build_faulty_env", "degradation_sweep",
]
