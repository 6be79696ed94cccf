"""Analysis utilities: statistics, figure regeneration, and parameter sweeps."""

from repro.analysis.experiments import (
    ExperimentReport,
    available_experiments,
    run_all_experiments,
    run_experiment,
)
from repro.analysis.figures import (
    Fig1aData,
    Fig1bData,
    build_fig1a_data,
    build_fig1b_data,
    render_fig1a,
    render_fig1b,
    render_series,
)
from repro.analysis.stats import (
    ConfidenceInterval,
    is_non_decreasing,
    linear_trend,
    mean_confidence_interval,
)
from repro.analysis.sweep import (
    caching_policy_comparison,
    format_table,
    scalability_sweep,
    service_policy_comparison,
    v_sweep,
    weight_sweep,
    workload_sweep,
)

__all__ = [
    "ExperimentReport",
    "available_experiments",
    "run_all_experiments",
    "run_experiment",
    "Fig1aData",
    "Fig1bData",
    "build_fig1a_data",
    "build_fig1b_data",
    "render_fig1a",
    "render_fig1b",
    "render_series",
    "ConfidenceInterval",
    "is_non_decreasing",
    "linear_trend",
    "mean_confidence_interval",
    "caching_policy_comparison",
    "format_table",
    "scalability_sweep",
    "service_policy_comparison",
    "v_sweep",
    "weight_sweep",
    "workload_sweep",
]
