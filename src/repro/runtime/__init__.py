"""Batched parallel experiment execution.

The :mod:`repro.runtime` package is the scaling layer between the simulators
and the analysis harness: it fans a grid of (scenario, policy, seed) runs out
over a process pool (with a deterministic serial fallback), derives
collision-free per-run seeds, and aggregates multi-seed results into
confidence intervals.  Every grid dispatches whole ``(scenario, policy)``
seed groups to the simulators' seed-batched tensor path (``run_batch``), so
one vectorised hot loop replaces per-seed runs; results are bit-identical to
running each seed alone.  Every sweep and experiment in :mod:`repro.analysis`
executes through it.
"""

from repro.runtime.runner import (
    BatchResult,
    ExperimentRunner,
    RunRecord,
    RunSpec,
    execute_batch,
    expand_seeds,
    expand_workloads,
)
from repro.runtime.spec import ExperimentSpec, load_specs, save_specs
from repro.runtime.store import RunStore

__all__ = [
    "BatchResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "execute_batch",
    "expand_seeds",
    "expand_workloads",
    "load_specs",
    "save_specs",
]
