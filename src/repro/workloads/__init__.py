"""Pluggable non-stationary workload subsystem.

A registry of named, seedable request-process models, each exposing the
same three entry points (``generate_slot``, ``generate_slot_contents``,
``generate_horizon``) and consumed identically by every simulator path —
single runs, seed batches, live sessions, and the private scalar oracle
the equivalence suites check them against — so trajectories are
bit-identical across them.

Registered models: ``stationary`` (the paper's workload, byte-identical to
the historical behaviour), ``drift``, ``flash-crowd``, ``shot-noise``, and
``trace`` (file replay; any generated workload can be exported with
:func:`~repro.workloads.trace.export_trace` and replayed).

Quickstart::

    from repro import ScenarioConfig, ServiceSimulator, LyapunovServiceController

    config = ScenarioConfig.fig1b(workload="flash-crowd:burst_prob=0.05")
    result = ServiceSimulator(
        config, LyapunovServiceController(config.tradeoff_v)
    ).run()
"""

from repro.workloads.base import WorkloadHorizon, WorkloadModel
from repro.workloads.models import (
    DriftWorkload,
    FlashCrowdWorkload,
    ShotNoiseWorkload,
    StationaryWorkload,
)
from repro.workloads.registry import (
    WorkloadSpec,
    available_workloads,
    create_workload,
    get_workload_class,
    register_workload,
    workload_names,
)
from repro.workloads.trace import TraceWorkload, export_trace, read_trace, write_trace

__all__ = [
    "DriftWorkload",
    "FlashCrowdWorkload",
    "ShotNoiseWorkload",
    "StationaryWorkload",
    "TraceWorkload",
    "WorkloadHorizon",
    "WorkloadModel",
    "WorkloadSpec",
    "available_workloads",
    "create_workload",
    "export_trace",
    "get_workload_class",
    "read_trace",
    "register_workload",
    "workload_names",
    "write_trace",
]
