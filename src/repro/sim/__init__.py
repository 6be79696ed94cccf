"""Discrete-time simulation of the vehicular caching system.

The public surface is the unified façade :func:`~repro.sim.engine.simulate`
plus the kind-specific result records; the per-kind simulator classes
remain available for callers that want to hold a configured simulator.
"""

from repro.sim.cache_sim import CacheSimulator
from repro.sim.engine import (
    METRICS_MODES,
    SIMULATION_KINDS,
    simulate,
)
from repro.sim.joint_sim import JointSimulator
from repro.sim.metrics import (
    CacheMetrics,
    MultihopMetrics,
    RewardTrace,
    ServiceMetrics,
)
from repro.sim.multihop_sim import MultihopSimulator
from repro.sim.results import (
    CacheSimulationResult,
    JointSimulationResult,
    MultihopSimulationResult,
    ServiceSimulationResult,
    SimulationResult,
)
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import ServiceSimulator
from repro.sim.system import SystemState

__all__ = [
    "CacheMetrics",
    "MultihopMetrics",
    "RewardTrace",
    "ServiceMetrics",
    "ScenarioConfig",
    "METRICS_MODES",
    "SIMULATION_KINDS",
    "SimulationResult",
    "CacheSimulationResult",
    "CacheSimulator",
    "JointSimulationResult",
    "JointSimulator",
    "MultihopSimulationResult",
    "MultihopSimulator",
    "ServiceSimulationResult",
    "ServiceSimulator",
    "SystemState",
    "simulate",
]
