"""repro — reproduction of "AoI-Aware Markov Decision Policies for Caching".

The library implements, end to end, the two-stage scheme of Park, Jung,
Choi, and Kim (ICDCS 2022): an MDP-based cache-update controller for
road-side units (stage 1) and a Lyapunov drift-plus-penalty content-service
controller (stage 2), together with the vehicular-network substrate, the
baseline policies, the simulators, and the experiment harness needed to
regenerate the paper's evaluation.

Quickstart — one façade covers every simulation kind, with policies and
workloads referenced through their registries::

    from repro import ScenarioConfig, simulate

    result = simulate(ScenarioConfig.fig1a(seed=0), "mdp", num_slots=200)
    print(result.summary())

    # Both stages coupled, 8 seeds through one seed-batched tensor loop:
    results = simulate(ScenarioConfig.fig1b(), ("mdp", "lyapunov"), seeds=8)

Declarative experiment grids round-trip through JSON and execute through
the batched parallel runner::

    from repro import ExperimentRunner, ExperimentSpec, ScenarioConfig

    spec = ExperimentSpec(kind="cache", scenario=ScenarioConfig.fig1a(),
                          policy="mdp", num_seeds=8, label="fig1a")
    spec = ExperimentSpec.from_json(spec.to_json())   # lossless
    batch = ExperimentRunner(workers=4).run_grid([spec])
    print(batch.aggregate())   # mean +- ci per grid point
    batch.to_json("results.json")

Incremental sessions drive the same engines slot by slot — and serve
them over TCP (``python -m repro.cli serve``)::

    from repro import ScenarioConfig, open_session

    session = open_session(ScenarioConfig.fig1b(), ("mdp", "lyapunov"))
    session.step([(0, 3), (1, 17)])       # live (rsu, content) requests
    print(session.snapshot()["summary"])  # run-so-far aggregates
    final = session.close()               # same result type as simulate()

There is one execution path per kind — one seed-axis stepper, shared by
single runs, seed batches, the runner and sessions.  The golden-trajectory
and differential-oracle tests pin it bit for bit against the original
scalar loops, which stay as a private test oracle.  The per-kind
simulator classes (``CacheSimulator`` et al.) run the same path as the
façade.
"""

from repro.baselines import (
    AlwaysServePolicy,
    AlwaysUpdatePolicy,
    BacklogThresholdPolicy,
    CostGreedyPolicy,
    FixedProbabilityPolicy,
    MyopicUpdatePolicy,
    NeverServePolicy,
    NeverUpdatePolicy,
    PeriodicUpdatePolicy,
    RandomUpdatePolicy,
    ThresholdUpdatePolicy,
    standard_caching_baselines,
    standard_service_baselines,
)
from repro.core import (
    AoICounter,
    AoIProcess,
    AoIVector,
    CacheObservation,
    CachingMDPConfig,
    CachingPolicy,
    ContentUpdateMDP,
    LyapunovServiceController,
    MDPCachingPolicy,
    RSUCachingMDP,
    ServiceObservation,
    ServicePolicy,
    TabularMDP,
    UtilityFunction,
    policy_iteration,
    run_backlog_simulation,
    value_iteration,
)
from repro.exceptions import (
    CacheError,
    ConfigurationError,
    ModelError,
    QueueError,
    ReproError,
    SimulationError,
    SolverError,
    ValidationError,
)
from repro.net import (
    ContentCatalog,
    NetworkController,
    NetworkModel,
    NetworkView,
    RequestGenerator,
    RoadTopology,
)
from repro.policies import (
    PolicySpec,
    available_policies,
    create_policy,
    list_policies,
    register_policy,
)
from repro.runtime import (
    BatchResult,
    ExperimentRunner,
    ExperimentSpec,
    RunRecord,
    RunSpec,
    RunStore,
    expand_seeds,
    expand_workloads,
    load_specs,
    save_specs,
)
from repro.sim import (
    CacheSimulationResult,
    CacheSimulator,
    JointSimulationResult,
    JointSimulator,
    MultihopSimulationResult,
    MultihopSimulator,
    ScenarioConfig,
    ServiceSimulationResult,
    ServiceSimulator,
    SimulationResult,
    simulate,
)
from repro.serve import (
    ServeClient,
    SimulationSession,
    SlotResult,
    open_session,
)
from repro.workloads import (
    WorkloadModel,
    WorkloadSpec,
    available_workloads,
    create_workload,
    export_trace,
    workload_names,
)

__version__ = "7.0.0"

__all__ = [
    "AlwaysServePolicy",
    "AlwaysUpdatePolicy",
    "BacklogThresholdPolicy",
    "CostGreedyPolicy",
    "FixedProbabilityPolicy",
    "MyopicUpdatePolicy",
    "NeverServePolicy",
    "NeverUpdatePolicy",
    "PeriodicUpdatePolicy",
    "RandomUpdatePolicy",
    "ThresholdUpdatePolicy",
    "standard_caching_baselines",
    "standard_service_baselines",
    "AoICounter",
    "AoIProcess",
    "AoIVector",
    "CacheObservation",
    "CachingMDPConfig",
    "CachingPolicy",
    "ContentUpdateMDP",
    "LyapunovServiceController",
    "MDPCachingPolicy",
    "RSUCachingMDP",
    "ServiceObservation",
    "ServicePolicy",
    "TabularMDP",
    "UtilityFunction",
    "policy_iteration",
    "run_backlog_simulation",
    "value_iteration",
    "CacheError",
    "ConfigurationError",
    "ModelError",
    "QueueError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "ValidationError",
    "ContentCatalog",
    "NetworkController",
    "NetworkModel",
    "NetworkView",
    "RequestGenerator",
    "RoadTopology",
    "CacheSimulationResult",
    "CacheSimulator",
    "JointSimulationResult",
    "JointSimulator",
    "MultihopSimulationResult",
    "MultihopSimulator",
    "ScenarioConfig",
    "ServiceSimulationResult",
    "ServiceSimulator",
    "SimulationResult",
    "simulate",
    "PolicySpec",
    "available_policies",
    "create_policy",
    "list_policies",
    "register_policy",
    "BatchResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "expand_seeds",
    "expand_workloads",
    "load_specs",
    "save_specs",
    "ServeClient",
    "SimulationSession",
    "SlotResult",
    "open_session",
    "WorkloadModel",
    "WorkloadSpec",
    "available_workloads",
    "create_workload",
    "export_trace",
    "workload_names",
    "__version__",
]
