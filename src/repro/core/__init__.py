"""Core contribution: AoI primitives, the caching MDP, and the Lyapunov controller."""

from repro.core.aoi import (
    AoICounter,
    AoIProcess,
    AoIVector,
    aoi_utility,
)
from repro.core.caching_mdp import (
    AgeGrid,
    BatchedCacheDecider,
    CachingMDPConfig,
    ContentUpdateMDP,
    MDPCachingPolicy,
    RSUCachingMDP,
)
from repro.core.solve_cache import (
    SolveCache,
    SolveCacheStats,
    configure_solve_cache,
    global_solve_cache,
    solve_key,
)
from repro.core.lyapunov import (
    DriftPenaltyRecord,
    LyapunovRunResult,
    LyapunovServiceController,
    ServiceDecision,
    run_backlog_simulation,
)
from repro.core.online import OnlineLearningConfig, QLearningCachingPolicy
from repro.core.mdp import (
    DiscreteSpace,
    MDPModel,
    TabularMDP,
    build_tabular,
)
from repro.core.policies import (
    CacheObservation,
    CachingPolicy,
    ServiceObservation,
    ServicePolicy,
    StatelessCachingPolicy,
    StatelessServicePolicy,
)
from repro.core.reward import (
    RewardBreakdown,
    UtilityFunction,
    aoi_utility_term,
    cost_term,
    post_action_ages,
)
from repro.core.solvers import (
    SolverResult,
    policy_evaluation,
    policy_iteration,
    value_iteration,
)

__all__ = [
    "AoICounter",
    "AoIProcess",
    "AoIVector",
    "aoi_utility",
    "AgeGrid",
    "BatchedCacheDecider",
    "CachingMDPConfig",
    "ContentUpdateMDP",
    "MDPCachingPolicy",
    "SolveCache",
    "SolveCacheStats",
    "configure_solve_cache",
    "global_solve_cache",
    "solve_key",
    "RSUCachingMDP",
    "OnlineLearningConfig",
    "QLearningCachingPolicy",
    "DriftPenaltyRecord",
    "LyapunovRunResult",
    "LyapunovServiceController",
    "ServiceDecision",
    "run_backlog_simulation",
    "DiscreteSpace",
    "MDPModel",
    "TabularMDP",
    "build_tabular",
    "CacheObservation",
    "CachingPolicy",
    "ServiceObservation",
    "ServicePolicy",
    "StatelessCachingPolicy",
    "StatelessServicePolicy",
    "RewardBreakdown",
    "UtilityFunction",
    "aoi_utility_term",
    "cost_term",
    "post_action_ages",
    "SolverResult",
    "policy_evaluation",
    "policy_iteration",
    "value_iteration",
]
