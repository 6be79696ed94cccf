"""Pluggable policy subsystem: a registry of named caching/service policies.

The policy-side twin of :mod:`repro.workloads`: every policy — the paper's
MDP cache-update controller and Lyapunov service controller, plus every
baseline — is registered under a short name, and callers refer to one
through a :class:`PolicySpec` (``"mdp"``, ``"lyapunov:tradeoff_v=50"``,
``"threshold:threshold=0.6"``).  Specs are frozen, picklable, and
canonical: equal spellings hash equal, so exact MDP solves are shared
through the solve cache from every call site.

Quickstart::

    from repro import PolicySpec, ScenarioConfig, simulate

    spec = PolicySpec.parse("mdp:mode=factored")
    result = simulate(ScenarioConfig.fig1a(), spec, num_slots=200)

Registering a new policy::

    from repro.policies import register_policy

    @register_policy("my-policy", role="caching")
    def build_my_policy(scenario, *, knob: float = 1.0):
        return MyPolicy(knob)
"""

from repro.policies.onpath import (
    CacheLessForMore,
    EdgeCaching,
    LeaveCopyDown,
    LeaveCopyEverywhere,
    OnPathStrategy,
    PartitionedCaching,
    ProbCache,
)
from repro.policies.registry import (
    PolicyEntry,
    PolicySpec,
    available_policies,
    create_policy,
    get_policy_entry,
    list_policies,
    register_policy,
)

__all__ = [
    "CacheLessForMore",
    "EdgeCaching",
    "LeaveCopyDown",
    "LeaveCopyEverywhere",
    "OnPathStrategy",
    "PartitionedCaching",
    "ProbCache",
    "PolicyEntry",
    "PolicySpec",
    "available_policies",
    "create_policy",
    "get_policy_entry",
    "list_policies",
    "register_policy",
]
