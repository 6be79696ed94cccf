"""Built-in policy catalog: the paper's controllers and the stochastic baselines.

Policies whose construction needs scenario context register here as factory
functions — the MDP controller (built from the scenario's MDP config, so
its solves hit the :mod:`repro.core.solve_cache` under canonical
parameters), the Lyapunov controller (``tradeoff_v`` defaults to the
scenario's), the myopic baseline (``weight`` defaults to the scenario's
Eq. (1) weight), and the stochastic baselines (policy RNG derived from the
scenario seed, so registry-built runs are reproducible).

The parameter-free baselines register themselves as classes in
:mod:`repro.baselines.caching` and :mod:`repro.baselines.service`; importing
this module imports those, so the registry is complete once any policy is
looked up.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# Importing the baselines registers their class-decorated policies, and
# importing the on-path module registers the multi-hop strategy family.
from repro.baselines.caching import MyopicUpdatePolicy, RandomUpdatePolicy
from repro.baselines.service import FixedProbabilityPolicy
import repro.policies.onpath  # noqa: F401  (registers on import)
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.policies.registry import register_policy

__all__ = [
    "build_fixed_probability_policy",
    "build_lyapunov_policy",
    "build_mdp_policy",
    "build_myopic_policy",
    "build_random_policy",
]


def _policy_rng(scenario, rng: Optional[int], *, salt: int):
    """Derive a deterministic policy RNG from the scenario seed.

    An explicit integer *rng* wins; otherwise the stream is spawned from
    ``(salt, scenario seed)`` so different stochastic policies on the same
    scenario draw independently, and the same spec on the same scenario is
    reproducible.  A seedless scenario yields a fresh unpredictable stream.
    """
    if rng is not None:
        return int(rng)
    if scenario.seed is None:
        return None
    return np.random.SeedSequence([int(salt), int(scenario.seed)])


@register_policy("mdp", role="caching")
def build_mdp_policy(
    scenario,
    *,
    mode: str = "auto",
    exact_state_limit: int = 2_000,
    use_solve_cache: bool = True,
) -> MDPCachingPolicy:
    """The paper's MDP cache-update controller (exact or factored)."""
    return MDPCachingPolicy(
        scenario.build_mdp_config(),
        mode=mode,
        exact_state_limit=exact_state_limit,
        use_solve_cache=use_solve_cache,
    )


@register_policy("lyapunov", role="service")
def build_lyapunov_policy(
    scenario,
    *,
    tradeoff_v: Optional[float] = None,
    enforce_aoi_validity: bool = True,
    tie_breaker: str = "serve",
) -> LyapunovServiceController:
    """The paper's Lyapunov drift-plus-penalty service controller."""
    v = scenario.tradeoff_v if tradeoff_v is None else tradeoff_v
    return LyapunovServiceController(
        float(v),
        enforce_aoi_validity=enforce_aoi_validity,
        tie_breaker=tie_breaker,
    )


@register_policy("myopic", role="caching")
def build_myopic_policy(
    scenario,
    *,
    weight: Optional[float] = None,
    refresh_age: float = 1.0,
) -> MyopicUpdatePolicy:
    """One-step-lookahead maximiser of the Eq. (1) utility."""
    w = scenario.aoi_weight if weight is None else weight
    return MyopicUpdatePolicy(float(w), refresh_age=refresh_age)


@register_policy("random", role="caching")
def build_random_policy(
    scenario,
    *,
    rate: float = 0.5,
    rng: Optional[int] = None,
) -> RandomUpdatePolicy:
    """Each RSU refreshes a uniformly random content with probability *rate*."""
    return RandomUpdatePolicy(rate, rng=_policy_rng(scenario, rng, salt=101))


@register_policy("fixed-probability", role="service")
def build_fixed_probability_policy(
    scenario,
    *,
    probability: float = 0.5,
    rng: Optional[int] = None,
) -> FixedProbabilityPolicy:
    """Serve pending requests with a fixed probability each slot."""
    return FixedProbabilityPolicy(
        probability, rng=_policy_rng(scenario, rng, salt=211)
    )
