"""Baseline cache-update policies.

The paper's Fig. 1a evaluates the MDP update policy in isolation; to give the
comparison experiments (E6) meaningful reference points we implement the
standard alternatives that AoI-caching papers compare against:

* :class:`NeverUpdatePolicy` — lower bound on cost, upper bound on AoI.
* :class:`AlwaysUpdatePolicy` — greedy freshness: refresh the stalest content
  of every RSU every slot; lower bound on AoI, upper bound on cost.
* :class:`PeriodicUpdatePolicy` — round-robin refresh with a fixed period.
* :class:`RandomUpdatePolicy` — refresh a uniformly random content with a
  configurable probability per RSU per slot.
* :class:`ThresholdUpdatePolicy` — refresh the stalest content whose age has
  crossed a fraction of its ``A_max`` (a practical heuristic that needs no
  model).
* :class:`MyopicUpdatePolicy` — one-step-lookahead maximiser of Eq. (1):
  picks the single update whose immediate reward gain is largest, ignoring
  the future.  This isolates the value of the MDP's lookahead.

All of them respect the paper's one-update-per-RSU-per-slot constraint.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.policies import (
    CacheObservation,
    CachingPolicy,
    StatelessCachingPolicy,
)
from repro.exceptions import ConfigurationError
from repro.policies.registry import register_policy
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive_int,
    check_probability,
)


@register_policy("never", role="caching")
class NeverUpdatePolicy(StatelessCachingPolicy):
    """Never refresh anything: zero cost, unbounded AoI."""

    name = "never"

    def decide(self, observation: CacheObservation) -> np.ndarray:
        actions = np.zeros(
            (observation.num_rsus, observation.contents_per_rsu), dtype=int
        )
        return self.validate_actions(actions, observation)


@register_policy("always", role="caching")
class AlwaysUpdatePolicy(StatelessCachingPolicy):
    """Refresh the stalest content of every RSU every slot.

    This is the most aggressive behaviour admissible under the
    one-update-per-RSU constraint, so it minimises AoI at maximal cost.
    """

    name = "always"

    def decide(self, observation: CacheObservation) -> np.ndarray:
        ages = np.asarray(observation.ages, dtype=float)
        actions = np.zeros_like(ages, dtype=int)
        stalest = np.argmax(ages, axis=1)
        actions[np.arange(ages.shape[0]), stalest] = 1
        return self.validate_actions(actions, observation)


@register_policy("periodic", role="caching")
class PeriodicUpdatePolicy(CachingPolicy):
    """Round-robin refresh: each RSU updates its contents cyclically.

    Every *period* slots each RSU refreshes the next content in a fixed
    cyclic order; between refresh slots it does nothing.  With ``period=1``
    every RSU refreshes one content every slot, cycling through its cache.
    """

    name = "periodic"

    def __init__(self, period: int = 1) -> None:
        self._period = check_positive_int(period, "period")
        self._counter = 0

    @property
    def period(self) -> int:
        """Slots between consecutive refreshes at each RSU."""
        return self._period

    def reset(self) -> None:
        """Restart the round-robin position."""
        self._counter = 0

    def decide(self, observation: CacheObservation) -> np.ndarray:
        num_rsus = observation.num_rsus
        per_rsu = observation.contents_per_rsu
        actions = np.zeros((num_rsus, per_rsu), dtype=int)
        if self._counter % self._period == 0:
            content = (self._counter // self._period) % per_rsu
            actions[:, content] = 1
        self._counter += 1
        return self.validate_actions(actions, observation)


class RandomUpdatePolicy(CachingPolicy):
    """Each RSU refreshes a uniformly random content with probability *rate*."""

    name = "random"

    def __init__(self, rate: float = 0.5, *, rng: RandomSource = None) -> None:
        self._rate = check_probability(rate, "rate")
        self._rng = ensure_rng(rng)

    @property
    def rate(self) -> float:
        """Per-RSU per-slot update probability."""
        return self._rate

    def decide(self, observation: CacheObservation) -> np.ndarray:
        num_rsus = observation.num_rsus
        per_rsu = observation.contents_per_rsu
        actions = np.zeros((num_rsus, per_rsu), dtype=int)
        for rsu in range(num_rsus):
            if self._rng.random() < self._rate:
                actions[rsu, int(self._rng.integers(per_rsu))] = 1
        return self.validate_actions(actions, observation)


@register_policy("threshold", role="caching")
class ThresholdUpdatePolicy(StatelessCachingPolicy):
    """Refresh the stalest content whose age exceeds ``threshold * A_max``.

    Parameters
    ----------
    threshold:
        Fraction of the maximum age at which a content becomes refresh-worthy.
        ``threshold=1.0`` waits until the content actually violates its limit;
        smaller values refresh pre-emptively.
    """

    name = "threshold"

    def __init__(self, threshold: float = 0.8) -> None:
        self._threshold = check_in_range(threshold, "threshold", 0.0, 1.0)

    @property
    def threshold(self) -> float:
        """Refresh threshold as a fraction of ``A_max``."""
        return self._threshold

    def decide(self, observation: CacheObservation) -> np.ndarray:
        ages = np.asarray(observation.ages, dtype=float)
        max_ages = np.asarray(observation.max_ages, dtype=float)
        actions = np.zeros_like(ages, dtype=int)
        staleness = ages / max_ages
        eligible = staleness >= self._threshold
        for rsu in range(ages.shape[0]):
            if not np.any(eligible[rsu]):
                continue
            candidates = np.where(eligible[rsu], staleness[rsu], -np.inf)
            actions[rsu, int(np.argmax(candidates))] = 1
        return self.validate_actions(actions, observation)


class MyopicUpdatePolicy(StatelessCachingPolicy):
    """One-step-lookahead maximiser of the Eq. (1) utility.

    For each RSU the policy evaluates the immediate reward of refreshing each
    content versus refreshing nothing, and picks the best.  Because the
    reward of Eq. (1) is additive across contents, this reduces to refreshing
    the content with the largest positive one-step gain
    ``w * p * A_max * (1/refresh_age - 1/A) - C``.

    Parameters
    ----------
    weight:
        AoI weight ``w`` of Eq. (1) (must match the evaluation weight for a
        fair comparison against the MDP policy).
    refresh_age:
        Age of a freshly delivered copy.
    """

    name = "myopic"

    def __init__(self, weight: float = 1.0, *, refresh_age: float = 1.0) -> None:
        self._weight = check_non_negative(weight, "weight")
        if refresh_age <= 0:
            raise ConfigurationError(f"refresh_age must be > 0, got {refresh_age}")
        self._refresh_age = float(refresh_age)

    @property
    def weight(self) -> float:
        """AoI weight ``w`` used in the one-step gain."""
        return self._weight

    def decide(self, observation: CacheObservation) -> np.ndarray:
        ages = np.asarray(observation.ages, dtype=float)
        max_ages = np.asarray(observation.max_ages, dtype=float)
        popularity = np.asarray(observation.popularity, dtype=float)
        costs = np.asarray(observation.update_costs, dtype=float)
        gains = (
            self._weight
            * popularity
            * max_ages
            * (1.0 / self._refresh_age - 1.0 / np.maximum(ages, 1.0))
            - costs
        )
        actions = np.zeros_like(ages, dtype=int)
        best = np.argmax(gains, axis=1)
        for rsu in range(ages.shape[0]):
            if gains[rsu, best[rsu]] > 0:
                actions[rsu, best[rsu]] = 1
        return self.validate_actions(actions, observation)


def standard_caching_baselines(
    *,
    weight: float = 1.0,
    rng: RandomSource = None,
) -> Dict[str, CachingPolicy]:
    """Return the standard set of baseline caching policies keyed by name.

    Used by the policy-comparison experiment (E6) and the examples.
    """
    return {
        "never": NeverUpdatePolicy(),
        "always": AlwaysUpdatePolicy(),
        "periodic": PeriodicUpdatePolicy(period=1),
        "random": RandomUpdatePolicy(rate=0.5, rng=rng),
        "threshold": ThresholdUpdatePolicy(threshold=0.8),
        "myopic": MyopicUpdatePolicy(weight=weight),
    }
