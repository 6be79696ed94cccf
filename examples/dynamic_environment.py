#!/usr/bin/env python3
"""Rapidly changing road conditions: adaptive caching under drifting demand.

The paper motivates its controllers with "rapidly changed road environment
and user mobility".  This example runs the Fig. 1a scenario under the
registered ``drift`` workload, whose per-RSU content popularity re-ranks
itself every ``period`` slots by a log-space random walk, so the value of
keeping each content fresh keeps moving.

Two controllers are compared through ``simulate()`` on the same workload
sample path:

* the model-based MDP policy, re-planned whenever the popularity profile
  drifts, and
* the model-free online Q-learning policy, which never sees the popularity
  and must learn which contents are worth refreshing from observed rewards.

Usage::

    python examples/dynamic_environment.py [num_slots]
"""

from __future__ import annotations

import sys

from repro import MDPCachingPolicy, ScenarioConfig, simulate
from repro.analysis import render_series
from repro.core.online import OnlineLearningConfig, QLearningCachingPolicy


def main(num_slots: int = 400) -> None:
    """Compare the MDP and online learners under drifting popularity."""
    config = ScenarioConfig.fig1a(seed=2).with_overrides(
        num_slots=num_slots, workload="drift:period=25,step=0.6"
    )
    mdp = simulate(config, MDPCachingPolicy(config.build_mdp_config()))
    online = simulate(
        config,
        QLearningCachingPolicy(OnlineLearningConfig(weight=config.aoi_weight), rng=0),
    )
    mdp_rewards = mdp.cumulative_reward
    online_rewards = online.cumulative_reward

    print(f"Workload {config.workload.label()} over {num_slots} slots "
          f"({config.num_regions} regions)\n")
    print("Cumulative Eq. (1) reward under drifting popularity")
    print(render_series(
        {
            "mdp (model-based)": mdp_rewards,
            "q-learning (model-free)": online_rewards,
        },
        title="cumulative reward",
        height=12,
    ))
    gap = (mdp_rewards[-1] - online_rewards[-1]) / abs(mdp_rewards[-1])
    print(f"\nFinal reward: mdp={mdp_rewards[-1]:.1f}, "
          f"q-learning={online_rewards[-1]:.1f} "
          f"(online learner within {100 * (1 - gap):.1f}% of the model-based policy)")


if __name__ == "__main__":
    horizon = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    main(horizon)
