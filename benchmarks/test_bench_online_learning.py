"""Benchmark E8 — extension: model-free (Q-learning) cache management.

The paper's future-oriented framing (adapting to rapidly changing road
environments) motivates an online variant of its MDP controller that learns
update values without knowing popularity or costs.  This benchmark times the
online learner on the Fig. 1a scenario and quantifies the price of learning:
its total Eq. (1) reward should land between the never-update floor and the
model-based MDP policy, and approach the latter as the horizon grows.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import format_table
from repro.baselines.caching import NeverUpdatePolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.online import OnlineLearningConfig, QLearningCachingPolicy
from repro.sim import CacheSimulator


@pytest.fixture(scope="module")
def comparison(fig1a_scenario):
    horizon = min(fig1a_scenario.num_slots, 300)
    rows = []
    for name, policy in (
        ("mdp", MDPCachingPolicy(fig1a_scenario.build_mdp_config())),
        (
            "q-learning",
            QLearningCachingPolicy(
                OnlineLearningConfig(weight=fig1a_scenario.aoi_weight), rng=0
            ),
        ),
        ("never", NeverUpdatePolicy()),
    ):
        result = CacheSimulator(fig1a_scenario, policy).run(num_slots=horizon)
        summary = result.metrics.summary()
        rows.append(
            {
                "policy": name,
                "total_reward": summary["total_reward"],
                "mean_age": summary["mean_age"],
                "violations": summary["violation_fraction"],
                "updates": summary["total_updates"],
            }
        )
    return {row["policy"]: row for row in rows}, rows


def test_bench_online_learning(benchmark, fig1a_scenario):
    """Time the online learner on the Fig. 1a scenario."""
    horizon = min(fig1a_scenario.num_slots, 200)

    def run():
        policy = QLearningCachingPolicy(
            OnlineLearningConfig(weight=fig1a_scenario.aoi_weight), rng=0
        )
        return CacheSimulator(fig1a_scenario, policy).run(num_slots=horizon)

    result = benchmark(run)
    benchmark.extra_info["total_reward"] = result.total_reward
    assert result.metrics.num_slots_recorded == horizon


def test_online_learner_beats_never_update(comparison):
    by_name, _ = comparison
    assert by_name["q-learning"]["total_reward"] > by_name["never"]["total_reward"]


def test_online_learner_below_model_based_mdp(comparison):
    """Learning from scratch cannot beat planning with the true model."""
    by_name, _ = comparison
    assert by_name["q-learning"]["total_reward"] <= by_name["mdp"]["total_reward"] + 1e-6


def test_online_learning_report(comparison, capsys):
    _, rows = comparison
    with capsys.disabled():
        print()
        print("=" * 78)
        print("E8 — model-free online cache management (extension)")
        print("=" * 78)
        print(format_table(rows))
