"""Benchmark E9 — ablation: the A_max violation penalty (design choice).

DESIGN.md documents one deliberate modelling choice: the paper's requirement
that "each content is updated before the AoI value exceeds the maximum
A_max_h" is encoded as a Lagrangian-style penalty in the MDP reward
(``CachingMDPConfig.violation_penalty``).  This ablation removes the penalty
and shows why it is needed: the unconstrained Eq. (1) optimum starves
low-value contents past their age limits, while the penalised policy keeps
violations near zero at essentially the same reward.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import format_table
from repro.core.caching_mdp import CachingMDPConfig, MDPCachingPolicy
from repro.sim import CacheSimulator

PENALTIES = [0.0, 1.0, 5.0, 10.0, 25.0]


@pytest.fixture(scope="module")
def penalty_rows(fig1a_scenario):
    horizon = min(fig1a_scenario.num_slots, 300)
    rows = []
    for penalty in PENALTIES:
        config = CachingMDPConfig(
            weight=fig1a_scenario.aoi_weight,
            discount=fig1a_scenario.discount,
            violation_penalty=penalty,
        )
        result = CacheSimulator(
            fig1a_scenario, MDPCachingPolicy(config)
        ).run(num_slots=horizon)
        summary = result.metrics.summary()
        rows.append(
            {
                "violation_penalty": penalty,
                "violation_fraction": summary["violation_fraction"],
                "mean_age": summary["mean_age"],
                "total_reward": summary["total_reward"],
                "total_updates": summary["total_updates"],
            }
        )
    return rows


def test_bench_violation_penalty(benchmark, fig1a_scenario):
    """Time one penalised-policy run (the library default, penalty = 10)."""
    horizon = min(fig1a_scenario.num_slots, 200)

    def run():
        return CacheSimulator(
            fig1a_scenario,
            MDPCachingPolicy(fig1a_scenario.build_mdp_config()),
        ).run(num_slots=horizon)

    result = benchmark(run)
    benchmark.extra_info["violation_fraction"] = result.metrics.violation_fraction
    assert result.metrics.num_slots_recorded == horizon


def test_penalty_reduces_violations(penalty_rows):
    unpenalised = penalty_rows[0]
    strongest = penalty_rows[-1]
    assert strongest["violation_fraction"] <= unpenalised["violation_fraction"] + 1e-9


def test_default_penalty_meets_paper_requirement(penalty_rows):
    """With the default penalty (10) violations stay below 5% of samples."""
    by_penalty = {row["violation_penalty"]: row for row in penalty_rows}
    assert by_penalty[10.0]["violation_fraction"] < 0.05


def test_violation_penalty_report(penalty_rows, capsys):
    with capsys.disabled():
        print()
        print("=" * 78)
        print("E9 — A_max violation-penalty ablation (design choice)")
        print("=" * 78)
        print(format_table(penalty_rows))
