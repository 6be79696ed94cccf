"""Golden-trajectory equivalence: seed-batched runs vs per-seed runs.

``run_batch`` is only allowed to be *fast*: for every seed in the batch it
must reproduce the per-run vectorised loop slot for slot — the same ages,
actions, reward breakdowns, backlogs, latencies, costs, and decisions,
compared with exact equality (no tolerances).  These tests pin that contract
across policies (batched MDP decide, exact-mode fallback, per-seed baseline
fallback), cost models (static and time-varying), arrival processes,
deadlines, and horizon overrides — extending the PR 1 equivalence suite to
the seed axis.  Each pair is compared through
:func:`oracle.compare.assert_same_run`: every recorded history and counter.
"""

from __future__ import annotations

import copy

import pytest

from oracle.compare import assert_same_run
from repro.baselines.caching import (
    AlwaysUpdatePolicy,
    NeverUpdatePolicy,
    PeriodicUpdatePolicy,
    RandomUpdatePolicy,
)
from repro.baselines.service import AlwaysServePolicy, CostGreedyPolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ValidationError
from repro.sim import CacheSimulator, JointSimulator
from repro.sim.engine import KINDS, _run_seeds
from repro.sim.scenario import ScenarioConfig

SEEDS = [0, 3, 11]


def assert_batch_identical(
    kind, config, make_policies, num_slots=None, seeds=SEEDS, **options
):
    """``run_batch(seeds)`` records exactly what one ``run()`` per seed does.

    *make_policies* builds one policy per role of *kind* for a scenario.
    """
    per_seed = [make_policies(config.with_overrides(seed=seed)) for seed in seeds]
    policies = list(zip(*per_seed))
    batch = _run_seeds(
        kind, config, seeds, policies, num_slots=num_slots, metrics="full", **options
    )
    assert len(batch) == len(seeds)
    for seed, batched in zip(seeds, batch):
        seeded = config.with_overrides(seed=seed)
        simulator = KINDS[kind].simulator(seeded, *make_policies(seeded), **options)
        assert_same_run(batched, simulator.run(num_slots=num_slots))


def mdp(cfg):
    return (MDPCachingPolicy(cfg.build_mdp_config()),)


class TestCacheBatchEquivalence:
    def test_mdp_policy_fig1a_uses_batched_decide(self):
        # All-factored MDP controllers take the stacked gather + argmax path.
        config = ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=80)
        assert_batch_identical("cache", config, mdp)

    def test_exact_mode_small_scenario_falls_back(self):
        # The small scenario selects the exact per-RSU mode, which cannot
        # stack: the batch must fall back to per-seed decides and still match.
        config = ScenarioConfig.small(seed=3, num_slots=60)
        assert_batch_identical("cache", config, mdp)

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda cfg: (NeverUpdatePolicy(),),
            lambda cfg: (AlwaysUpdatePolicy(),),
            lambda cfg: (PeriodicUpdatePolicy(period=3),),
            lambda cfg: (RandomUpdatePolicy(rate=0.4, rng=123),),
        ],
        ids=["never", "always", "periodic", "random"],
    )
    def test_baseline_policies_fall_back_per_seed(self, make_policy):
        config = ScenarioConfig.fig1a(seed=5).with_overrides(num_slots=50)
        assert_batch_identical("cache", config, make_policy)

    def test_fading_cost_model_reprepares_every_slot(self):
        # Time-varying costs force a per-slot re-solve in the per-run path;
        # the batched path must re-prepare its stacked tables identically.
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=50, cost_model_kind="fading", cost_sigma=0.5
        )
        assert_batch_identical("cache", config, mdp)

    def test_distance_cost_model(self):
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=50, cost_model_kind="distance"
        )
        assert_batch_identical("cache", config, mdp)

    def test_horizon_override(self):
        config = ScenarioConfig.small(seed=9)
        assert_batch_identical("cache", config, mdp, num_slots=25)

    def test_single_seed_batch_equals_single_run(self):
        config = ScenarioConfig.small(seed=4, num_slots=40)
        assert_batch_identical("cache", config, mdp, seeds=[4])

    def test_default_policies_deep_copy_the_instance(self):
        # policies=None must replicate the per-run semantics: every seed
        # starts from a pristine deep copy of the simulator's own policy, so
        # a stochastic instance replays its internal stream per seed.
        config = ScenarioConfig.small(seed=6, num_slots=40)
        policy = RandomUpdatePolicy(rate=0.5, rng=99)
        singles = [
            CacheSimulator(
                config.with_overrides(seed=seed), copy.deepcopy(policy)
            ).run()
            for seed in SEEDS
        ]
        batch = CacheSimulator(config, policy).run_batch(SEEDS)
        for single, batched in zip(singles, batch):
            assert_same_run(batched, single)

    def test_invalid_batches_rejected(self):
        config = ScenarioConfig.small(seed=0, num_slots=10)
        simulator = CacheSimulator(config, NeverUpdatePolicy())
        with pytest.raises(ValidationError):
            simulator.run_batch([])
        with pytest.raises(ValidationError):
            simulator.run_batch([-1])
        with pytest.raises(ValidationError):
            simulator.run_batch([0, 1], policies=[NeverUpdatePolicy()])


class TestServiceBatchEquivalence:
    def test_lyapunov_fig1b(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=100)
        assert_batch_identical(
            "service", config, lambda cfg: (LyapunovServiceController(cfg.tradeoff_v),)
        )

    def test_always_serve(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(num_slots=80)
        assert_batch_identical("service", config, lambda cfg: (AlwaysServePolicy(),))

    def test_deadlines_poisson_and_service_batch(self):
        config = ScenarioConfig.fig1b(seed=6).with_overrides(
            num_slots=80,
            deadline_slots=4,
            arrival_kind="poisson",
            arrival_rate=3.0,
        )
        assert_batch_identical(
            "service",
            config,
            lambda cfg: (LyapunovServiceController(5.0),),
            service_batch=2,
        )

    def test_cost_greedy(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(
            num_slots=80, arrival_kind="poisson", arrival_rate=2.0
        )
        assert_batch_identical(
            "service", config, lambda cfg: (CostGreedyPolicy(backlog_cap=20.0),)
        )


class TestJointBatchEquivalence:
    @pytest.mark.parametrize("base_seed", [0, 7])
    def test_mdp_plus_lyapunov(self, base_seed):
        config = ScenarioConfig.small(
            seed=base_seed, num_slots=80, arrival_rate=0.8
        )
        assert_batch_identical(
            "joint",
            config,
            lambda cfg: (
                MDPCachingPolicy(config.build_mdp_config()),
                LyapunovServiceController(config.tradeoff_v),
            ),
        )

    def test_aoi_guard_blocks_identically_without_updates(self):
        # A never-updating cache stales out: the per-seed AoI guards must
        # block service at exactly the same slots reading the live tensor.
        config = ScenarioConfig.small(seed=7).with_overrides(
            num_slots=60, arrival_rate=1.0
        )
        singles = [
            JointSimulator(
                config.with_overrides(seed=seed),
                NeverUpdatePolicy(),
                LyapunovServiceController(1.0),
            ).run()
            for seed in SEEDS
        ]
        batch = JointSimulator(
            config, NeverUpdatePolicy(), LyapunovServiceController(1.0)
        ).run_batch(SEEDS)
        for single, batched in zip(singles, batch):
            assert_same_run(batched, single)
