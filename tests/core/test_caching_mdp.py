"""Tests for repro.core.caching_mdp (the paper's cache-management MDP)."""

from __future__ import annotations

import hashlib
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import caching_mdp
from repro.core.caching_mdp import (
    AgeGrid,
    BatchedCacheDecider,
    CachingMDPConfig,
    ContentUpdateMDP,
    MDPCachingPolicy,
    RSUCachingMDP,
)
from repro.core.policies import CacheObservation
from repro.core.solve_cache import (
    configure_solve_cache,
    global_solve_cache,
    reset_solve_cache,
)
from repro.core.solvers import value_iteration
from repro.exceptions import ConfigurationError, ValidationError
from repro.sim import CacheSimulator
from repro.sim.scenario import ScenarioConfig


def make_observation(
    ages,
    max_ages=None,
    popularity=None,
    costs=None,
    time_slot=0,
) -> CacheObservation:
    ages = np.asarray(ages, dtype=float)
    if max_ages is None:
        max_ages = np.full_like(ages, 6.0)
    if popularity is None:
        popularity = np.full_like(ages, 1.0 / ages.shape[1])
    if costs is None:
        costs = np.full_like(ages, 1.0)
    return CacheObservation(
        time_slot=time_slot,
        ages=ages,
        max_ages=np.asarray(max_ages, dtype=float),
        popularity=np.asarray(popularity, dtype=float),
        update_costs=np.asarray(costs, dtype=float),
    )


class TestAgeGrid:
    def test_round_trip(self):
        grid = AgeGrid(8)
        for age in range(1, 9):
            assert grid.age_of(grid.index_of(age)) == age

    def test_clamping(self):
        grid = AgeGrid(5)
        assert grid.index_of(100.0) == 4
        assert grid.index_of(0.2) == 0

    def test_next_age_saturates(self):
        grid = AgeGrid(5)
        assert grid.next_age(5) == 5
        assert grid.next_age(3) == 4

    def test_invalid_index_rejected(self):
        with pytest.raises(ValidationError):
            AgeGrid(5).age_of(5)

    def test_invalid_age_rejected(self):
        with pytest.raises(ValidationError):
            AgeGrid(5).index_of(float("nan"))


class TestCachingMDPConfig:
    def test_defaults_valid(self):
        CachingMDPConfig().validate()

    def test_ceiling_for_respects_override(self):
        config = CachingMDPConfig(age_ceiling=7)
        assert config.ceiling_for(100.0) == 7

    def test_ceiling_for_derives_from_max_age(self):
        config = CachingMDPConfig(max_age_ceiling=30)
        assert config.ceiling_for(5.0) == 10

    def test_ceiling_capped(self):
        config = CachingMDPConfig(max_age_ceiling=12)
        assert config.ceiling_for(100.0) == 12

    def test_invalid_discount_rejected(self):
        with pytest.raises(ValidationError):
            CachingMDPConfig(discount=1.0).validate()

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValidationError):
            CachingMDPConfig(violation_penalty=-1.0).validate()


class TestContentUpdateMDP:
    def test_state_and_action_counts(self):
        mdp = ContentUpdateMDP(max_age=5.0, popularity=0.5, update_cost=1.0)
        assert mdp.num_actions == 2
        assert mdp.num_states == mdp.grid.num_levels

    def test_transitions_are_deterministic(self):
        mdp = ContentUpdateMDP(max_age=5.0, popularity=0.5, update_cost=1.0)
        for state in range(mdp.num_states):
            for action in (0, 1):
                distribution = mdp.transition_distribution(state, action)
                assert sum(distribution.values()) == pytest.approx(1.0)
                assert len(distribution) == 1

    def test_update_leads_to_fresh_state(self):
        mdp = ContentUpdateMDP(max_age=5.0, popularity=0.5, update_cost=1.0)
        stale = mdp.grid.index_of(8)
        (next_state,) = mdp.transition_distribution(stale, 1).keys()
        assert mdp.grid.age_of(next_state) == 2  # refreshed to 1, then aged by 1

    def test_skip_ages_by_one(self):
        mdp = ContentUpdateMDP(max_age=5.0, popularity=0.5, update_cost=1.0)
        state = mdp.grid.index_of(3)
        (next_state,) = mdp.transition_distribution(state, 0).keys()
        assert mdp.grid.age_of(next_state) == 4

    def test_reward_structure(self):
        mdp = ContentUpdateMDP(
            max_age=6.0,
            popularity=0.5,
            update_cost=2.0,
            config=CachingMDPConfig(weight=1.0, violation_penalty=0.0),
        )
        stale = mdp.grid.index_of(6)
        skip = mdp.expected_reward(stale, 0)
        update = mdp.expected_reward(stale, 1)
        # skip: 0.5 * 6/6 = 0.5; update: 0.5 * 6/1 - 2 = 1.0
        assert skip == pytest.approx(0.5)
        assert update == pytest.approx(1.0)

    def test_violation_penalty_applied_to_skip(self):
        config = CachingMDPConfig(weight=1.0, violation_penalty=10.0)
        mdp = ContentUpdateMDP(
            max_age=4.0, popularity=0.5, update_cost=1.0, config=config
        )
        violating = mdp.grid.index_of(6)
        assert mdp.expected_reward(violating, 0) < -5.0
        assert mdp.expected_reward(violating, 1) > 0.0

    def test_bad_action_rejected(self):
        mdp = ContentUpdateMDP(max_age=5.0, popularity=0.5, update_cost=1.0)
        with pytest.raises(ValidationError):
            mdp.expected_reward(0, 7)

    def test_optimal_policy_refreshes_stale_content(self):
        mdp = ContentUpdateMDP(
            max_age=6.0,
            popularity=1.0,
            update_cost=1.0,
            config=CachingMDPConfig(weight=2.0, discount=0.9),
        )
        result = value_iteration(mdp, discount=0.9)
        stale = mdp.grid.index_of(mdp.grid.ceiling)
        assert result.policy[stale] == 1

    def test_free_updates_always_taken(self):
        mdp = ContentUpdateMDP(
            max_age=6.0,
            popularity=1.0,
            update_cost=0.0,
            config=CachingMDPConfig(weight=1.0),
        )
        result = value_iteration(mdp, discount=0.9)
        # With zero cost, updating dominates whenever the content is not fresh.
        for age in range(2, mdp.grid.ceiling + 1):
            assert result.policy[mdp.grid.index_of(age)] == 1


class TestRSUCachingMDP:
    @pytest.fixture
    def rsu_mdp(self):
        return RSUCachingMDP(
            max_ages=[4.0, 4.0],
            popularity=[0.5, 0.5],
            update_costs=[1.0, 1.0],
            config=CachingMDPConfig(weight=2.0, age_ceiling=5),
        )

    def test_state_space_size(self, rsu_mdp):
        assert rsu_mdp.num_states == 25
        assert rsu_mdp.num_actions == 3

    def test_encode_decode_round_trip(self, rsu_mdp):
        for ages in ([1.0, 1.0], [3.0, 5.0], [5.0, 2.0]):
            state = rsu_mdp.encode_ages(ages)
            np.testing.assert_allclose(rsu_mdp.decode_state(state), ages)

    def test_action_vector(self, rsu_mdp):
        np.testing.assert_array_equal(rsu_mdp.action_vector(0), [0, 0])
        np.testing.assert_array_equal(rsu_mdp.action_vector(2), [0, 1])

    def test_transition_updates_one_content(self, rsu_mdp):
        state = rsu_mdp.encode_ages([4.0, 3.0])
        (next_state,) = rsu_mdp.transition_distribution(state, 1).keys()
        np.testing.assert_allclose(rsu_mdp.decode_state(next_state), [2.0, 4.0])

    def test_no_update_ages_everything(self, rsu_mdp):
        state = rsu_mdp.encode_ages([2.0, 3.0])
        (next_state,) = rsu_mdp.transition_distribution(state, 0).keys()
        np.testing.assert_allclose(rsu_mdp.decode_state(next_state), [3.0, 4.0])

    def test_reward_uses_equation_1(self):
        mdp = RSUCachingMDP(
            max_ages=[4.0],
            popularity=[1.0],
            update_costs=[2.0],
            config=CachingMDPConfig(weight=1.0, age_ceiling=6, violation_penalty=0.0),
        )
        stale = mdp.encode_ages([4.0])
        assert mdp.expected_reward(stale, 0) == pytest.approx(1.0)
        assert mdp.expected_reward(stale, 1) == pytest.approx(4.0 - 2.0)

    def test_violation_penalty_counts_violations(self):
        mdp = RSUCachingMDP(
            max_ages=[3.0, 3.0],
            popularity=[0.5, 0.5],
            update_costs=[1.0, 1.0],
            config=CachingMDPConfig(weight=1.0, age_ceiling=6, violation_penalty=5.0),
        )
        both_stale = mdp.encode_ages([5.0, 5.0])
        one_fixed = mdp.expected_reward(both_stale, 1)
        none_fixed = mdp.expected_reward(both_stale, 0)
        assert one_fixed > none_fixed

    def test_state_space_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            RSUCachingMDP(
                max_ages=[10.0] * 8,
                popularity=[0.125] * 8,
                update_costs=[1.0] * 8,
                config=CachingMDPConfig(age_ceiling=12),
                max_states=1000,
            )

    def test_mismatched_parameter_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            RSUCachingMDP(
                max_ages=[4.0, 4.0],
                popularity=[1.0],
                update_costs=[1.0, 1.0],
            )

    def test_optimal_policy_keeps_ages_bounded(self):
        mdp = RSUCachingMDP(
            max_ages=[4.0, 4.0],
            popularity=[0.5, 0.5],
            update_costs=[0.5, 0.5],
            config=CachingMDPConfig(weight=2.0, age_ceiling=6),
        )
        result = value_iteration(mdp, discount=0.9, tolerance=1e-7)
        # Simulate the greedy policy for 40 slots from the all-stale state.
        # Only one content can be refreshed per slot, so the other content is
        # necessarily stale during the first few slots; after that warm-up the
        # policy must keep both ages at or below their maximum.
        ages = np.array([6.0, 6.0])
        worst_after_warmup = 0.0
        for step in range(40):
            state = mdp.encode_ages(ages)
            action = int(result.policy[state])
            updates = mdp.action_vector(action)
            ages = np.where(updates > 0, 1.0, ages)
            if step >= 3:
                worst_after_warmup = max(worst_after_warmup, ages.max())
            ages = np.minimum(ages + 1.0, 6.0)
        assert worst_after_warmup <= 4.0


class TestMDPCachingPolicy:
    def test_respects_one_update_per_rsu(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=5.0))
        observation = make_observation(np.full((3, 4), 6.0))
        actions = policy.decide(observation)
        assert actions.shape == (3, 4)
        assert np.all(actions.sum(axis=1) <= 1)

    def test_fresh_cache_not_updated_when_costly(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=1.0))
        observation = make_observation(
            np.ones((2, 3)), costs=np.full((2, 3), 5.0)
        )
        actions = policy.decide(observation)
        assert actions.sum() == 0

    def test_stale_content_selected(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=5.0))
        ages = np.array([[1.0, 1.0, 9.0]])
        observation = make_observation(ages, max_ages=np.full((1, 3), 6.0))
        actions = policy.decide(observation)
        assert actions[0, 2] == 1

    def test_exact_and_factored_modes_agree_on_small_instance(self):
        config = CachingMDPConfig(weight=3.0, age_ceiling=5)
        ages = np.array([[4.0, 2.0]])
        max_ages = np.array([[4.0, 4.0]])
        costs = np.array([[0.5, 0.5]])
        popularity = np.array([[0.5, 0.5]])
        observation = CacheObservation(
            time_slot=0,
            ages=ages,
            max_ages=max_ages,
            popularity=popularity,
            update_costs=costs,
        )
        exact = MDPCachingPolicy(config, mode="exact").decide(observation)
        factored = MDPCachingPolicy(config, mode="factored").decide(observation)
        np.testing.assert_array_equal(exact, factored)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            MDPCachingPolicy(mode="bogus")

    def test_models_are_reused_between_calls(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=2.0), mode="factored")
        observation = make_observation(np.full((1, 2), 3.0))
        policy.decide(observation)
        first_table = policy._advantage_table
        policy.decide(make_observation(np.full((1, 2), 5.0)))
        assert policy._advantage_table is first_table

    def test_models_rebuilt_when_parameters_change(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=2.0), mode="factored")
        policy.decide(make_observation(np.full((1, 2), 3.0)))
        before = policy._advantage_table
        policy.decide(
            make_observation(np.full((1, 2), 3.0), costs=np.full((1, 2), 9.0))
        )
        assert not np.array_equal(policy._advantage_table, before)

    def test_advantage_increases_with_age(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=2.0), mode="factored")
        policy.decide(make_observation(np.full((1, 2), 1.0)))
        assert np.all(np.diff(policy._advantage_table, axis=-1) >= -1e-9)

    def test_reset_clears_models(self):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=2.0), mode="factored")
        policy.decide(make_observation(np.full((1, 2), 3.0)))
        policy.reset()
        assert policy._advantage_table is None

    @given(age=st.floats(min_value=1.0, max_value=12.0))
    @settings(max_examples=25, deadline=None)
    def test_property_actions_always_binary(self, age):
        policy = MDPCachingPolicy(CachingMDPConfig(weight=3.0))
        observation = make_observation(np.full((2, 2), age))
        actions = policy.decide(observation)
        assert set(np.unique(actions)).issubset({0, 1})

    def test_exact_rsus_solve_no_content_models(self):
        # Both RSUs of the small scenario run exact: the run solves no
        # single-content model, and records the trajectory it recorded
        # while it still solved (and discarded) one per content key.
        config = ScenarioConfig.small(seed=0)
        policy = MDPCachingPolicy(config.build_mdp_config())
        metrics = CacheSimulator(config, policy).run(num_slots=40).metrics
        assert not policy._factored.any() and policy._advantage_table is None
        digest = hashlib.sha256(metrics.age_matrix_history().tobytes())
        digest.update(metrics.action_matrix_history().tobytes())
        digest.update(np.asarray(metrics.reward.totals).tobytes())
        assert digest.hexdigest() == (
            "a588d4ff47c9e1a9c33090c297efec09abd441b20ae457c5bd13b1a8b24d096d"
        )

    def test_mixed_rows_solve_the_factored_rows_only(self):
        # Row 0's joint space (3 x 3 grid ages) fits the limit, row 1's
        # (12 x 12) does not: each row decides as its own mode would, and
        # only row 1's two content keys are solved.
        config = CachingMDPConfig(weight=2.0)
        observation = make_observation(
            [[2.0, 3.0], [9.0, 4.0]],
            max_ages=[[1.5, 1.5], [6.0, 6.0]],
            popularity=[[0.5, 0.5], [0.3, 0.7]],
            costs=[[0.5, 0.5], [1.0, 1.0]],
        )
        policy = MDPCachingPolicy(config, exact_state_limit=50)
        actions = policy.decide(observation)
        assert policy._factored.tolist() == [False, True]
        assert policy._advantage_table.shape[:2] == (1, 2)
        exact = MDPCachingPolicy(config, mode="exact").decide(observation)
        factored = MDPCachingPolicy(config, mode="factored").decide(observation)
        np.testing.assert_array_equal(actions, [exact[0], factored[1]])


class TestBatchedCacheDecider:
    def _grid(self, seeds=3, rsus=2, contents=4):
        rng = np.random.default_rng(3)
        max_ages = rng.integers(3, 9, size=(seeds, rsus, contents)).astype(float)
        popularity = rng.dirichlet(np.ones(contents), size=(seeds, rsus))
        costs = rng.uniform(0.1, 2.0, size=(seeds, rsus, contents))
        ages = rng.uniform(1.0, 12.0, size=(seeds, rsus, contents))
        return max_ages, popularity, costs, ages

    def test_matches_each_seed_policy_through_jitter_and_moves(self):
        max_ages, popularity, costs, ages = self._grid()
        config = CachingMDPConfig(weight=2.0)
        decider = BatchedCacheDecider(
            [MDPCachingPolicy(config, use_solve_cache=False) for _ in range(3)]
        )
        own = [MDPCachingPolicy(config, use_solve_cache=False) for _ in range(3)]
        jittered = costs + 1e-12
        moved = jittered.copy()
        moved[1] += 0.5
        tables = []
        for step in (costs, jittered, moved):
            assert decider.prepare(max_ages, popularity, step)
            expected = np.stack(
                [
                    policy.decide(
                        make_observation(ages[s], max_ages[s], popularity[s], step[s])
                    )
                    for s, policy in enumerate(own)
                ]
            )
            np.testing.assert_array_equal(decider.decide(ages), expected)
            tables.append(decider._tables)
        # Sub-1e-9 jitter keeps the solved tables; a move re-solves only the
        # seed that moved.
        assert tables[1] is tables[0]
        np.testing.assert_array_equal(tables[2][[0, 2]], tables[0][[0, 2]])
        assert not np.array_equal(tables[2][1], tables[0][1])

    def test_exact_mode_seed_falls_back(self):
        max_ages, popularity, costs, _ = self._grid(rsus=1, contents=2)
        policies = [MDPCachingPolicy(mode="factored") for _ in range(2)]
        policies.append(MDPCachingPolicy(mode="auto"))
        assert not BatchedCacheDecider(policies).prepare(max_ages, popularity, costs)

    def test_mixed_configs_are_not_batched(self):
        policies = [
            MDPCachingPolicy(CachingMDPConfig(weight=1.0)),
            MDPCachingPolicy(CachingMDPConfig(weight=2.0)),
        ]
        assert not BatchedCacheDecider.supports(policies)
        assert BatchedCacheDecider.supports(policies[:1])


def _per_key_solves(keys, config):
    """Solve *keys* one at a time by value iteration.

    The reference the stacked ``caching_mdp._solve_content_keys`` must
    reproduce, Q-table for Q-table.
    """
    return [
        value_iteration(
            ContentUpdateMDP(
                max_age=key[0], popularity=key[1], update_cost=key[2], config=config
            ),
            discount=config.discount,
            tolerance=1e-9,
        )
        for key in keys
    ]


def _npz_members(directory):
    """``{file name: [(member, bytes), ...]}`` of every stored solve.

    Members are compared uncompressed: the zip headers carry the write time.
    """
    stored = {}
    for path in sorted(directory.glob("*.npz")):
        with zipfile.ZipFile(path) as archive:
            stored[path.name] = [
                (info.filename, archive.read(info)) for info in archive.infolist()
            ]
    return stored


class TestColdPrepare:
    """A prepare solves its keys in one stacked pass, yet builds exactly the
    tables per-key solves would, and never touches the solve cache."""

    def _params(self, seed, seeds=2, rsus=4, contents=8):
        rng = np.random.default_rng(seed)
        max_ages = rng.integers(1, 9, size=(seeds, rsus, contents)).astype(float)
        popularity = rng.dirichlet(np.ones(contents), size=(seeds, rsus))
        costs = rng.uniform(0.1, 2.0, size=(seeds, rsus, contents))
        return max_ages, popularity, costs

    def _steps(self):
        first = self._params(11)
        # Half the cells keep their keys, the other half move to fresh keys.
        second = tuple(array.copy() for array in first)
        second[2][:, :2] += 0.25
        return [first, second, first]

    def _run(self, tmp_path, name, monkeypatch, per_key):
        directory = tmp_path / name
        cache = configure_solve_cache(directory=str(directory))
        with monkeypatch.context() as patch:
            if per_key:
                patch.setattr(caching_mdp, "_solve_content_keys", _per_key_solves)
            decider = BatchedCacheDecider(
                [MDPCachingPolicy(CachingMDPConfig(weight=2.0)) for _ in range(2)]
            )
            tables = []
            for step in self._steps():
                assert decider.prepare(*step)
                tables.append((decider._tables, decider._ceilings))
            fresh = BatchedCacheDecider([MDPCachingPolicy(CachingMDPConfig(weight=2.0))])
            assert fresh.prepare(*(array[:1] for array in self._steps()[1]))
            tables.append((fresh._tables, fresh._ceilings))
        return {
            "tables": tables,
            "stats": cache.stats.as_dict(),
            "files": _npz_members(directory),
        }

    def test_matches_per_key_solves(self, tmp_path, monkeypatch):
        try:
            stacked = self._run(tmp_path, "stacked", monkeypatch, per_key=False)
            per_key = self._run(tmp_path, "per-key", monkeypatch, per_key=True)
        finally:
            reset_solve_cache()
        # Content-update solves never reach the solve cache.
        assert stacked["stats"]["solicitations"] == stacked["stats"]["stores"] == 0
        assert stacked["files"] == {}
        for (table, ceilings), (want_table, want_ceilings) in zip(
            stacked["tables"], per_key["tables"]
        ):
            np.testing.assert_array_equal(table, want_table)
            np.testing.assert_array_equal(ceilings, want_ceilings)

    def test_without_solve_cache(self, tmp_path, monkeypatch):
        max_ages, popularity, costs = (array[0] for array in self._params(12))
        ages = np.random.default_rng(4).uniform(1.0, 12.0, size=max_ages.shape)
        observation = make_observation(ages, max_ages, popularity, costs)
        cache = configure_solve_cache(directory=str(tmp_path / "unused"))
        try:
            runs = []
            for per_key in (False, True):
                with monkeypatch.context() as patch:
                    if per_key:
                        patch.setattr(
                            caching_mdp, "_solve_content_keys", _per_key_solves
                        )
                    policy = MDPCachingPolicy(
                        CachingMDPConfig(weight=2.0),
                        mode="factored",
                        use_solve_cache=False,
                    )
                    actions = policy.decide(observation)
                    runs.append((actions, policy._advantage_table))
        finally:
            reset_solve_cache()
        (actions, table), expected = runs
        np.testing.assert_array_equal(actions, expected[0])
        np.testing.assert_array_equal(table, expected[1])
        assert cache.stats.solicitations == cache.stats.stores == 0
        assert not (tmp_path / "unused").exists()


class TestSolveCacheBoundary:
    """The solve cache serves exact per-RSU solves only; factored prepares
    solve their content-update MDPs in memory and never consult it."""

    #: The rsu-joint keys of _exact_observation at weight 2.0.  Keys fold in
    #: every solve parameter and SOLVER_CODE_VERSION, so a change here
    #: orphans every persisted exact solve.
    EXACT_KEYS = [
        "077d1825a665b4c6e082a186b1a00f2194eb008ea1fa5142ecdfd7461f09593c.npz",
        "3b3784e33831491a55818b35ee8342d51898c7e8bf3625d7a162a7236c6484b9.npz",
    ]

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        directory = tmp_path / "solves"
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(directory))
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        reset_solve_cache()
        yield directory
        reset_solve_cache()

    @staticmethod
    def _exact_observation():
        return make_observation(
            [[1.0, 4.0], [3.0, 2.0]],
            max_ages=[[3.0, 5.0], [4.0, 6.0]],
            popularity=[[0.25, 0.75], [0.5, 0.5]],
            costs=[[0.5, 1.0], [1.5, 0.25]],
        )

    def test_cold_factored_prepare_skips_the_solve_cache(self, cache_dir):
        max_ages, popularity, costs = TestColdPrepare()._params(13)
        policies = [MDPCachingPolicy(CachingMDPConfig(weight=2.0)) for _ in range(2)]
        decider = BatchedCacheDecider(policies)
        assert decider.prepare(max_ages, popularity, costs)
        assert decider._tables.shape[:3] == max_ages.shape
        stats = global_solve_cache().stats
        assert stats.solicitations == stats.stores == 0
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_exact_solves_persist_and_reload_from_disk(self, cache_dir):
        observation = self._exact_observation()
        config = CachingMDPConfig(weight=2.0)
        first = MDPCachingPolicy(config, mode="exact")
        actions = first.decide(observation)
        stats = global_solve_cache().stats
        assert stats.misses == stats.stores == len(self.EXACT_KEYS)
        assert sorted(path.name for path in cache_dir.iterdir()) == self.EXACT_KEYS
        # A fresh cache over the same directory models a new process.
        reset_solve_cache()
        second = MDPCachingPolicy(config, mode="exact")
        np.testing.assert_array_equal(second.decide(observation), actions)
        stats = global_solve_cache().stats
        assert stats.disk_hits == len(self.EXACT_KEYS)
        assert stats.misses == stats.stores == 0
        for rsu in range(2):
            np.testing.assert_array_equal(
                second._rsu_models[rsu].result.q_values,
                first._rsu_models[rsu].result.q_values,
            )
