"""Property-based invariants of the vectorised hot loops.

Hypothesis drives random action/cost sequences through the primitives the
vectorised simulators are built on and asserts the invariants the paper's
model guarantees: ages stay in ``[1, ceiling]`` and grow monotonically
between refreshes, and the vectorised cache loop never lets an age escape
its saturation band — and charges exactly the applied update costs — no
matter which update pattern a policy emits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aoi import AoIVector
from repro.net.channel import ConstantCostModel
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator
from repro.core.policies import CachingPolicy


MAX_AGES = st.lists(
    st.floats(min_value=2.0, max_value=20.0, allow_nan=False),
    min_size=1,
    max_size=6,
)

# A run of slots: each slot optionally refreshes one content index.
ACTION_SEQUENCES = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=40,
)


class ScriptedPolicy(CachingPolicy):
    """Replays a pre-drawn per-slot (rsu, slot) update script."""

    name = "scripted"

    def __init__(self, script):
        self._script = script

    def decide(self, observation):
        actions = np.zeros(
            (observation.num_rsus, observation.contents_per_rsu), dtype=int
        )
        entry = self._script[observation.time_slot % len(self._script)]
        if entry is not None:
            rsu, slot = entry
            actions[rsu % observation.num_rsus, slot % observation.contents_per_rsu] = 1
        return actions


@settings(max_examples=40, deadline=None)
@given(max_ages=MAX_AGES, script=ACTION_SEQUENCES)
def test_aoi_vector_stays_in_saturation_band(max_ages, script):
    vector = AoIVector(max_ages)
    ceiling = vector.ceiling
    for entry in script:
        vector.tick(1)
        if entry is not None:
            vector.refresh(entry % len(max_ages), 1.0)
        ages = vector.ages
        assert np.all(ages >= 1.0)
        assert np.all(ages <= ceiling)


@settings(max_examples=40, deadline=None)
@given(max_ages=MAX_AGES, ticks=st.integers(min_value=1, max_value=50))
def test_tick_monotone_until_saturation_without_refresh(max_ages, ticks):
    vector = AoIVector(max_ages)
    previous = vector.ages
    for _ in range(ticks):
        current = vector.tick(1)
        # Ages never decrease without a refresh, and stop growing exactly at
        # the ceiling.
        assert np.all(current >= previous)
        assert np.all(current[previous < vector.ceiling] > previous[previous < vector.ceiling])
        assert np.all(current <= vector.ceiling)
        previous = current


@settings(max_examples=15, deadline=None)
@given(
    script=st.lists(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ),
        ),
        min_size=1,
        max_size=30,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_vectorized_cache_loop_invariants(script, seed):
    """Random update scripts: ages bounded, charges equal applied costs."""
    config = ScenarioConfig.small(seed=seed, num_slots=len(script))
    result = CacheSimulator(config, ScriptedPolicy(script)).run()
    history = result.metrics.age_matrix_history()
    actions = result.metrics.action_matrix_history()
    # Ages recorded by the hot loop stay within [1, 2 * max(A_max)] — the
    # per-cache saturation band — for every slot, RSU, and content.
    assert np.all(history >= 1.0)
    ceilings = 2.0 * result.metrics._max_ages.max(axis=1, keepdims=True)
    assert np.all(history <= ceilings[np.newaxis, :, :] + 1e-12)
    # A refreshed copy is observed at age exactly 1 in the same slot.
    assert np.all(history[actions > 0] == 1.0)
    # The accumulated cost equals cost-per-update times update count for the
    # constant cost model of the small scenario.
    assert isinstance(config.build_update_cost_model(), ConstantCostModel)
    expected = config.update_cost * actions.sum()
    assert result.metrics.reward.total_cost == pytest.approx(expected)
