"""Array-native scenario construction against a per-RSU object model.

:class:`~repro.sim.system.SystemState` builds each run's matrices from
catalog and workload arrays and draws every RSU's initial ages in one
``uniform`` call.  The reference below builds the same scenario the way
the object model did: a descriptor per content, popularity renormalised
per RSU, one age draw and one cache object per RSU.  Every matrix must
match bit for bit, and all six RNG streams must be left in the same
state, over generated scenarios rather than a few pinned seeds.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aoi import AoIVector
from repro.net.content import ContentCatalog, ContentDescriptor, zipf_popularity
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState
from repro.utils.validation import check_probability_vector
from repro.workloads.trace import export_trace, read_trace

MATRICES = (
    "content_ids",
    "content_slot",
    "max_ages",
    "content_sizes",
    "popularity",
    "mbs_distances",
    "cache_ceilings",
    "ages",
)


def _trace_popularity(path, config, base_rows):
    """Each RSU's empirical request frequencies, as the trace workload weighs them."""
    counts = np.zeros_like(base_rows)
    per_rsu = config.contents_per_rsu
    for _, rsu, content in read_trace(path)[0]:
        counts[rsu, content - rsu * per_rsu] += 1.0
    rows = []
    for count, base in zip(counts, base_rows):
        rows.append(count / count.sum() if count.sum() > 0 else base)
    return np.asarray(rows)


def object_model_reference(config, trace_path=None):
    """*config*'s matrices built per content and per RSU, and its streams."""
    streams = config.spawn_rngs(6)
    catalog_rng, init_rng = streams[0], streams[1]
    topology = config.build_topology()
    max_age_draws = catalog_rng.integers(
        int(round(config.min_max_age)),
        int(round(config.max_max_age)) + 1,
        size=config.num_contents,
    ).astype(float)
    catalog = ContentCatalog(
        [
            ContentDescriptor(content_id=h, region=h, max_age=float(age))
            for h, age in enumerate(max_age_draws)
        ],
        popularity=zipf_popularity(config.num_contents, config.zipf_exponent),
    )
    rows = {name: [] for name in MATRICES if name != "content_slot"}
    content_slot = np.zeros(config.num_contents, dtype=int)
    for rsu in topology.rsus:
        contents = list(rsu.covered_regions)
        row_max_ages = np.asarray([catalog[h].max_age for h in contents])
        if config.zipf_exponent == 0:
            weights = catalog.subset_popularity(contents)
        else:
            weights = zipf_popularity(len(contents), config.zipf_exponent)
        ages = None
        if config.random_initial_ages:
            ages = np.maximum(init_rng.uniform(1.0, row_max_ages), 1.0)
        cache = AoIVector(row_max_ages, initial_ages=ages)
        for slot, h in enumerate(contents):
            content_slot[h] = slot
        rows["content_ids"].append(contents)
        rows["max_ages"].append(row_max_ages)
        rows["content_sizes"].append([catalog[h].size for h in contents])
        rows["popularity"].append(
            check_probability_vector(weights, f"popularity of RSU {rsu.rsu_id}")
        )
        rows["mbs_distances"].append([abs(rsu.position - topology.mbs.position)])
        rows["cache_ceilings"].append([cache.ceiling])
        rows["ages"].append(cache.ages)
    matrices = {name: np.asarray(values) for name, values in rows.items()}
    matrices["content_slot"] = content_slot
    if trace_path is not None:
        matrices["popularity"] = _trace_popularity(
            trace_path, config, matrices["popularity"]
        )
    return matrices, streams


def _stream_states(streams):
    return [stream.bit_generator.state for stream in streams]


def _streams_of(state):
    return [
        state.catalog_rng,
        state.init_rng,
        state.workload_rng,
        state.update_cost_rng,
        state.service_cost_rng,
        state.policy_rng,
    ]


scenarios = st.fixed_dictionaries(
    {
        "num_rsus": st.integers(1, 6),
        "contents_per_rsu": st.integers(1, 6),
        "zipf_exponent": st.sampled_from([0.0, 0.4, 1.3]),
        "random_initial_ages": st.booleans(),
        "min_max_age": st.sampled_from([1.0, 3.0, 5.0]),
        "cost_model_kind": st.sampled_from(["constant", "distance", "fading"]),
        "seed": st.integers(0, 2**32),
    }
)


class TestArrayBuildMatchesObjectModel:
    @given(
        params=scenarios,
        workload=st.sampled_from(["stationary", "drift:period=3,step=0.4", "trace"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrices_and_streams_match(self, params, workload):
        config = ScenarioConfig(num_slots=12, max_max_age=9.0, **params)
        with tempfile.TemporaryDirectory() as directory:
            trace_path = None
            if workload == "trace":
                trace_path = os.path.join(directory, "workload.jsonl")
                export_trace(SystemState(config).workload, 12, trace_path)
                workload = f"trace:path={trace_path}"
            config = config.with_overrides(workload=workload)
            state = SystemState(config)
            expected, streams = object_model_reference(config, trace_path)
        for name in MATRICES:
            actual = getattr(state, name)
            assert actual.shape == expected[name].shape, name
            expected_bytes = expected[name].astype(actual.dtype).tobytes()
            assert actual.tobytes() == expected_bytes, name
        # The array build consumed exactly the draws of the object model.
        assert _stream_states(_streams_of(state)) == _stream_states(streams)

    @given(params=scenarios)
    @settings(max_examples=30, deadline=None)
    def test_scalar_observation_matches_vector_observation(self, params):
        state = SystemState(ScenarioConfig(num_slots=5, max_max_age=9.0, **params))
        scalar = state.observation(0, state.reference_caches())
        vector = state.observation_vector(0, state.ages)
        for name in ("ages", "max_ages", "popularity", "update_costs", "mbs_ages"):
            assert getattr(scalar, name).tobytes() == getattr(vector, name).tobytes()


class TestInitialAges:
    def test_random_ages_within_limits(self):
        state = SystemState(ScenarioConfig(num_rsus=4, contents_per_rsu=5, seed=0))
        assert np.all(state.ages >= 1.0)
        assert np.all(state.ages <= state.max_ages)

    def test_random_ages_deterministic(self):
        config = ScenarioConfig(num_rsus=4, contents_per_rsu=5, seed=9)
        first, second = SystemState(config), SystemState(config)
        np.testing.assert_array_equal(first.ages, second.ages)

    def test_fixed_ages_are_fresh(self):
        state = SystemState(ScenarioConfig.small(seed=3, random_initial_ages=False))
        np.testing.assert_array_equal(state.ages, np.ones_like(state.max_ages))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_reference_caches_start_at_the_state_ages(self, seed):
        state = SystemState(ScenarioConfig.small(seed=seed))
        caches = state.reference_caches()
        np.testing.assert_array_equal(
            np.stack([cache.ages for cache in caches]), state.ages
        )
        ceilings = [cache.age_ceiling for cache in caches]
        assert ceilings == state.cache_ceilings[:, 0].tolist()
