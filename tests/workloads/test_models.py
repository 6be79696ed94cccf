"""Behavioural tests of the built-in workload models.

Includes the golden-fingerprint pins asserting the ``stationary`` workload
(and therefore the default scenario configuration) is byte-identical to the
pre-workload-subsystem trajectories: the hashes below were captured from
the repository *before* ``repro.workloads`` existed.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.net import requests as requests_module
from repro.net.content import ContentCatalog
from repro.net.requests import BernoulliArrivals, PoissonArrivals, RequestGenerator
from repro.net.topology import RoadTopology
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator, JointSimulator, ServiceSimulator
from repro.workloads import (
    WorkloadSpec,
    create_workload,
    export_trace,
    workload_names,
)

#: Synthetic model specs (with parameters chosen so dynamics actually kick
#: in within a short horizon) reused across the behavioural tests.
SYNTHETIC_SPECS = [
    "stationary",
    "drift:period=10,step=0.6",
    "flash-crowd:burst_prob=0.3,duration=5",
    "shot-noise:event_rate=0.2,mean_lifetime=8",
]


@pytest.fixture
def topology():
    return RoadTopology(8, 4)


@pytest.fixture
def catalog():
    return ContentCatalog.random(8, rng=1)


def build(spec_text, topology, catalog, *, rng=7, rate=0.9):
    return create_workload(
        spec_text,
        topology,
        catalog,
        arrivals=BernoulliArrivals(rate),
        rng=rng,
    )


class TestGoldenStationaryFingerprints:
    """Pins: default workload == the pre-PR-3 trajectories, byte for byte."""

    def test_request_stream_fingerprint(self):
        topology = RoadTopology(20, 5)
        catalog = ContentCatalog.random(20, rng=3)
        generator = RequestGenerator(
            topology, catalog, arrivals=PoissonArrivals(1.5), rng=42
        )
        trace = generator.generate_trace(50)
        blob = ",".join(
            f"{r.time_slot}:{r.rsu_id}:{r.content_id}" for r in trace
        )
        assert len(trace) == 364
        assert (
            hashlib.sha256(blob.encode()).hexdigest()
            == "184ed55609018bfd113d97c6428200df36ffe8875a7c0ae87b207e1b1302bf3d"
        )

    def test_service_simulator_fingerprint(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=120)
        result = ServiceSimulator(
            config, LyapunovServiceController(config.tradeoff_v)
        ).run()
        latency = result.metrics.latency_history()
        assert (
            hashlib.sha256(latency.tobytes()).hexdigest()
            == "c84f3796255bbb9a90930a093b47b9ec2d0eefbdbb0649dd4e9137519b96c971"
        )

    def test_cache_simulator_fingerprint(self):
        config = ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=80)
        result = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run()
        assert (
            hashlib.sha256(np.asarray(result.cumulative_reward).tobytes()).hexdigest()
            == "84fc19088eaf597ec4c2481bd08f8bb90d103d7418cbafe4effb57a32bd24b49"
        )

    def test_joint_simulator_fingerprint(self):
        config = ScenarioConfig.small(seed=7, num_slots=60, arrival_rate=0.8)
        result = JointSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            LyapunovServiceController(config.tradeoff_v),
        ).run()
        assert result.service_metrics.total_served == 99
        assert repr(result.cache_metrics.reward.total_reward) == "140.25699190778818"

    def test_explicit_stationary_spec_matches_default(self):
        config = ScenarioConfig.small(seed=3, num_slots=40, arrival_rate=0.9)
        explicit = config.with_overrides(workload="stationary")
        a = ServiceSimulator(config, LyapunovServiceController(5.0)).run()
        b = ServiceSimulator(explicit, LyapunovServiceController(5.0)).run()
        assert np.array_equal(
            a.metrics.latency_history(), b.metrics.latency_history()
        )
        assert a.summary() == b.summary()

    def test_stationary_model_matches_request_generator_draws(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=BernoulliArrivals(0.9), rng=11
        )
        model = build("stationary", topology, catalog, rng=11)
        for t in range(30):
            expected = generator.generate_slot_contents(t)
            actual = model.generate_slot_contents(t)
            assert len(expected) == len(actual)
            for (r1, c1), (r2, c2) in zip(expected, actual):
                assert r1 == r2
                assert np.array_equal(c1, c2)


class TestHorizonEquivalence:
    @pytest.mark.parametrize("spec_text", SYNTHETIC_SPECS)
    def test_generate_horizon_replays_per_slot_draws(
        self, spec_text, topology, catalog
    ):
        horizon = build(spec_text, topology, catalog).generate_horizon(40)
        sequential = build(spec_text, topology, catalog)
        for t in range(40):
            expected = sequential.generate_slot_contents(t)
            actual = horizon.slot_batches(t)
            assert len(expected) == len(actual), (spec_text, t)
            for (r1, c1), (r2, c2) in zip(expected, actual):
                assert r1 == r2
                assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("spec_text", SYNTHETIC_SPECS)
    def test_horizon_matches_generate_slot_requests(
        self, spec_text, topology, catalog
    ):
        horizon = build(spec_text, topology, catalog).generate_horizon(40)
        sequential = build(spec_text, topology, catalog)
        for t in range(40):
            requests = sequential.generate_slot(t)
            flat = [
                (rsu_id, int(content_id))
                for rsu_id, content_ids in horizon.slot_batches(t)
                for content_id in content_ids
            ]
            assert [(r.rsu_id, r.content_id) for r in requests] == flat

    def test_horizon_out_of_range_rejected(self, topology, catalog):
        horizon = build("stationary", topology, catalog).generate_horizon(10)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            horizon.slot_batches(10)
        with pytest.raises(ValidationError):
            horizon.slot_batches(-1)

    def test_horizon_counts_match_batches(self, topology, catalog):
        horizon = build("stationary", topology, catalog).generate_horizon(25)
        counts = horizon.counts()
        assert counts.shape == (25, topology.num_rsus)
        assert counts.sum() == horizon.total_requests

    def test_same_seed_same_horizon_different_seed_differs(self, topology, catalog):
        a = build("drift:period=5", topology, catalog, rng=1).generate_horizon(60)
        b = build("drift:period=5", topology, catalog, rng=1).generate_horizon(60)
        c = build("drift:period=5", topology, catalog, rng=2).generate_horizon(60)
        assert np.array_equal(a.content_ids, b.content_ids)
        assert not (
            a.total_requests == c.total_requests
            and np.array_equal(a.content_ids, c.content_ids)
        )


def _choice_slot_batches(generator, time_slot):
    """The sampling core as it was before the CDF cache: ``rng.choice(p=w)``."""
    generator._advance_to(time_slot)
    batches = []
    for rsu in generator._topology.rsus:
        count = generator._arrivals.sample(generator._rng)
        if count <= 0:
            continue
        contents = generator._local_content_arrays[rsu.rsu_id]
        weights = generator._weights(rsu.rsu_id, time_slot)
        chosen = generator._rng.choice(contents.size, size=count, p=weights)
        batches.append((rsu.rsu_id, contents[np.atleast_1d(chosen)]))
    return batches


#: Every registered synthetic model at its defaults, plus the tuned specs
#: whose dynamics kick in early.
SAMPLER_SPECS = sorted(
    {name for name in workload_names() if name != "trace"} | set(SYNTHETIC_SPECS)
)


class TestCachedCdfSampler:
    """The cached-CDF content draw replays ``Generator.choice`` exactly."""

    @pytest.mark.parametrize("spec_text", SAMPLER_SPECS)
    @pytest.mark.parametrize(
        "arrivals", [BernoulliArrivals(0.9), PoissonArrivals(2.5)], ids=repr
    )
    def test_horizon_and_stream_match_choice(self, spec_text, arrivals):
        topology = RoadTopology(12, 4)
        catalog = ContentCatalog.random(12, rng=5)
        fast, reference = (
            create_workload(spec_text, topology, catalog, arrivals=arrivals, rng=11)
            for _ in range(2)
        )
        reference._slot_batches = _choice_slot_batches.__get__(reference)
        got = fast.generate_horizon(600)
        want = reference.generate_horizon(600)
        for field in ("batch_rsus", "batch_ptr", "content_ids", "slot_ptr"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert fast._rng.bit_generator.state == reference._rng.bit_generator.state

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([np.nan, 1.0], "NaN"),
            ([1.5, -0.5], "non-negative"),
            ([0.7, 0.7], "sum to 1"),
            ([1.0], "same size"),
        ],
    )
    def test_invalid_weights_still_raise(self, topology, catalog, weights, message):
        # Each RSU of the 8-region, 4-RSU fixture topology caches 2 contents.
        generator = build("stationary", topology, catalog, rate=1.0)
        bad = np.asarray(weights, dtype=float)
        generator._weights = lambda rsu_id, time_slot: bad
        with pytest.raises(ValueError, match=message):
            generator.generate_slot_contents(0)
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(0).choice(2, size=2, p=bad)

    def test_new_weights_array_rebuilds_the_cdf(self, topology, catalog):
        generator = build("stationary", topology, catalog, rate=1.0)
        generator.generate_slot_contents(0)
        hot = np.array([0.0, 1.0])
        generator._weights = lambda rsu_id, time_slot: hot
        for rsu_id, contents in generator.generate_slot_contents(1):
            local = generator._local_content_arrays[rsu_id]
            assert np.all(contents == local[1])


def _per_slot_horizon(generator, num_slots):
    """The packed horizon of *num_slots* ``generate_slot_contents`` calls."""
    slot_ptr, batch_rsus, contents = [0], [], []
    for t in range(num_slots):
        batches = generator.generate_slot_contents(t)
        slot_ptr.append(slot_ptr[-1] + len(batches))
        batch_rsus.extend(rsu_id for rsu_id, _ in batches)
        contents.extend(content_ids for _, content_ids in batches)
    sizes = [0] + [ids.size for ids in contents]
    return {
        "batch_rsus": np.asarray(batch_rsus, dtype=int),
        "batch_ptr": np.cumsum(sizes, dtype=int),
        "content_ids": np.concatenate(contents) if contents else np.zeros(0, dtype=int),
        "slot_ptr": np.asarray(slot_ptr, dtype=int),
    }


def assert_horizon_matches_per_slot(horizon, twin, num_slots):
    """*horizon* equals the per-slot core on *twin*, which ends in the same state."""
    want = _per_slot_horizon(twin, num_slots)
    assert (horizon.num_slots, horizon.num_rsus) == (num_slots, twin._topology.num_rsus)
    for field, expected in want.items():
        got = getattr(horizon, field)
        assert got.dtype == expected.dtype, field
        assert np.array_equal(got, expected), field


def _same_state(a, b):
    """Equality of bit-generator states, some of which hold arrays (MT19937)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_generator_state(a, b):
    assert _same_state(a._rng.bit_generator.state, b._rng.bit_generator.state)
    assert a._rng.random() == b._rng.random()


class TestBlockSampler:
    """The block-drawn horizon replays the per-slot core, draw for draw."""

    @staticmethod
    def refuse_block(self, num_slots):
        raise AssertionError("the block sampler ran")

    @given(
        num_rsus=st.integers(1, 24),
        contents_per_rsu=st.integers(1, 5),
        rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        num_slots=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        block_cells=st.sampled_from([1, 7, 64, requests_module._BLOCK_CELLS]),
        buffered_half_draw=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_per_slot_core(
        self, num_rsus, contents_per_rsu, rate, num_slots, seed, block_cells,
        buffered_half_draw,
    ):
        topology = RoadTopology(num_rsus * contents_per_rsu, num_rsus)
        catalog = ContentCatalog.random(topology.num_regions, rng=seed)
        block, twin = (
            RequestGenerator(
                topology, catalog, arrivals=BernoulliArrivals(rate), rng=seed
            )
            for _ in range(2)
        )
        if buffered_half_draw:
            # A 32-bit draw leaves half of a 64-bit step buffered in PCG64.
            for generator in (block, twin):
                generator._rng.integers(10, dtype=np.int32)
        assert block._block_drawable()
        with mock.patch.object(requests_module, "_BLOCK_CELLS", block_cells):
            horizon = block.generate_horizon(num_slots)
        assert_horizon_matches_per_slot(horizon, twin, num_slots)
        assert_same_generator_state(block, twin)

    def test_default_block_size_spans_several_blocks(self):
        topology = RoadTopology(80, 40)
        catalog = ContentCatalog.random(80, rng=2)
        num_slots = 2 * requests_module._BLOCK_CELLS // 40 + 3
        block, twin = (
            create_workload(
                "stationary", topology, catalog, arrivals=BernoulliArrivals(0.5),
                rng=4,
            )
            for _ in range(2)
        )
        horizon = block.generate_horizon(num_slots)
        assert_horizon_matches_per_slot(horizon, twin, num_slots)
        assert_same_generator_state(block, twin)
        assert block._cursor == twin._cursor == num_slots

    @pytest.mark.parametrize("spec_text", [None, "stationary"])
    def test_stationary_horizon_skips_the_per_slot_core(
        self, spec_text, topology, catalog, monkeypatch
    ):
        def refuse(self, time_slot):
            raise AssertionError("the per-slot core ran")

        monkeypatch.setattr(RequestGenerator, "_slot_batches", refuse)
        if spec_text is None:
            generator = RequestGenerator(topology, catalog, rng=3)
        else:
            generator = build(spec_text, topology, catalog, rng=3)
        assert generator.generate_horizon(30).total_requests > 0
        with pytest.raises(AssertionError, match="per-slot core"):
            generator.generate_slot_contents(0)

    @pytest.mark.parametrize(
        "spec_text, arrivals, bit_generator",
        [
            ("stationary", PoissonArrivals(1.5), np.random.PCG64),
            ("drift:period=10,step=0.6", BernoulliArrivals(0.9), np.random.PCG64),
            ("flash-crowd:burst_prob=0.3,duration=5", BernoulliArrivals(0.9),
             np.random.PCG64),
            ("shot-noise:event_rate=0.2,mean_lifetime=8", BernoulliArrivals(0.9),
             np.random.PCG64),
            ("stationary", BernoulliArrivals(0.9), np.random.MT19937),
            ("stationary", BernoulliArrivals(0.9), np.random.Philox),
        ],
        ids=["poisson", "drift", "flash-crowd", "shot-noise", "mt19937", "philox"],
    )
    def test_fallbacks_match_per_slot_core(
        self, spec_text, arrivals, bit_generator, topology, catalog, monkeypatch
    ):
        fallback, twin = (
            create_workload(
                spec_text, topology, catalog, arrivals=arrivals,
                rng=np.random.Generator(bit_generator(5)),
            )
            for _ in range(2)
        )
        assert not fallback._block_drawable()
        monkeypatch.setattr(
            RequestGenerator, "_block_horizon", TestBlockSampler.refuse_block
        )
        horizon = fallback.generate_horizon(50)
        assert_horizon_matches_per_slot(horizon, twin, 50)
        assert_same_generator_state(fallback, twin)
        assert fallback._cursor == twin._cursor == 50

    def test_trace_workload_falls_back(self, tmp_path, topology, catalog, monkeypatch):
        path = str(tmp_path / "trace.jsonl")
        export_trace(build("stationary", topology, catalog), 30, path)
        replay, twin = (
            create_workload(f"trace:path={path}", topology, catalog)
            for _ in range(2)
        )
        assert not replay._block_drawable()
        monkeypatch.setattr(
            RequestGenerator, "_block_horizon", TestBlockSampler.refuse_block
        )
        assert_horizon_matches_per_slot(replay.generate_horizon(30), twin, 30)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([np.nan, 1.0], "NaN"),
            ([1.5, -0.5], "non-negative"),
            ([0.7, 0.7], "sum to 1"),
            ([1.0], "same size"),
        ],
    )
    def test_invalid_weights_raise_through_the_block_path(
        self, topology, catalog, weights, message
    ):
        block, twin = (
            build("stationary", topology, catalog, rate=1.0) for _ in range(2)
        )
        bad = np.asarray(weights, dtype=float)
        for generator in (block, twin):
            generator._local_popularity[topology.rsus[-1].rsu_id] = bad
        assert block._block_drawable()
        with pytest.raises(ValueError, match=message):
            block.generate_horizon(5)
        with pytest.raises(ValueError, match=message):
            twin.generate_slot_contents(0)


def _scalar_flash_crowd_evolve(model, time_slot):
    """Flash-crowd evolution as a per-RSU loop of ``rng.random()`` draws."""
    for rsu in model._topology.rsus:
        rsu_id = rsu.rsu_id
        if 0 <= model._burst_end[rsu_id] < time_slot:
            model._burst_end[rsu_id] = -1
            model._evolved[rsu_id] = model._base_popularity[rsu_id].copy()
        if model._rng.random() < model._burst_prob:
            base = model._base_popularity[rsu_id]
            hot = int(model._rng.integers(base.size))
            spiked = (1.0 - model._concentration) * base
            spiked[hot] += model._concentration
            model._evolved[rsu_id] = model._normalized(spiked)
            model._burst_end[rsu_id] = time_slot + model._duration - 1


def _scalar_shot_noise_evolve(model, time_slot):
    """Shot-noise evolution re-weighing one RSU at a time, with scalar draws."""
    expiries, next_change = model.reference_expiry, model.reference_next_change
    for rsu in model._topology.rsus:
        rsu_id = rsu.rsu_id
        expiry = expiries[rsu_id]
        changed = False
        if model._rng.random() < model._event_rate:
            index = int(model._rng.integers(expiry.size))
            lifetime = float(model._rng.exponential(model._mean_lifetime))
            expiry[index] = max(expiry[index], time_slot + 1.0 + lifetime)
            changed = True
        if changed or next_change[rsu_id] <= time_slot:
            active = expiry > time_slot
            if active.any():
                factors = np.where(active, model._boost, 1.0)
                model._evolved[rsu_id] = model._normalized(
                    model._base_popularity[rsu_id] * factors
                )
                next_change[rsu_id] = float(expiry[active].min())
            else:
                model._evolved[rsu_id] = model._base_popularity[rsu_id].copy()
                next_change[rsu_id] = np.inf


class TestEvolutionMatchesScalarLoops:
    """The models' evolution matches plain per-RSU loops of scalar draws."""

    @pytest.mark.parametrize(
        "spec_text",
        [
            "flash-crowd",
            "flash-crowd:burst_prob=0.3,duration=5",
            "flash-crowd:burst_prob=1.0,duration=2",
            "shot-noise",
            "shot-noise:event_rate=0.2,mean_lifetime=8",
            "shot-noise:event_rate=1.0,mean_lifetime=3",
        ],
    )
    def test_weights_and_stream_match(self, spec_text):
        topology = RoadTopology(24, 8)
        catalog = ContentCatalog.random(24, rng=5)
        model, reference = (
            create_workload(spec_text, topology, catalog, rng=13) for _ in range(2)
        )
        if spec_text.startswith("flash-crowd"):
            reference._evolve = _scalar_flash_crowd_evolve.__get__(reference)
        else:
            reference.reference_expiry = {
                rsu.rsu_id: np.zeros(len(rsu.covered_regions)) for rsu in topology.rsus
            }
            reference.reference_next_change = {
                rsu.rsu_id: np.inf for rsu in topology.rsus
            }
            reference._evolve = _scalar_shot_noise_evolve.__get__(reference)
        for t in range(400):
            model._advance_to(t)
            reference._advance_to(t)
            for rsu in topology.rsus:
                assert np.array_equal(
                    model._weights(rsu.rsu_id, t), reference._weights(rsu.rsu_id, t)
                ), (t, rsu.rsu_id)
        assert model._rng.bit_generator.state == reference._rng.bit_generator.state


class TestDriftWorkload:
    def test_weights_static_before_first_period(self, topology, catalog):
        model = build("drift:period=10,step=0.8", topology, catalog)
        base = model._base_popularity[0]
        for t in range(10):
            model.generate_slot_contents(t)
            assert np.array_equal(model._weights(0, t), base)

    def test_weights_shift_at_period_boundaries(self, topology, catalog):
        model = build("drift:period=10,step=0.8", topology, catalog)
        base = model._base_popularity[0]
        for t in range(15):
            model.generate_slot_contents(t)
        shifted = model._weights(0, 14)
        assert not np.array_equal(shifted, base)
        assert shifted.sum() == pytest.approx(1.0)
        assert (shifted >= 0).all()

    def test_content_population_reports_base_profile(self, topology, catalog):
        model = build("drift:period=5,step=0.8", topology, catalog)
        before = model.content_population(0)
        for t in range(20):
            model.generate_slot_contents(t)
        assert model.content_population(0) == before


class TestFlashCrowdWorkload:
    def test_burst_concentrates_mass_on_hot_content(self, topology, catalog):
        model = build(
            "flash-crowd:burst_prob=1.0,duration=3,concentration=0.9",
            topology,
            catalog,
        )
        model.generate_slot_contents(0)
        weights = model._weights(0, 0)
        assert weights.max() >= 0.9
        assert weights.sum() == pytest.approx(1.0)
        assert model.hot_content(0) is not None

    def test_hot_content_visible_through_the_bursts_last_slot(
        self, topology, catalog
    ):
        # duration=1 bursts are active exactly in the slot they fire; the
        # accessor must report them (regression: off-by-one vs the cursor).
        model = build(
            "flash-crowd:burst_prob=1.0,duration=1,concentration=0.9",
            topology,
            catalog,
        )
        for t in range(5):
            model.generate_slot_contents(t)
            assert model.hot_content(0) is not None, t

    def test_burst_expires_back_to_base(self, topology, catalog):
        model = build(
            "flash-crowd:burst_prob=0.0,duration=2", topology, catalog
        )
        base = model._base_popularity[0]
        for t in range(5):
            model.generate_slot_contents(t)
        assert np.array_equal(model._weights(0, 4), base)
        assert model.hot_content(0) is None


class TestShotNoiseWorkload:
    def test_active_shot_boosts_weight_then_decays(self, topology, catalog):
        model = build(
            "shot-noise:event_rate=1.0,mean_lifetime=3,boost=10",
            topology,
            catalog,
        )
        model.generate_slot_contents(0)
        weights = model._weights(0, 0)
        base = model._base_popularity[0]
        assert weights.max() > base.max()
        assert weights.sum() == pytest.approx(1.0)
        assert model.active_contents(0).size >= 1

    def test_no_events_keeps_base_popularity(self, topology, catalog):
        model = build("shot-noise:event_rate=0.0", topology, catalog)
        base = model._base_popularity[0]
        for t in range(10):
            model.generate_slot_contents(t)
        assert np.array_equal(model._weights(0, 9), base)
        assert model.active_contents(0).size == 0


class TestWorkloadSweepOutcomes:
    def test_non_stationary_workloads_change_the_service_trajectory(self):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=150)
        histories = {}
        for spec_text in SYNTHETIC_SPECS:
            scenario = config.with_overrides(workload=spec_text)
            result = ServiceSimulator(
                scenario, LyapunovServiceController(scenario.tradeoff_v)
            ).run()
            histories[spec_text] = result.metrics.latency_history()
        stationary = histories.pop("stationary")
        changed = [
            not np.array_equal(history, stationary)
            for history in histories.values()
        ]
        # The non-stationary models perturb the RNG stream and the weights;
        # at least two of the three must visibly diverge from stationary.
        assert sum(changed) >= 2

    def test_every_registered_workload_name_is_exercised(self):
        assert set(workload_names()) == {
            "stationary",
            "drift",
            "flash-crowd",
            "shot-noise",
            "trace",
        }
