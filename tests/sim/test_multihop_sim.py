"""Tests for the multihop simulator (graph-routed requests)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.net.model import NetworkModel
from repro.policies.onpath import EdgeCaching, LeaveCopyEverywhere
from repro.policies.registry import PolicySpec
from repro.serve.session import open_session
from repro.sim.multihop_sim import MultihopSimulator, MultihopStepper
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState

nx = pytest.importorskip("networkx")


def single_rsu_replay(config: ScenarioConfig, num_slots: int):
    """Independent scalar replay of the single-RSU caching model.

    Star topology + the ``edge`` strategy degenerates to the legacy
    per-RSU cache: a request hits iff the receiver's copy is fresh enough,
    a miss fetches from the origin (two hops: request up, content down)
    and refreshes the local copy to age 1, and every copy ages one slot
    per slot.  The replay re-draws the identical RNG streams through
    ``SystemState`` and never touches the network core.
    """
    state = SystemState(config)
    model = NetworkModel(
        state.topology,
        kind="star",
        cost_model=state.service_cost_model,
        cache_capacity=config.cache_capacity,
        hop_delay=config.hop_delay,
    )
    origin = model.origin
    ages = [
        dict(zip(state.content_ids[k].tolist(), state.ages[k].tolist()))
        for k in range(config.num_rsus)
    ]
    max_ages = state.catalog.max_ages
    hits = served = hops = 0
    latency = 0.0
    for t in range(num_slots):
        for rsu, contents in state.workload.generate_slot_contents(t):
            for content in contents:
                content = int(content)
                served += 1
                age = ages[rsu].get(content)
                if age is not None and age <= float(max_ages[content]):
                    hits += 1
                else:
                    ages[rsu][content] = 1.0
                    hops += 2
                    latency += 2.0 * model.edge_delay(rsu, origin)
        for per_rsu in ages:
            for content in per_rsu:
                per_rsu[content] += 1.0
    return {
        "hits": hits,
        "served": served,
        "hops": hops,
        "latency": latency,
        "hit_ratio": hits / served if served else float("nan"),
    }


class TestStarEdgeEquivalence:
    """multihop + star + edge bit-matches the single-RSU cache model."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_rsus=4, contents_per_rsu=3, num_slots=80, seed=11),
            dict(num_rsus=3, contents_per_rsu=5, num_slots=120, seed=42),
            dict(num_rsus=5, contents_per_rsu=2, num_slots=60, seed=0),
        ],
    )
    def test_matches_scalar_replay(self, kwargs):
        config = ScenarioConfig(topology_kind="star", **kwargs)
        result = MultihopSimulator(config, EdgeCaching()).run()
        expected = single_rsu_replay(config, kwargs["num_slots"])
        assert result.metrics.total_hits == expected["hits"]
        assert result.metrics.total_served == expected["served"]
        assert result.metrics.total_hops == expected["hops"]
        assert result.metrics.total_latency == expected["latency"]
        assert result.hit_ratio == expected["hit_ratio"]

    def test_golden_fingerprints(self):
        """Pinned outcomes: any drift in RNG streams, routing, or cache
        aging shows up as an exact mismatch here."""
        config = ScenarioConfig(
            num_rsus=4, contents_per_rsu=3, num_slots=80, seed=11,
            topology_kind="star",
        )
        result = MultihopSimulator(config, EdgeCaching()).run()
        assert result.hit_ratio == 0.5740740740740741
        assert result.metrics.total_latency == 138.0
        assert result.metrics.total_hops == 138

        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=5, num_slots=120, seed=42,
            topology_kind="star",
        )
        result = MultihopSimulator(config, EdgeCaching()).run()
        assert result.hit_ratio == 0.42786069651741293
        assert result.metrics.total_latency == 230.0
        assert result.metrics.total_hops == 230


class TestSessionPaths:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(("star", "line", "ring")),
        policy=st.sampled_from(("lce", "lcd", "probcache", "cl4m", "edge")),
    )
    def test_every_session_walks_a_contiguous_path(self, seed, kind, policy):
        config = ScenarioConfig(
            num_rsus=4, contents_per_rsu=3, num_slots=25, seed=seed,
            topology_kind=kind,
        )
        simulator = MultihopSimulator(
            config, PolicySpec.coerce(policy).build(config)
        )
        result = simulator.run()
        state = SystemState(config)
        model = NetworkModel(
            state.topology, kind=kind, cost_model=state.service_cost_model
        )
        graph = model.graph
        sessions = result.metrics.sessions()
        assert sessions, "expected at least one routed request"
        for session in sessions:
            path = session.path
            assert path[0] == session.receiver
            assert path[-1] == session.serving_node
            for u, v in zip(path, path[1:]):
                assert graph.has_edge(u, v)
            # Request walk up + delivery walk back down the same path.
            assert session.hops == 2 * (len(path) - 1)


class TestRolesAndBatch:
    def test_caching_role_needs_capacity(self):
        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=4, num_slots=10, seed=0,
            topology_kind="star", cache_capacity=2,
        )
        policy = PolicySpec.coerce("never").build(config)
        with pytest.raises(ConfigurationError):
            MultihopSimulator(config, policy).run()

    def test_caching_role_static_placement(self):
        """Requests never insert: the cache inventory stays the policy's."""
        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=3, num_slots=15, seed=4,
            topology_kind="line",
        )
        policy = PolicySpec.coerce("never").build(config)
        result = MultihopSimulator(config, policy).run()
        metrics = result.metrics
        assert metrics.total_updates == 0
        assert metrics.total_served == metrics.total_requests

    def test_service_role_waits_and_serves(self):
        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=3, num_slots=30, seed=9,
            topology_kind="star",
        )
        policy = PolicySpec.coerce("always-serve").build(config)
        result = MultihopSimulator(config, policy).run()
        metrics = result.metrics
        # always-serve triggers on positive waiting, so arrivals are
        # served no earlier than the slot after they are issued (the
        # stage-2 simulator's exact semantics) — the final slot's
        # arrivals stay queued at the horizon.
        assert 0 < metrics.total_served <= metrics.total_requests
        assert metrics.total_waiting > 0.0
        assert metrics.total_hits <= metrics.total_served

    def test_service_role_never_serve_starves(self):
        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=3, num_slots=10, seed=9,
            topology_kind="star",
        )
        policy = PolicySpec.coerce("never-serve").build(config)
        result = MultihopSimulator(config, policy).run()
        assert result.metrics.total_served == 0
        assert result.metrics.total_requests > 0

    def test_run_batch_matches_per_run(self):
        """Every multihop path replays the per-seed run byte for byte.

        For every policy and topology of the non-unit-delay fingerprints,
        one ``run()`` per seed, one ``run_batch`` over all seeds (per-seed
        spec-built policies, so each ProbCache draws from its own seeded
        RNG) and a slot-stepped session agree on every session record.
        A batch whose seeds shared a network or a policy instance would
        interleave their cache states and diverge here.
        """
        seeds = [5, 6, 7]
        for kind in ("star", "line", "ring"):
            config = TestNonUnitDelayFingerprints.scenario(kind)
            configs = [config.with_overrides(seed=seed) for seed in seeds]
            for policy in TestNonUnitDelayFingerprints.POLICIES:
                spec = PolicySpec.coerce(policy)
                batch = MultihopSimulator(config, None).run_batch(
                    seeds, policies=[spec.build(c) for c in configs]
                )
                for seed_config, batched in zip(configs, batch):
                    single = MultihopSimulator(
                        seed_config, spec.build(seed_config)
                    ).run()
                    session = open_session(
                        seed_config, policy, kind="multihop", metrics="full"
                    )
                    for _ in range(seed_config.num_slots):
                        session.step()
                    stepped = session.close()
                    case = (kind, policy, seed_config.seed)
                    for other in (batched, stepped):
                        assert other.summary() == single.summary(), case
                        assert session_fingerprint(other) == session_fingerprint(
                            single
                        ), case
                        assert np.array_equal(
                            other.latency_history, single.latency_history
                        ), case

    def test_summary_metrics_mode_matches_full(self):
        config = ScenarioConfig(
            num_rsus=3, contents_per_rsu=3, num_slots=20, seed=2,
            topology_kind="line",
        )
        full = MultihopSimulator(config, LeaveCopyEverywhere()).run()
        summary = MultihopSimulator(
            config, LeaveCopyEverywhere(), metrics="summary"
        ).run()
        assert full.summary() == summary.summary()


def session_fingerprint(result) -> str:
    """sha256 over every session's exact routing record."""
    digest = hashlib.sha256()
    for session in result.metrics.sessions():
        record = (
            session.hops,
            session.latency.hex(),
            session.path,
            float(session.served_age).hex(),
            session.serving_node,
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestNonUnitDelayFingerprints:
    """Pinned per-session records under non-integer link delays.

    The constant cost model makes every latency an integer, so a change in
    the order latencies are summed in would go unseen by the other
    goldens.  Distance-priced links scaled by ``hop_delay=0.37`` give
    per-hop delays whose float sums depend on that order.
    """

    POLICIES = (
        "lce", "lcd", "probcache", "partition", "cl4m", "edge", "mdp", "lyapunov",
    )

    # Captured before the route tables were compiled; they must not move.
    EXPECTED = {
        ("star", "lce"): (
            "aa3ab03a71af09ab0d389ab9d49c9b54b2a3c756ed3df818f42026f177326cd1"
        ),
        ("star", "lcd"): (
            "aa3ab03a71af09ab0d389ab9d49c9b54b2a3c756ed3df818f42026f177326cd1"
        ),
        ("star", "probcache"): (
            "6994b2ebcabd090c0129872159470cc7380d17f53de3318332a2df64e1b36f55"
        ),
        ("star", "partition"): (
            "ab51735c3f3481cd1d46ca5699c3c368954dfaa561ce200d29bcf724cc3732d0"
        ),
        ("star", "cl4m"): (
            "aa3ab03a71af09ab0d389ab9d49c9b54b2a3c756ed3df818f42026f177326cd1"
        ),
        ("star", "edge"): (
            "aa3ab03a71af09ab0d389ab9d49c9b54b2a3c756ed3df818f42026f177326cd1"
        ),
        ("star", "mdp"): (
            "7ac06f945ae030496b52407c1a54bbd9990c5bf2fa55302239ead3d84e6d4422"
        ),
        ("star", "lyapunov"): (
            "5b10e52030235a5d97e070ef066405a50bb33d9c4bde1caee988ed56147e94ba"
        ),
        ("line", "lce"): (
            "b7231616f8c5870b6ccacc373edd2f09ff7bb6de170403aafb901e3849132072"
        ),
        ("line", "lcd"): (
            "bd257d7b706e871600fdcb9bb5e576dd0744b4d952fee0b9930dfe7a8ca8288c"
        ),
        ("line", "probcache"): (
            "7feda97e0cd61741f315f148109920c2177cc4d5020abec8994ee5138f41ba72"
        ),
        ("line", "partition"): (
            "a2092524c894b86214d712a9c294784596e7cf7f093de6fd61fd68353de0e7ae"
        ),
        ("line", "cl4m"): (
            "bd257d7b706e871600fdcb9bb5e576dd0744b4d952fee0b9930dfe7a8ca8288c"
        ),
        ("line", "edge"): (
            "4bc2dbfc77dc32b19c6cba2dc0e984bde49a9fc71ffd961e3b9edf33654b0127"
        ),
        ("line", "mdp"): (
            "27cc9528246deaa926fabda02062b4d9bc8bd8001dee5286e3485a91857122b5"
        ),
        ("line", "lyapunov"): (
            "730d93bf8478607c364c30496090cbf4d3cbe9ba57222f7d96617bc030df2689"
        ),
        ("ring", "lce"): (
            "b7231616f8c5870b6ccacc373edd2f09ff7bb6de170403aafb901e3849132072"
        ),
        ("ring", "lcd"): (
            "bd257d7b706e871600fdcb9bb5e576dd0744b4d952fee0b9930dfe7a8ca8288c"
        ),
        ("ring", "probcache"): (
            "7feda97e0cd61741f315f148109920c2177cc4d5020abec8994ee5138f41ba72"
        ),
        ("ring", "partition"): (
            "a2092524c894b86214d712a9c294784596e7cf7f093de6fd61fd68353de0e7ae"
        ),
        ("ring", "cl4m"): (
            "bd257d7b706e871600fdcb9bb5e576dd0744b4d952fee0b9930dfe7a8ca8288c"
        ),
        ("ring", "edge"): (
            "4bc2dbfc77dc32b19c6cba2dc0e984bde49a9fc71ffd961e3b9edf33654b0127"
        ),
        ("ring", "mdp"): (
            "27cc9528246deaa926fabda02062b4d9bc8bd8001dee5286e3485a91857122b5"
        ),
        ("ring", "lyapunov"): (
            "730d93bf8478607c364c30496090cbf4d3cbe9ba57222f7d96617bc030df2689"
        ),
    }

    @staticmethod
    def scenario(kind: str) -> ScenarioConfig:
        return ScenarioConfig(
            num_rsus=5, contents_per_rsu=3, num_slots=40, seed=7,
            topology_kind=kind, cost_model_kind="distance", hop_delay=0.37,
            zipf_exponent=0.8,
        )

    @pytest.mark.parametrize("kind", ("star", "line", "ring"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_session_fingerprint(self, kind, policy):
        config = self.scenario(kind)
        result = MultihopSimulator(
            config, PolicySpec.coerce(policy).build(config)
        ).run()
        latencies = [s.latency for s in result.metrics.sessions()]
        assert any(latency != int(latency) for latency in latencies)
        assert session_fingerprint(result) == self.EXPECTED[kind, policy]


class TestNetworkxOnlyAtConstruction:
    """Once a stepper is built, routing never touches the networkx graph."""

    @staticmethod
    def forbid_networkx(monkeypatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("networkx was called after construction")

        for name in ("has_edge", "neighbors"):
            monkeypatch.setattr(nx.Graph, name, refuse)
        # nodes/edges are cached properties; a data descriptor on the class
        # takes precedence over the copy cached on each instance.
        for name in ("nodes", "edges"):
            monkeypatch.setattr(nx.Graph, name, property(refuse))

    @pytest.mark.parametrize("kind", ("star", "line", "ring"))
    @pytest.mark.parametrize("policy", TestNonUnitDelayFingerprints.POLICIES)
    def test_steps_without_networkx(self, kind, policy, monkeypatch):
        # Costly updates keep mdp from refreshing and a small V makes
        # lyapunov serve early, so every role routes misses within 20 slots.
        config = ScenarioConfig(
            num_rsus=5, contents_per_rsu=3, num_slots=20, seed=7,
            topology_kind=kind, zipf_exponent=0.8, update_cost=50.0,
            tradeoff_v=0.5,
        )
        stepper = MultihopStepper(
            [config], [PolicySpec.coerce(policy).build(config)]
        )
        graph = stepper.runs[0].network.graph
        self.forbid_networkx(monkeypatch)
        probes = (
            lambda: graph.nodes, lambda: graph.edges, lambda: graph.has_edge(0, 1)
        )
        for probe in probes:
            with pytest.raises(AssertionError, match="after construction"):
                probe()
        for _ in range(20):
            stepper.step()
        assert stepper.metrics[0].total_hops > 0
