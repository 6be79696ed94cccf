"""Byte identity of the stage-2 kernel on a grid wide enough to matter.

numpy's pairwise summation unrolls only from 8 elements on, so a grid of
a handful of RSUs cannot tell a per-seed row sum from a sum in another
order.  These cases run 32 RSUs, where it can: the service and joint
kinds' ``run()``, ``run_batch()`` and a slot-stepped ``open_session()``
must reproduce the scalar test oracle (:func:`oracle.reference`) exactly
— every full-mode per-RSU history (backlog, latency, cost, decision,
served) and ``summary()`` — across the Lyapunov kernel's variants, deadlines, a
service batch limit, a fallback policy, and a batch mixing both.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from oracle.compare import assert_same_run
from repro.baselines.service import AlwaysServePolicy, CostGreedyPolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ValidationError
from repro.serve.session import open_session
from repro.sim.engine import simulate
from repro.sim.joint_sim import JointSimulator
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import ServiceSimulator, _SlotArrivals, _VectorQueues

GRID = ScenarioConfig.small(
    seed=4,
    num_rsus=32,
    contents_per_rsu=2,
    num_slots=40,
    arrival_kind="poisson",
    arrival_rate=1.2,
    cost_model_kind="fading",
    tradeoff_v=10.0,
)
SEEDS = [4, 9]

#: ``(case id, scenario overrides, service policy, service_batch)``.
CASES = [
    ("lyapunov", {}, "lyapunov", None),
    ("deadlines", {"deadline_slots": 3}, "lyapunov", None),
    ("service-batch", {}, "lyapunov", 3),
    ("tie-defer", {}, "lyapunov:tie_breaker=defer", None),
    ("no-aoi-guard", {}, "lyapunov:enforce_aoi_validity=false", None),
    ("v-zero", {}, "lyapunov:tradeoff_v=0", None),
    ("v-zero-tie-defer", {}, "lyapunov:tradeoff_v=0,tie_breaker=defer", None),
    ("fallback", {"deadline_slots": 4}, "cost-greedy", None),
    ("fallback-batch", {}, "always-serve", 2),
]


def policies_for(kind, service):
    # Fading costs would re-solve the MDP every slot.  A slow round-robin
    # refresh keeps the joint cases cheap and lets contents go stale, so
    # the AoI guard blocks service.
    return service if kind == "service" else ("periodic:period=4", service)


@pytest.mark.parametrize("kind", ["service", "joint"])
@pytest.mark.parametrize(
    "overrides, service, service_batch",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_every_path_matches_the_reference(kind, overrides, service, service_batch):
    config = GRID.with_overrides(**overrides)
    policies = policies_for(kind, service)
    expected = oracle.reference(
        config, policies, seeds=SEEDS, service_batch=service_batch
    )

    single = simulate(
        config.with_overrides(seed=SEEDS[0]), policies, service_batch=service_batch
    )
    assert_same_run(single, expected[0])

    batch = simulate(config, policies, seeds=SEEDS, service_batch=service_batch)
    for got, want in zip(batch, expected):
        assert_same_run(got, want)

    session = open_session(
        config.with_overrides(seed=SEEDS[0]),
        policies,
        metrics="full",
        service_batch=service_batch,
    )
    for _ in range(config.num_slots):
        session.step()
    assert_same_run(session.close(), expected[0])


def test_service_batch_mixing_lyapunov_and_a_baseline():
    config = GRID.with_overrides(deadline_slots=5)
    make = [
        lambda: LyapunovServiceController(10.0),
        lambda: CostGreedyPolicy(backlog_cap=4.0),
        lambda: LyapunovServiceController(0.0, tie_breaker="defer"),
    ]
    seeds = [4, 9, 13]
    want = [
        oracle.reference(config.with_overrides(seed=seed), policy())
        for seed, policy in zip(seeds, make)
    ]
    got = ServiceSimulator(config, make[0]()).run_batch(
        seeds, policies=[policy() for policy in make]
    )
    for result, reference in zip(got, want):
        assert_same_run(result, reference)


def test_joint_batch_mixing_lyapunov_and_a_baseline():
    config = GRID.with_overrides(deadline_slots=5, cost_model_kind="constant")
    seeds = [4, 9]
    services = [
        lambda: LyapunovServiceController(10.0, enforce_aoi_validity=False),
        AlwaysServePolicy,
    ]

    def caching(seed):
        return MDPCachingPolicy(config.with_overrides(seed=seed).build_mdp_config())

    want = [
        oracle.reference(config.with_overrides(seed=seed), (caching(seed), service()))
        for seed, service in zip(seeds, services)
    ]
    got = JointSimulator(config, caching(seeds[0]), services[0]()).run_batch(
        seeds,
        caching_policies=[caching(seed) for seed in seeds],
        service_policies=[service() for service in services],
    )
    for result, reference in zip(got, want):
        assert_same_run(result, reference)


@pytest.mark.parametrize("service", [LyapunovServiceController, AlwaysServePolicy])
def test_negative_service_cost_raises(service):
    # A NaN cost passes the check, as it does in ServiceObservation; the
    # negative cost of the next seed must still be caught.
    stepper = ServiceSimulator(GRID, service())._stepper(
        GRID.num_slots,
        [GRID.with_overrides(seed=seed) for seed in SEEDS],
        [service() for _ in SEEDS],
    )
    for state, cost in zip(stepper.states, [float("nan"), -1.0]):
        state.service_cost_model.cost = lambda cost=cost, **kwargs: cost
    with pytest.raises(ValidationError, match="service_cost must be >= 0, got -1.0"):
        stepper.step()


@pytest.mark.parametrize("deadline", [None, 0, 3])
def test_array_queues_match_a_list_model(deadline):
    """Growth, compaction and expiry of the array queues against plain lists."""
    rng = np.random.default_rng(deadline or 7)
    num_seeds, num_rsus = 2, 3
    queues = _VectorQueues(num_seeds, num_rsus, deadline)
    model = [[] for _ in range(num_seeds * num_rsus)]
    for t in range(120):
        # Bursty, unsorted arrivals: some queues outgrow the initial width.
        queue_ids = rng.integers(0, len(model), size=rng.integers(0, 12))
        content_ids = rng.integers(0, 50, size=queue_ids.size)
        assert queues.enqueue(t, _SlotArrivals(queue_ids, content_ids)) == queue_ids.size
        for q, content in zip(queue_ids.tolist(), content_ids.tolist()):
            model[q].append((content, t))
        queues.expire(t)
        if deadline is not None:
            model = [[r for r in rows if r[1] >= t - deadline] for rows in model]
        pending = queues.pending()
        assert pending.tolist() == [len(rows) for rows in model]
        assert queues.issue_sums().tolist() == [sum(r[1] for r in rows) for rows in model]
        heads = [rows[0] if rows else None for rows in model]
        for q, head in enumerate(heads):
            if head is not None:
                assert queues.head_contents()[q] == head[0]
                assert queues.head_issues()[q] == head[1]
        served = rng.integers(0, 3, size=len(model)) * (rng.random(len(model)) < 0.3)
        served = np.minimum(served, pending)
        queues.serve(served)
        model = [rows[n:] for rows, n in zip(model, served.tolist())]
