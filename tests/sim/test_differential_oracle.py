"""Differential test: every vectorised execution path against the oracle.

Hypothesis draws small scenarios — 1-4 RSUs, 1-5 contents per RSU, with
or without request deadlines, under every registered workload except
``trace`` (which needs a file) — and crosses them with the caching and
service policies and the cache/service/joint kinds.  For each case the
``summary()`` of ``run()``, of ``run_batch()``, and of a chunk-stepped
:func:`~repro.serve.session.open_session` must equal the ``summary()`` of
the scalar ``mode="reference"`` loop exactly.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.session import open_session
from repro.sim.engine import simulate
from repro.sim.scenario import ScenarioConfig
from repro.workloads import workload_names

WORKLOADS = sorted(set(workload_names()) - {"trace"})
#: The MDP controller solves a joint per-RSU model exactly up to
#: ``exact_state_limit`` states and falls back to the factored model above
#: it; the low limit keeps both modes in play while exact solves stay cheap.
CACHING = ("mdp:exact_state_limit=64", "threshold", "periodic", "random")
SERVICE = ("lyapunov", "always-serve", "cost-greedy")


@st.composite
def cases(draw):
    config = ScenarioConfig.small(
        seed=draw(st.integers(0, 10_000)),
        num_rsus=draw(st.integers(1, 4)),
        contents_per_rsu=draw(st.integers(1, 5)),
        num_slots=draw(st.integers(1, 16)),
        deadline_slots=draw(st.none() | st.integers(1, 6)),
        cost_model_kind=draw(st.sampled_from(("constant", "fading"))),
        arrival_rate=draw(st.sampled_from((0.3, 0.9))),
        tradeoff_v=draw(st.sampled_from((0.5, 10.0))),
        workload=draw(st.sampled_from(WORKLOADS)),
    )
    caching = draw(st.sampled_from(CACHING))
    service = draw(st.sampled_from(SERVICE))
    kind = draw(st.sampled_from(("cache", "service", "joint")))
    policies = {"cache": caching, "service": service, "joint": (caching, service)}
    return (
        config,
        policies[kind],
        draw(st.sampled_from(("full", "summary"))),
        draw(st.integers(1, 5)),
    )


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_every_path_matches_the_reference_oracle(case):
    config, policies, metrics, chunk = case
    seeds = [config.seed, config.seed + 1]
    oracle = [
        result.summary()
        for result in simulate(config, policies, mode="reference", seeds=seeds)
    ]

    single = simulate(config, policies, metrics=metrics)
    assert single.summary() == oracle[0]

    batch = simulate(config, policies, seeds=seeds, metrics=metrics)
    assert [result.summary() for result in batch] == oracle

    # Snapshots every *chunk* slots flush the staged metric blocks at
    # arbitrary boundaries; block_size=chunk moves the block edges too.
    session = open_session(config, policies, metrics=metrics, block_size=chunk)
    for time_slot in range(config.num_slots):
        session.step()
        if (time_slot + 1) % chunk == 0:
            session.snapshot()
    assert session.close().summary() == oracle[0]
