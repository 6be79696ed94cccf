"""Differential test: every execution path against the scalar oracle.

Hypothesis draws small scenarios — 1-4 RSUs, 1-5 contents per RSU, every
cost model and arrival process, with or without request deadlines, under
every registered workload (``trace`` replays a file the case writes) —
and crosses them with the registered caching and service policies (the
MDP controller in exact and factored mode, the Lyapunov controller's
tie-breaker, AoI-guard and ``V = 0`` variants, and every baseline), as
registry references or as live instances, and the cache/service/joint
kinds, with or without a per-slot service batch limit and a horizon
override.  For each case ``run()``, ``run_batch()`` (1-3 seeds) and a
chunk-stepped :func:`~repro.serve.session.open_session` must record
exactly what the oracle (:func:`oracle.reference`) records: every
full-mode history (ages, actions, reward components, backlog, latency,
cost, decision and served counts) and ``summary()``.  A fixed set of drawn
grids runs through :meth:`~repro.runtime.runner.ExperimentRunner.run_grid`
serially and on two workers, with and without shared memory.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, NamedTuple, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from oracle.compare import assert_same_run
from repro.policies import PolicySpec
from repro.runtime.runner import (
    BatchResult,
    ExperimentRunner,
    RunSpec,
    _run_record,
    expand_seeds,
)
from repro.serve.session import open_session
from repro.sim.engine import simulate
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState
from repro.workloads import export_trace, workload_names

SYNTHETIC = sorted(set(workload_names()) - {"trace"})
#: The MDP controller solves a joint per-RSU model exactly up to
#: ``exact_state_limit`` states and falls back to the factored model above
#: it; the low limit keeps both modes in play while exact solves stay cheap.
CACHING = (
    "mdp:exact_state_limit=64",
    "mdp:mode=factored",
    "threshold",
    "periodic:period=3",
    "random:rate=0.4,rng=123",
    "myopic",
    "never",
    "always",
)
SERVICE = (
    "lyapunov",
    "lyapunov:tie_breaker=defer",
    "lyapunov:enforce_aoi_validity=false",
    "lyapunov:tradeoff_v=0",
    "always-serve",
    "cost-greedy",
    "cost-greedy:backlog_cap=4",
    "backlog-threshold:threshold=2",
    "fixed-probability:probability=0.5,rng=3",
)


class Case(NamedTuple):
    config: ScenarioConfig
    kind: str
    #: One registry reference per role of the kind.
    policies: tuple
    #: Whether the paths get live policy instances instead of references.
    instances: bool
    metrics: str
    chunk: int
    service_batch: Optional[int]
    num_slots: Optional[int]
    num_seeds: int

    def policy_refs(self) -> Any:
        """Fresh policies for one call: a single one, or a (caching, service) pair."""
        policies = tuple(
            PolicySpec.coerce(policy).build(self.config) if self.instances else policy
            for policy in self.policies
        )
        return policies[0] if len(policies) == 1 else policies

    @property
    def horizon(self) -> int:
        return self.num_slots or self.config.num_slots


@st.composite
def cases(draw, *, instances=True):
    arrival_kind = draw(st.sampled_from(("bernoulli", "poisson")))
    config = ScenarioConfig.small(
        seed=draw(st.integers(0, 10_000)),
        num_rsus=draw(st.integers(1, 4)),
        contents_per_rsu=draw(st.integers(1, 5)),
        num_slots=draw(st.integers(1, 16)),
        deadline_slots=draw(st.none() | st.integers(1, 6)),
        cost_model_kind=draw(st.sampled_from(("constant", "distance", "fading"))),
        arrival_kind=arrival_kind,
        arrival_rate=draw(
            st.sampled_from((0.3, 0.9) if arrival_kind == "bernoulli" else (0.9, 2.5))
        ),
        tradeoff_v=draw(st.sampled_from((0.5, 10.0))),
        random_initial_ages=draw(st.booleans()),
        workload=draw(st.sampled_from(SYNTHETIC)),
    )
    kind = draw(st.sampled_from(("cache", "service", "joint")))
    caching, service = draw(st.sampled_from(CACHING)), draw(st.sampled_from(SERVICE))
    policies = {"cache": (caching,), "service": (service,), "joint": (caching, service)}
    return Case(
        config=config,
        kind=kind,
        policies=policies[kind],
        instances=instances and draw(st.booleans()),
        metrics=draw(st.sampled_from(("full", "summary"))),
        chunk=draw(st.integers(1, 5)),
        service_batch=None if kind == "cache" else draw(st.none() | st.integers(1, 3)),
        num_slots=draw(st.none() | st.integers(1, 16)),
        num_seeds=draw(st.integers(1, 3)),
    )


def with_trace(case: Case, directory: str) -> Case:
    """*case* replaying its own workload from a trace file in *directory*."""
    path = os.path.join(directory, "workload.jsonl")
    export_trace(SystemState(case.config).workload, case.horizon, path)
    config = case.config.with_overrides(workload=f"trace:path={path}")
    return case._replace(config=config)


def check_every_path(case: Case) -> None:
    config = case.config
    seeds = [config.seed + offset for offset in range(case.num_seeds)]
    options = {"num_slots": case.num_slots, "service_batch": case.service_batch}
    expected = oracle.reference(config, case.policy_refs(), seeds=seeds, **options)

    options["metrics"] = case.metrics
    assert_same_run(simulate(config, case.policy_refs(), **options), expected[0])

    batch = simulate(config, case.policy_refs(), seeds=seeds, **options)
    assert len(batch) == len(expected)
    for got, want in zip(batch, expected):
        assert_same_run(got, want)

    # Snapshots every *chunk* slots read the collectors mid-run at
    # arbitrary boundaries; reading must never perturb the final result.
    session = open_session(
        config,
        case.policy_refs(),
        metrics=case.metrics,
        service_batch=case.service_batch,
    )
    for time_slot in range(case.horizon):
        session.step()
        if (time_slot + 1) % case.chunk == 0:
            session.snapshot()
    assert_same_run(session.close(), expected[0])


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases(), st.booleans())
def test_every_path_matches_the_reference_oracle(case, trace):
    if not trace:
        check_every_path(case)
        return
    with tempfile.TemporaryDirectory() as directory:
        check_every_path(with_trace(case, directory))


@settings(
    max_examples=3,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(cases(instances=False), min_size=2, max_size=3))
def test_run_grid_matches_the_reference_oracle(drawn):
    specs = [
        RunSpec(
            kind=case.kind,
            scenario=case.config,
            policy=case.policies[0],
            service_policy=case.policies[1] if case.kind == "joint" else None,
            seed=case.config.seed,
            label=f"case-{index}",
            num_slots=case.num_slots,
            service_batch=case.service_batch,
            metrics=case.metrics,
        )
        for index, case in enumerate(drawn)
    ]
    expected = BatchResult(
        [
            _run_record(
                spec,
                spec.seed,
                oracle.reference(
                    spec.scenario.with_overrides(seed=spec.seed),
                    case.policy_refs(),
                    num_slots=spec.num_slots,
                    service_batch=spec.service_batch,
                ),
            )
            for base, case in zip(specs, drawn)
            for spec in expand_seeds([base], 2)
        ]
    )
    for workers, shared_memory in ((1, None), (2, True), (2, False)):
        runner = ExperimentRunner(workers=workers, shared_memory=shared_memory)
        assert runner.run_grid(specs, num_seeds=2, store=False).matches(expected)
