"""Every layer reads what a simulation kind is from one table.

:data:`repro.sim.engine.KINDS` holds each kind's policy roles, whether its
``run_batch`` replays precomputed arrival horizons, and which result
attribute its run record keeps as the trace.  The specs, the run-store
payload, the run records, the shared-memory shipment, the serve session
and ``run_batch`` must all agree with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.policies.registry import PolicySpec
from repro.runtime.runner import RunSpec, _run_record
from repro.runtime.shm import (
    HorizonShipment,
    precompute_horizon,
    shared_memory_available,
)
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import cell_key, spec_payload
from repro.serve import open_session
from repro.sim import SIMULATION_KINDS, simulate
from repro.sim.cache_sim import CacheStepper
from repro.sim.engine import KINDS
from repro.sim.joint_sim import JointStepper
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import ServiceStepper

NUM_SLOTS = 12
SEEDS = [4, 9]

#: One registered policy per role of each kind.
POLICIES = {
    "cache": ("mdp",),
    "service": ("lyapunov",),
    "joint": ("myopic", "lyapunov"),
    "multihop": ("lce",),
}


@pytest.fixture(scope="module")
def scenario():
    return ScenarioConfig.small(seed=3, num_slots=NUM_SLOTS)


def _spec_fields(kind):
    """The kind's policies as a spec's ``policy``/``service_policy`` pair."""
    policy, service_policy = (*POLICIES[kind], None)[:2]
    return {"policy": policy, "service_policy": service_policy}


def _policies_argument(kind):
    """The kind's policies as ``simulate()``/``open_session()`` take them."""
    policies = POLICIES[kind]
    return policies if len(policies) > 1 else policies[0]


def test_the_table_covers_every_kind():
    assert tuple(KINDS) == SIMULATION_KINDS
    assert set(POLICIES) == set(SIMULATION_KINDS)


@pytest.mark.parametrize("kind", SIMULATION_KINDS)
def test_every_layer_agrees_with_the_table(kind, scenario):
    entry = KINDS[kind]
    fields = _spec_fields(kind)

    # Both specs take exactly one policy per role, coerced to that role.
    run_spec = RunSpec(kind=kind, scenario=scenario, label="table", **fields)
    experiment = ExperimentSpec(kind=kind, scenario=scenario, **fields)
    policies = (experiment.policy, experiment.service_policy)
    for role, policy in zip(entry.roles, policies):
        assert role in (None, policy.role)
    assert policies[len(entry.roles):] == (None,) * (2 - len(entry.roles))
    wrong = (
        {"service_policy": None}
        if len(entry.roles) > 1
        else {"service_policy": "lyapunov"}
    )
    for spec_class in (RunSpec, ExperimentSpec):
        with pytest.raises(ValidationError):
            spec_class(kind=kind, scenario=scenario, **{**fields, **wrong})

    # The run-store payload keys one canonical policy dict per role.
    payload = spec_payload(run_spec)
    assert payload["kind"] == kind
    assert payload["policy"] == PolicySpec.coerce(fields["policy"]).to_dict()
    assert (payload["service_policy"] is None) == (len(entry.roles) == 1)
    assert isinstance(cell_key(run_spec, 3), str)

    # The run record keeps the trace the table names.
    result = simulate(scenario, _policies_argument(kind))
    record = _run_record(run_spec, 3, result)
    if entry.trace is None:
        assert record.trace is None
    else:
        assert np.array_equal(record.trace, getattr(result, entry.trace))

    # Only the kinds that replay horizons get them shipped.
    if shared_memory_available():
        shipment = HorizonShipment()
        try:
            handle = shipment.handle_for(run_spec, SEEDS)
            assert (handle is not None) == entry.replays_horizons
        finally:
            shipment.close()

    # A session's snapshot names one policy, or one per role.
    session = open_session(scenario, _policies_argument(kind))
    session.step()
    snapshot = session.snapshot()
    summary = session.close().summary()
    if len(entry.roles) == 1:
        assert snapshot["policy"] == summary["policy"]
    else:
        assert snapshot["policy"] == {
            role: summary[f"{role}_policy"] for role in entry.roles
        }


@pytest.mark.parametrize("kind", SIMULATION_KINDS)
def test_run_batch_horizons_follow_the_table(kind, scenario):
    entry = KINDS[kind]
    simulator = entry.simulator(
        scenario,
        *(PolicySpec.coerce(name).build(scenario) for name in POLICIES[kind]),
    )
    horizons = [
        precompute_horizon(scenario.with_overrides(seed=seed), NUM_SLOTS)
        for seed in SEEDS
    ]
    if not entry.replays_horizons:
        with pytest.raises(ConfigurationError, match="horizons"):
            simulator.run_batch(SEEDS, horizons=horizons)
        return
    replayed = simulator.run_batch(SEEDS, horizons=horizons)
    generated = simulator.run_batch(SEEDS)
    assert [r.summary() for r in replayed] == [r.summary() for r in generated]
    assert [r.rows() for r in replayed] == [r.rows() for r in generated]


def test_one_run_batch_body_and_one_slot_loop():
    # Only the joint simulator keeps a run_batch of its own, to name its
    # two per-seed policy lists; the stage-1/stage-2 steppers share step.
    for kind, entry in KINDS.items():
        assert ("run_batch" in vars(entry.simulator)) == (kind == "joint")
    for stepper in (CacheStepper, ServiceStepper, JointStepper):
        assert "step" not in vars(stepper)
