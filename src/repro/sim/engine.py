"""The unified simulation façade: one ``simulate()`` call for every kind.

Historically each simulation kind exposed its own entry points —
``CacheSimulator.run`` / ``run_batch``, ``ServiceSimulator.run`` /
``run_batch``, ``JointSimulator.run`` / ``run_batch`` — six near-duplicate
surfaces.  :func:`simulate` subsumes all of them behind one dispatcher::

    from repro import ScenarioConfig, simulate

    # Stage 1 (kind inferred from the policy's role):
    result = simulate(ScenarioConfig.fig1a(), "mdp", num_slots=200)

    # Stage 2, explicit parameters:
    result = simulate(ScenarioConfig.fig1b(), "lyapunov:tradeoff_v=50")

    # Both stages coupled, multi-seed, one seed-axis loop:
    results = simulate(ScenarioConfig.fig1b(), ("mdp", "lyapunov"), seeds=8)

Policies may be registered names / ``"name:k=v,..."`` strings /
:class:`~repro.policies.PolicySpec` objects (built per run through the
registry) or ready policy instances (used exactly as the per-kind
simulator classes use them, so results are bit-identical to those).

What a kind is lives in one table, :data:`KINDS`: its simulator class,
the role of each policy it takes, whether its ``run_batch`` replays
precomputed arrival horizons, and which result its run record keeps as
the trace.  The runner, specs, run store, shared-memory shipment, serve
sessions and CLI all read it instead of branching on kind names.

There is one execution path.  Every kind has one per-slot body, a
seed-axis stepper (:class:`~repro.sim.cache_sim.CacheStepper`,
:class:`~repro.sim.service_sim.ServiceStepper`,
:class:`~repro.sim.joint_sim.JointStepper`,
:class:`~repro.sim.multihop_sim.MultihopStepper`; the first three share
one slot loop, stage 1 and then stage 2): a single run drives it with one
seed through the simulators' shared ``run``, *seeds* with every seed at
once through their shared ``run_batch``.  The multihop kind takes a flat
collection of policies of any role, so ``simulate()`` runs once per entry;
results are ordered policy-major, seed-minor.

The scalar test oracle that every path must reproduce byte for byte is
not part of the package: it lives with the tests (``tests/oracle``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.policies import CachingPolicy, ServicePolicy
from repro.exceptions import ConfigurationError, ValidationError
from repro.policies.onpath import OnPathStrategy
from repro.policies.registry import PolicySpec
from repro.sim.cache_sim import CacheSimulator
from repro.sim.joint_sim import JointSimulator
from repro.sim.metrics import METRICS_MODES
from repro.sim.multihop_sim import MultihopSimulator, _policy_role
from repro.sim.results import SimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import ServiceSimulator
from repro.utils.rng import spawn_run_seeds

__all__ = ["METRICS_MODES", "SIMULATION_KINDS", "simulate"]


@dataclass(frozen=True)
class SimulationKind:
    """What one simulation kind is, as every layer reads it.

    Attributes
    ----------
    name:
        The kind's key in :data:`KINDS`.
    simulator:
        The simulator class; it takes the scenario and then one policy per
        role.
    roles:
        The policy role of each policy the kind takes, in order: a
        ``RunSpec``/``ExperimentSpec`` fills them from ``policy`` and then
        ``service_policy``.  ``None`` admits any role (on-path, caching or
        service).
    replays_horizons:
        Whether ``run_batch`` replays precomputed arrival horizons (which
        the parallel runner may ship through shared memory).
    trace:
        The result attribute a :class:`~repro.runtime.runner.RunRecord`
        keeps as its trace, or ``None`` to keep none.
    """

    name: str
    simulator: type
    roles: Tuple[Optional[str], ...]
    replays_horizons: bool
    trace: Optional[str]

    def policies(self, policy: Any, service_policy: Any) -> Tuple[Any, ...]:
        """The per-role policies of a spec's ``policy``/``service_policy`` pair.

        Raises :class:`~repro.exceptions.ValidationError` when the pair does
        not fit the roles: a second policy the kind has no role for, or a
        missing one it needs.
        """
        if service_policy is None and len(self.roles) > 1:
            raise ValidationError(f"{self.name} runs need a service_policy")
        if service_policy is not None and len(self.roles) == 1:
            takers = " or ".join(
                f"kind={kind.name!r}" for kind in KINDS.values() if len(kind.roles) > 1
            )
            raise ValidationError(
                f"service_policy only applies to {takers}, not {self.name!r}"
            )
        return (policy, service_policy)[: len(self.roles)]

    def check_service_batch(self, service_batch: Optional[int]) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` when a spec sets
        *service_batch* on a kind with no service role: the run would ignore
        it, yet it would still key the run's store cell."""
        if service_batch is not None and "service" not in self.roles:
            raise ValidationError(
                f"service_batch only applies to kinds with a service role, "
                f"not {self.name!r}"
            )

    def spec_fields(self, policies: Sequence[Any]) -> Dict[str, Any]:
        """The ``policy``/``service_policy`` fields holding *policies*, one
        per role — the inverse of :meth:`policies`."""
        return dict(zip(("policy", "service_policy"), (*policies, None)))


#: The simulation kinds, keyed by name — the one place a kind is defined.
KINDS: Mapping[str, SimulationKind] = MappingProxyType(
    {
        kind.name: kind
        for kind in (
            SimulationKind(
                "cache", CacheSimulator, ("caching",), False, "cumulative_reward"
            ),
            SimulationKind(
                "service", ServiceSimulator, ("service",), True, "latency_history"
            ),
            SimulationKind(
                "joint", JointSimulator, ("caching", "service"), True, None
            ),
            SimulationKind(
                "multihop", MultihopSimulator, (None,), False, "latency_history"
            ),
        )
    }
)

SIMULATION_KINDS = tuple(KINDS)

#: Accepted policy references: a ready instance, a registered name /
#: ``"name:k=v,..."`` string, or a validated spec.
PolicyLike = Union[CachingPolicy, ServicePolicy, OnPathStrategy, PolicySpec, str]


def _role_of(policy: PolicyLike) -> str:
    """The role a policy reference plays: ``"caching"``, ``"service"``, or
    ``"onpath"``."""
    if isinstance(policy, (str, PolicySpec)):
        return PolicySpec.coerce(policy).role
    return _policy_role(policy)


def _wants_multihop(
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
) -> bool:
    """Whether *policies* implies the multihop kind (any on-path entry).

    Lists keep their historical ``(caching, service)`` joint meaning unless
    an on-path strategy appears; dicts always mean joint slots.
    """
    if isinstance(policies, dict):
        return False
    entries = policies if isinstance(policies, (list, tuple)) else [policies]
    return any(_role_of(policy) == "onpath" for policy in entries)


def _split_policies(
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
) -> Tuple[Optional[PolicyLike], Optional[PolicyLike]]:
    """Normalise the *policies* argument into ``(caching, service)`` slots."""
    if isinstance(policies, dict):
        unknown = sorted(set(policies) - {"caching", "service"})
        if unknown:
            raise ConfigurationError(
                f"unknown policy role(s) {', '.join(map(repr, unknown))}; "
                "expected 'caching' and/or 'service'"
            )
        caching = policies.get("caching")
        service = policies.get("service")
    elif isinstance(policies, (list, tuple)):
        if len(policies) != 2:
            raise ConfigurationError(
                "a policy sequence must be (caching_policy, service_policy); "
                f"got {len(policies)} entries"
            )
        caching, service = policies
    else:
        caching = service = None
        if _role_of(policies) == "caching":
            caching = policies
        else:
            service = policies
    if caching is None and service is None:
        raise ConfigurationError("at least one policy is required")
    if caching is not None and _role_of(caching) != "caching":
        raise ConfigurationError(
            "the caching slot needs a caching policy; got a "
            f"{_role_of(caching)} policy"
        )
    if service is not None and _role_of(service) != "service":
        raise ConfigurationError(
            "the service slot needs a service policy; got a "
            f"{_role_of(service)} policy"
        )
    return caching, service


def _materialize(policy: PolicyLike, scenario: ScenarioConfig) -> Any:
    """Turn a policy reference into an instance for one run on *scenario*.

    Specs and names build a fresh policy through the registry; instances
    pass through untouched (the historical per-kind class semantics).
    """
    if isinstance(policy, (str, PolicySpec)):
        return PolicySpec.coerce(policy).build(scenario)
    return policy


def _replicate(
    policy: PolicyLike, scenarios: Sequence[ScenarioConfig]
) -> List[Any]:
    """Per-seed policy instances for a batch, one per scenario replicate.

    Spec references build per-seed (each sees its own seeded scenario,
    exactly like :func:`repro.runtime.runner.execute_batch`); instances are
    deep-copied so every replicate starts from the same pristine state,
    exactly like ``run_batch(policies=None)``.
    """
    if isinstance(policy, (str, PolicySpec)):
        spec = PolicySpec.coerce(policy)
        return [spec.build(scenario) for scenario in scenarios]
    return [copy.deepcopy(policy) for _ in scenarios]


def _normalize_seeds(
    seeds: Union[int, Sequence[int]], scenario: ScenarioConfig
) -> List[int]:
    """Expand the *seeds* argument into an explicit list of master seeds."""
    if isinstance(seeds, bool):
        raise ValidationError(f"seeds must be an int or a sequence, got {seeds!r}")
    if isinstance(seeds, int):
        base = scenario.seed if scenario.seed is not None else 0
        return [int(s) for s in spawn_run_seeds(int(base), seeds)]
    return [int(s) for s in seeds]


def simulate(
    scenario: ScenarioConfig,
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
    *,
    kind: Optional[str] = None,
    seeds: Union[None, int, Sequence[int]] = None,
    num_slots: Optional[int] = None,
    service_batch: Optional[int] = None,
    metrics: str = "full",
    store: Any = None,
) -> Union[SimulationResult, List[SimulationResult]]:
    """Run one scenario under one or two policies and return the result(s).

    Parameters
    ----------
    scenario:
        The scenario to simulate.
    policies:
        What to evaluate: a single policy (kind inferred from its role), a
        ``(caching, service)`` pair or ``{"caching": ..., "service": ...}``
        dict for the coupled two-stage simulation, or — for the multihop
        kind, implied by any on-path strategy — a list of policies of any
        role, one run each (``simulate(scenario, ["lce",
        "probcache:t_tw=10", "mdp"])`` compares the family on identical
        workloads).  Each entry may be a policy instance, a registered
        name, a ``"name:k=v,..."`` string, or a
        :class:`~repro.policies.PolicySpec`.
    kind:
        Optional explicit simulation kind (one of :data:`SIMULATION_KINDS`);
        checked against the supplied policies.  Normally inferred.
    seeds:
        ``None`` for one run on the scenario's own seed; an int ``N`` for
        ``N`` replicates on seeds derived from the scenario seed (the same
        derivation the experiment runner uses); or an explicit sequence of
        master seeds.  When given, a list of results is returned, one per
        seed, in order.
    num_slots:
        Optional horizon override.
    service_batch:
        Optional per-slot service batch limit (service/joint kinds only).
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"``.
        ``summary()`` / ``rows()`` output is byte-identical; ``"summary"``
        keeps only the per-slot aggregates, so memory stays flat in the
        grid size on long-horizon runs (see :mod:`repro.sim.metrics`).
    store:
        Persistent run-store knob (see :mod:`repro.runtime.store`):
        ``None`` consults ``REPRO_RUN_STORE[_DIR]``, ``True``/a
        directory/a :class:`~repro.runtime.RunStore` enable it, ``False``
        disables it.  ``simulate()`` always executes (it returns full
        trajectory results, which the store does not hold) but
        *write-through* records each run's summary metrics and trace into
        the store, warming the cells that
        :meth:`ExperimentRunner.run_grid
        <repro.runtime.runner.ExperimentRunner.run_grid>` and the
        ``repro.cli results`` subcommand consume.  Runs whose policies are
        live instances (no canonical serial form) or whose scenario has no
        seed are skipped.

    Returns
    -------
    A single kind-specific :class:`~repro.sim.results.SimulationResult`
    when *seeds* is ``None``, else a list of them.  A list of multihop
    policies always returns a list, ordered policy-major, seed-minor.
    """
    kind, runs, single = _resolve_kind(
        policies, kind=kind, metrics=metrics, service_batch=service_batch, noun="runs"
    )
    results: List[SimulationResult] = []
    for run_policies in runs:
        results += _run(
            kind,
            scenario,
            run_policies,
            seeds=seeds,
            num_slots=num_slots,
            store=store,
            service_batch=service_batch,
            metrics=metrics,
        )
    return results[0] if seeds is None and single else results


def _resolve_kind(
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
    *,
    kind: Optional[str],
    metrics: str,
    service_batch: Optional[int],
    noun: str,
) -> Tuple[str, List[Tuple[Any, ...]], bool]:
    """Check the options shared by ``simulate()`` and sessions; infer the kind.

    Returns ``(kind, runs, single)``.  *runs* lists one tuple per run to
    evaluate, holding one policy per role of the kind (see
    :data:`KINDS`); the multihop kind's *policies* are a flat collection,
    one run per entry.  *single* is false when *policies* listed multihop
    runs, whose results stay a list.  *noun* names the caller's runs in
    messages.
    """
    if metrics not in METRICS_MODES:
        raise ConfigurationError(
            f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
        )
    if kind is not None and kind not in KINDS:
        raise ConfigurationError(
            f"kind must be one of {SIMULATION_KINDS}, got {kind!r}"
        )
    if kind == "multihop" or _wants_multihop(policies):
        if kind not in (None, "multihop"):
            raise ConfigurationError(
                f"kind={kind!r} does not match the supplied policies "
                "(an on-path strategy implies 'multihop')"
            )
        single = not isinstance(policies, (list, tuple))
        runs = [(policy,) for policy in ([policies] if single else policies)]
        if not runs:
            raise ConfigurationError("at least one policy is required")
        inferred = "multihop"
    else:
        slots = [
            (role, policy)
            for role, policy in zip(("caching", "service"), _split_policies(policies))
            if policy is not None
        ]
        roles = tuple(role for role, _ in slots)
        inferred = next(name for name, entry in KINDS.items() if entry.roles == roles)
        if kind is not None and kind != inferred:
            raise ConfigurationError(
                f"kind={kind!r} does not match the supplied policies "
                f"(which imply {inferred!r}); pass both a caching and a "
                "service policy for 'joint'"
            )
        runs, single = [tuple(policy for _, policy in slots)], True
    if service_batch is not None and "service" not in KINDS[inferred].roles:
        raise ConfigurationError(f"service_batch does not apply to {inferred} {noun}")
    return inferred, runs, single


def _simulator(
    kind: str,
    scenario: ScenarioConfig,
    policies: Sequence[Any],
    *,
    service_batch: Optional[int] = None,
    **options: Any,
) -> Any:
    """The simulator of *kind* over *policies*, one per role of the kind.

    *options* hold ``metrics``; *service_batch* reaches only the kinds with
    a service role.
    """
    entry = KINDS[kind]
    if "service" in entry.roles:
        options["service_batch"] = service_batch
    return entry.simulator(scenario, *policies, **options)


def _run_seeds(
    kind: str,
    scenario: ScenarioConfig,
    seeds: Sequence[int],
    policies: Sequence[Sequence[Any]],
    *,
    num_slots: Optional[int] = None,
    horizons: Optional[Sequence] = None,
    **options: Any,
) -> List[SimulationResult]:
    """One seed group of any kind through its simulator's ``run_batch``.

    Shared by :func:`simulate` and :func:`repro.runtime.runner.execute_batch`.
    *policies* holds the per-seed instances of each role of the kind;
    *horizons* the optional precomputed arrival tensors (kinds that replay
    them only).  A kind with several roles names each role's instances
    (``caching_policies=``, ``service_policies=``).
    """
    roles = KINDS[kind].roles
    simulator = _simulator(kind, scenario, [None] * len(roles), **options)
    if len(roles) == 1:
        keywords = {"policies": policies[0]}
    else:
        keywords = {f"{role}_policies": group for role, group in zip(roles, policies)}
    return simulator.run_batch(
        seeds, num_slots=num_slots, horizons=horizons, **keywords
    )


def _run(
    kind: str,
    scenario: ScenarioConfig,
    policies: Tuple[PolicyLike, ...],
    *,
    seeds: Union[None, int, Sequence[int]],
    num_slots: Optional[int],
    store: Any,
    **options: Any,
) -> List[SimulationResult]:
    """Run one policy tuple of *kind*: one run, or one seed-axis batch.

    The finished runs are written through to *store*.
    """
    if seeds is None:
        results = [
            _simulator(
                kind,
                scenario,
                [_materialize(policy, scenario) for policy in policies],
                **options,
            ).run(num_slots=num_slots)
        ]
    else:
        # Per-seed policy instances: spec references build per seeded
        # scenario, instances deep-copy per seed — so each replicate starts
        # pristine, exactly like a run on that seed alone.
        seed_list = _normalize_seeds(seeds, scenario)
        scenarios = [scenario.with_overrides(seed=seed) for seed in seed_list]
        results = _run_seeds(
            kind,
            scenario,
            seed_list,
            [_replicate(policy, scenarios) for policy in policies],
            num_slots=num_slots,
            **options,
        )
    _store_write_through(
        store,
        kind=kind,
        policies=policies,
        results=results,
        num_slots=num_slots,
        service_batch=options.get("service_batch"),
        metrics=options["metrics"],
    )
    return results


def _store_write_through(
    store: Any,
    *,
    kind: str,
    policies: Sequence[PolicyLike],
    results: Sequence[SimulationResult],
    **run_options: Any,
) -> None:
    """Record finished ``simulate()`` runs of any kind into the run store.

    Uses exactly the cell keys :meth:`ExperimentRunner.run_grid
    <repro.runtime.runner.ExperimentRunner.run_grid>` computes, so a
    ``simulate()`` call warms the same cells a later sweep would hit.
    *policies* holds one reference per role of *kind*; *run_options* are
    the remaining :class:`~repro.runtime.runner.RunSpec` fields
    (``num_slots``, ``service_batch``, ``metrics``).
    Silently skips runs it cannot address: opaque policy instances,
    seedless scenarios, or a store disabled by the environment.
    """
    if store is None or store is False:
        return
    if not all(isinstance(policy, (str, PolicySpec)) for policy in policies):
        return
    # Imported lazily — repro.runtime imports the sim package.
    from repro.runtime.runner import RunSpec, _run_record
    from repro.runtime.store import RunStore, resolve_store

    specs = [
        PolicySpec.coerce(policy, role=role)
        for policy, role in zip(policies, KINDS[kind].roles)
    ]
    resolved = resolve_store(store)
    if resolved is None:
        return
    label = f"{kind}:" + "+".join(spec.label() for spec in specs)
    try:
        items = []
        for result in results:
            seed = result.config.seed
            if seed is None:
                continue
            spec = RunSpec(
                kind=kind,
                scenario=result.config,
                seed=int(seed),
                label=label,
                **KINDS[kind].spec_fields(specs),
                **run_options,
            )
            items.append((spec, int(seed), _run_record(spec, seed, result)))
        if items:
            resolved.put_many(items)
    finally:
        if not isinstance(store, RunStore):
            resolved.close()
