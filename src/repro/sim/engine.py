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

There is one execution path.  The cache, service and joint kinds each have
one vectorised per-slot body, a seed-axis stepper
(:class:`~repro.sim.cache_sim.CacheStepper`,
:class:`~repro.sim.service_sim.ServiceStepper`,
:class:`~repro.sim.joint_sim.JointStepper`): a single run drives it with
one seed, *seeds* drives it with every seed at once.  The multihop kind
runs its per-request graph walk.

The original scalar loops survive only as the private test oracle,
:func:`_reference`, which the equivalence suites compare every path
against byte for byte.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.policies import CachingPolicy, ServicePolicy
from repro.exceptions import ConfigurationError, ValidationError
from repro.policies.onpath import OnPathStrategy
from repro.policies.registry import PolicySpec
from repro.sim.cache_sim import CacheSimulator
from repro.sim.joint_sim import JointSimulator
from repro.sim.metrics import METRICS_MODES
from repro.sim.multihop_sim import MultihopSimulator
from repro.sim.results import SimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.service_sim import ServiceSimulator
from repro.utils.rng import spawn_run_seeds

__all__ = ["METRICS_MODES", "SIMULATION_KINDS", "simulate"]

SIMULATION_KINDS = ("cache", "service", "joint", "multihop")

#: Accepted policy references: a ready instance, a registered name /
#: ``"name:k=v,..."`` string, or a validated spec.
PolicyLike = Union[CachingPolicy, ServicePolicy, OnPathStrategy, PolicySpec, str]


def _role_of(policy: PolicyLike) -> str:
    """The role a policy reference plays: ``"caching"``, ``"service"``, or
    ``"onpath"``."""
    if isinstance(policy, OnPathStrategy):
        return "onpath"
    if isinstance(policy, CachingPolicy):
        return "caching"
    if isinstance(policy, ServicePolicy):
        return "service"
    return PolicySpec.coerce(policy).role


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
        dict for the coupled two-stage simulation.  Each entry may be a
        policy instance, a registered name, a ``"name:k=v,..."`` string, or
        a :class:`~repro.policies.PolicySpec`.
    kind:
        Optional explicit simulation kind (``"cache"``, ``"service"``,
        ``"joint"``); checked against the supplied policies.  Normally
        inferred.
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
    when *seeds* is ``None``, else a list of them.
    """
    kind, main, second = _resolve_kind(
        policies, kind=kind, metrics=metrics, service_batch=service_batch, noun="runs"
    )
    if kind == "multihop":
        return _simulate_multihop(
            scenario,
            policies,
            seeds=seeds,
            num_slots=num_slots,
            metrics=metrics,
            store=store,
        )
    results = _run(
        kind,
        scenario,
        main,
        second,
        seeds=seeds,
        num_slots=num_slots,
        store=store,
        service_batch=service_batch,
        metrics=metrics,
    )
    return results[0] if seeds is None else results


def _resolve_kind(
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
    *,
    kind: Optional[str],
    metrics: str,
    service_batch: Optional[int],
    noun: str,
) -> Tuple[str, Optional[PolicyLike], Optional[PolicyLike]]:
    """Check the options shared by ``simulate()`` and sessions; infer the kind.

    Returns ``(kind, policy, service_policy)``: the main policy is the
    caching one for the cache and joint kinds and the service one for the
    service kind; *service_policy* is the joint kind's second stage.  The
    multihop kind returns ``("multihop", None, None)`` — its *policies*
    are a flat collection.  *noun* names the caller's runs in messages.
    """
    if metrics not in METRICS_MODES:
        raise ConfigurationError(
            f"metrics must be one of {METRICS_MODES}, got {metrics!r}"
        )
    if kind is not None and kind not in SIMULATION_KINDS:
        raise ConfigurationError(
            f"kind must be one of {SIMULATION_KINDS}, got {kind!r}"
        )
    if kind == "multihop" or _wants_multihop(policies):
        if kind not in (None, "multihop"):
            raise ConfigurationError(
                f"kind={kind!r} does not match the supplied policies "
                "(an on-path strategy implies 'multihop')"
            )
        if service_batch is not None:
            raise ConfigurationError(
                f"service_batch does not apply to multihop {noun}"
            )
        return "multihop", None, None
    caching, service = _split_policies(policies)
    inferred = (
        "joint"
        if caching is not None and service is not None
        else ("cache" if caching is not None else "service")
    )
    if kind is not None and kind != inferred:
        raise ConfigurationError(
            f"kind={kind!r} does not match the supplied policies "
            f"(which imply {inferred!r}); pass both a caching and a "
            "service policy for 'joint'"
        )
    if service_batch is not None and inferred == "cache":
        raise ConfigurationError(f"service_batch does not apply to cache {noun}")
    if inferred == "service":
        return inferred, service, None
    return inferred, caching, service


def _simulator(
    kind: str,
    scenario: ScenarioConfig,
    policy: Any,
    service_policy: Any = None,
    *,
    service_batch: Optional[int] = None,
    **options: Any,
) -> Any:
    """The simulator of *kind* — the one place the per-kind classes are built.

    *policy* is the caching policy (cache, joint), the service policy
    (service) or the multihop policy; *service_policy* is the joint kind's
    second stage.  *options* hold ``metrics``.
    """
    if kind == "cache":
        return CacheSimulator(scenario, policy, **options)
    if kind == "service":
        return ServiceSimulator(
            scenario, policy, service_batch=service_batch, **options
        )
    if kind == "joint":
        return JointSimulator(
            scenario, policy, service_policy, service_batch=service_batch, **options
        )
    return MultihopSimulator(scenario, policy, **options)


def _run_seeds(
    kind: str,
    scenario: ScenarioConfig,
    seeds: Sequence[int],
    policies: Sequence[Any],
    service_policies: Optional[Sequence[Any]] = None,
    *,
    num_slots: Optional[int] = None,
    horizons: Optional[Sequence] = None,
    **options: Any,
) -> List[SimulationResult]:
    """One seed group of any kind through its simulator's ``run_batch``.

    Shared by :func:`simulate` and :func:`repro.runtime.runner.execute_batch`.
    *policies* / *service_policies* are the per-seed instances; *horizons*
    the optional precomputed arrival tensors (service and joint kinds).
    """
    simulator = _simulator(kind, scenario, None, None, **options)
    if kind == "joint":
        return simulator.run_batch(
            seeds,
            caching_policies=policies,
            service_policies=service_policies,
            num_slots=num_slots,
            horizons=horizons,
        )
    if kind == "service":
        return simulator.run_batch(
            seeds, policies=policies, num_slots=num_slots, horizons=horizons
        )
    return simulator.run_batch(seeds, policies=policies, num_slots=num_slots)


def _run(
    kind: str,
    scenario: ScenarioConfig,
    policy: PolicyLike,
    service_policy: Optional[PolicyLike],
    *,
    seeds: Union[None, int, Sequence[int]],
    num_slots: Optional[int],
    store: Any,
    **options: Any,
) -> List[SimulationResult]:
    """Run one policy (pair) of *kind*: one run, or one seed-axis batch.

    The finished runs are written through to *store*.
    """
    if seeds is None:
        results = [
            _simulator(
                kind,
                scenario,
                _materialize(policy, scenario),
                _materialize(service_policy, scenario),
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
            _replicate(policy, scenarios),
            _replicate(service_policy, scenarios) if kind == "joint" else None,
            num_slots=num_slots,
            **options,
        )
    _store_write_through(
        store,
        kind=kind,
        policy=policy,
        service_policy=service_policy,
        results=results,
        num_slots=num_slots,
        service_batch=options.get("service_batch"),
        metrics=options["metrics"],
    )
    return results


def _simulate_multihop(
    scenario: ScenarioConfig,
    policies: Union[PolicyLike, Sequence[PolicyLike]],
    *,
    seeds: Union[None, int, Sequence[int]],
    num_slots: Optional[int],
    metrics: str,
    store: Any,
) -> Union[SimulationResult, List[SimulationResult]]:
    """Run the multihop kind: any number of policies, any role, one loop.

    Unlike the other kinds, *policies* is a flat collection — on-path
    strategies, caching policies, and service policies all route through
    the one :class:`~repro.sim.multihop_sim.MultihopSimulator` grid, so
    ``simulate(scenario, ["lce", "probcache:t_tw=10", "mdp"])`` compares
    the whole family on identical workloads.  Results are ordered
    policy-major, seed-minor.
    """
    single_policy = not isinstance(policies, (list, tuple))
    policy_list = [policies] if single_policy else list(policies)
    if not policy_list:
        raise ConfigurationError("at least one policy is required")
    results: List[SimulationResult] = []
    for policy in policy_list:
        results += _run(
            "multihop",
            scenario,
            policy,
            None,
            seeds=seeds,
            num_slots=num_slots,
            store=store,
            metrics=metrics,
        )
    if seeds is None and single_policy:
        return results[0]
    return results


def _reference(
    scenario: ScenarioConfig,
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
    *,
    seeds: Union[None, int, Sequence[int]] = None,
    num_slots: Optional[int] = None,
    service_batch: Optional[int] = None,
    metrics: str = "full",
) -> Union[SimulationResult, List[SimulationResult]]:
    """The scalar reference loops: the private test oracle.

    Takes the arguments of :func:`simulate` (less ``kind`` and ``store``)
    and resolves policies and seeds exactly as it does, but runs each seed
    through its simulator's original scalar loop, one after another, and
    writes nothing to any store.  Every execution path must reproduce it
    byte for byte.  The multihop kind has no scalar loop.
    """
    kind, main, second = _resolve_kind(
        policies, kind=None, metrics=metrics, service_batch=service_batch, noun="runs"
    )
    if kind == "multihop":
        raise ConfigurationError("the multihop kind has no scalar reference loop")
    if seeds is None:
        scenarios = [scenario]
        mains = [_materialize(main, scenario)]
        seconds = [_materialize(second, scenario)]
    else:
        scenarios = [
            scenario.with_overrides(seed=seed)
            for seed in _normalize_seeds(seeds, scenario)
        ]
        mains = _replicate(main, scenarios)
        seconds = _replicate(second, scenarios)
    results = [
        _simulator(
            kind, config, policy, service_policy,
            service_batch=service_batch, metrics=metrics,
        )._run_reference(num_slots)
        for config, policy, service_policy in zip(scenarios, mains, seconds)
    ]
    return results[0] if seeds is None else results


def _store_write_through(
    store: Any,
    *,
    kind: str,
    policy: Optional[PolicyLike],
    service_policy: Optional[PolicyLike],
    results: Sequence[SimulationResult],
    **run_options: Any,
) -> None:
    """Record finished ``simulate()`` runs of any kind into the run store.

    Uses exactly the cell keys :meth:`ExperimentRunner.run_grid
    <repro.runtime.runner.ExperimentRunner.run_grid>` computes, so a
    ``simulate()`` call warms the same cells a later sweep would hit.
    *run_options* are the remaining :class:`~repro.runtime.runner.RunSpec`
    fields (``num_slots``, ``service_batch``, ``metrics``).
    Silently skips runs it cannot address: opaque policy instances,
    seedless scenarios, or a store disabled by the environment.
    """
    if store is None or store is False:
        return
    # Imported lazily — repro.runtime imports the sim package.
    from repro.runtime.runner import RunSpec, _run_record
    from repro.runtime.store import RunStore, resolve_store

    def spec_of(reference: Optional[PolicyLike], role: Optional[str]):
        if not isinstance(reference, (str, PolicySpec)):
            return None
        return PolicySpec.coerce(reference, role=role)

    role = {"cache": "caching", "service": "service", "joint": "caching"}.get(kind)
    main = spec_of(policy, role)
    second = spec_of(service_policy, "service") if kind == "joint" else None
    if main is None or (kind == "joint" and second is None):
        return
    resolved = resolve_store(store)
    if resolved is None:
        return
    label = f"{kind}:{main.label()}"
    if second is not None:
        label += f"+{second.label()}"
    try:
        items = []
        for result in results:
            seed = result.config.seed
            if seed is None:
                continue
            spec = RunSpec(
                kind=kind,
                scenario=result.config,
                policy=main,
                seed=int(seed),
                label=label,
                service_policy=second,
                **run_options,
            )
            items.append((spec, int(seed), _run_record(spec, seed, result)))
        if items:
            resolved.put_many(items)
    finally:
        if not isinstance(store, RunStore):
            resolved.close()
