"""Parameter sweeps and policy-comparison experiment runners.

These functions implement the ablation experiments indexed in DESIGN.md
(E4-E7): the reward-weight sweep, the Lyapunov-V sweep, the caching-policy
comparison, and the scalability measurement.  Each returns a list of plain
dictionaries (one row per configuration) so benchmarks, examples, and the
EXPERIMENTS.md generation all consume the same output.

Every sweep executes through :class:`repro.runtime.ExperimentRunner`: pass
``num_seeds`` to average each grid point over independent scenario seeds
(rows then carry ``<metric>_ci`` 95% half-widths and a ``num_seeds`` count)
and ``workers`` to fan the grid out over worker processes.  Results are
identical for every worker count.  Multi-seed grids dispatch through the
simulators' seed-batched tensor path, and MDP solves are shared across grid
points and processes via :mod:`repro.core.solve_cache` — a sweep only
re-solves the models whose parameters actually changed.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.caching import standard_caching_baselines
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.core.policies import CachingPolicy, ServicePolicy
from repro.exceptions import ValidationError
from repro.policies.registry import PolicySpec, create_policy
from repro.runtime.runner import ExperimentRunner, RunSpec
from repro.sim import CacheSimulator, ScenarioConfig
from repro.sim.engine import KINDS
from repro.utils.rng import spawn_run_seeds
from repro.utils.validation import check_positive_int
from repro.workloads import WorkloadSpec

#: Canonical registry spec of the paper's MDP caching policy.  Building
#: every sweep's policy through one spec keeps the constructor parameters
#: canonical, so exact MDP solves are shared via the solve cache across all
#: call sites regardless of how a sweep spelled the policy.
_MDP_SPEC = PolicySpec("mdp")


def mdp_policy_factory(scenario: ScenarioConfig) -> MDPCachingPolicy:
    """Build the paper's MDP caching policy for *scenario* (picklable).

    Routed through the policy registry (``PolicySpec("mdp")``), so the
    construction — and therefore the solve-cache key — is canonical.
    """
    return _MDP_SPEC.build(scenario)


def lyapunov_policy_factory(
    scenario: ScenarioConfig, *, tradeoff_v: Optional[float] = None
) -> LyapunovServiceController:
    """Build the Lyapunov service controller for *scenario* (picklable).

    Routed through the policy registry; ``tradeoff_v=None`` defaults to
    the scenario's coefficient.
    """
    return PolicySpec.create("lyapunov", tradeoff_v=tradeoff_v).build(scenario)


def _row_from_aggregate(
    aggregated: Dict[str, Any],
    keys: Sequence[str],
    head: Dict[str, Any],
) -> Dict[str, Any]:
    """Build a sweep row: *head* columns, then *keys* (+ their CI columns)."""
    row = dict(head)
    for key in keys:
        row[key] = aggregated[key]
        if f"{key}_ci" in aggregated:
            row[f"{key}_ci"] = aggregated[f"{key}_ci"]
    if aggregated.get("num_seeds", 1) > 1:
        row["num_seeds"] = aggregated["num_seeds"]
    return row


_WEIGHT_SWEEP_KEYS = (
    "mean_age",
    "violation_fraction",
    "total_cost",
    "total_updates",
    "total_reward",
)


def weight_sweep(
    weights: Sequence[float],
    *,
    config: Optional[ScenarioConfig] = None,
    num_slots: Optional[int] = None,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Sweep the Eq. (1) AoI weight ``w`` and report the AoI/cost trade-off.

    For each weight the MDP policy is re-solved and re-simulated; the row
    records the mean cache age, violation fraction, total MBS cost, and total
    reward.  Raising ``w`` should buy fresher caches at higher cost (E4).
    With ``num_seeds > 1`` every weight is averaged over independent seeds
    (the rows then carry ``<metric>_ci`` half-widths) and ``workers``
    controls how many processes execute the grid.
    """
    if not weights:
        raise ValidationError("weights must be non-empty")
    base = config or ScenarioConfig.fig1a()
    specs = [
        RunSpec(
            kind="cache",
            scenario=base.with_overrides(aoi_weight=float(weight)),
            policy=mdp_policy_factory,
            seed=base.seed if base.seed is not None else 0,
            # The grid index keeps labels unique even when the same weight
            # is swept twice — labels are the aggregation key, so duplicates
            # would merge rows and misalign the zip below.
            label=f"{index}:w={float(weight):g}",
            num_slots=num_slots,
        )
        for index, weight in enumerate(weights)
    ]
    batch = ExperimentRunner(workers).run_grid(specs, num_seeds=num_seeds)
    return [
        _row_from_aggregate(
            aggregated, _WEIGHT_SWEEP_KEYS, {"weight": float(weight)}
        )
        for weight, aggregated in zip(weights, batch.aggregate())
    ]


def v_sweep(
    v_values: Sequence[float],
    *,
    config: Optional[ScenarioConfig] = None,
    num_slots: Optional[int] = None,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Sweep the Lyapunov trade-off coefficient ``V`` (E5).

    For each ``V`` the Lyapunov controller is simulated on the Fig. 1b
    scenario; the row records the time-average cost and backlog.  The classic
    drift-plus-penalty result predicts cost decreasing (towards its optimum)
    and backlog increasing roughly linearly in ``V``.  ``num_seeds`` and
    ``workers`` behave as in :func:`weight_sweep`.
    """
    if not v_values:
        raise ValidationError("v_values must be non-empty")
    base = config or ScenarioConfig.fig1b()
    specs = [
        RunSpec(
            kind="service",
            scenario=base,
            policy=partial(lyapunov_policy_factory, tradeoff_v=float(v)),
            seed=base.seed if base.seed is not None else 0,
            # Index-prefixed for uniqueness; see weight_sweep.
            label=f"{index}:V={float(v):g}",
            num_slots=num_slots,
        )
        for index, v in enumerate(v_values)
    ]
    batch = ExperimentRunner(workers).run_grid(specs, num_seeds=num_seeds)
    keys = (
        "time_average_cost",
        "time_average_backlog",
        "peak_backlog",
        "service_rate",
        "stable",
    )
    return [
        _row_from_aggregate(aggregated, keys, {"tradeoff_v": float(v)})
        for v, aggregated in zip(v_values, batch.aggregate())
    ]


def _default_caching_policy(
    scenario: ScenarioConfig,
    *,
    name: str,
    weight: float,
    rng_seed: int,
    base_seed: int,
) -> CachingPolicy:
    """Build one default E6 comparison policy for *scenario* (picklable).

    The base-seed replicate keeps the historical ``rng=rng_seed`` stream
    (so single-seed comparisons reproduce pre-1.1 outputs exactly); every
    other replicate derives its stream from ``(rng_seed, scenario seed)``,
    giving the stochastic baseline independent policy randomness per seed
    while staying deterministic for any worker count.
    """
    if name == "mdp":
        return _MDP_SPEC.build(scenario)
    scenario_seed = int(scenario.seed if scenario.seed is not None else 0)
    if scenario_seed == int(base_seed):
        rng: object = rng_seed
    else:
        rng = np.random.SeedSequence([int(rng_seed), scenario_seed])
    return standard_caching_baselines(weight=weight, rng=rng)[name]


def caching_policy_comparison(
    *,
    config: Optional[ScenarioConfig] = None,
    policies: Optional[Dict[str, CachingPolicy]] = None,
    num_slots: Optional[int] = None,
    rng_seed: int = 0,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Compare the MDP caching policy against the standard baselines (E6).

    ``num_seeds`` and ``workers`` behave as in :func:`weight_sweep`.  The
    default policy set is built per run from a seed-aware factory, so the
    stochastic baseline draws independent streams per seed replicate.  A
    caller-supplied ``policies`` dict holds *instances*: each run deep-copies
    them, which means a stochastic instance replays the identical internal
    RNG stream in every replicate — pass a factory through the lower-level
    :class:`~repro.runtime.RunSpec` API when per-seed policy randomness
    matters.
    """
    scenario = config or ScenarioConfig.fig1a()
    base_seed = scenario.seed if scenario.seed is not None else 0
    if policies is None:
        legacy: Dict[str, CachingPolicy] = {"mdp": _MDP_SPEC.build(scenario)}
        legacy.update(
            standard_caching_baselines(weight=scenario.aoi_weight, rng=rng_seed)
        )
        if num_seeds == 1:
            # Single seed: run the constructed instances directly — the
            # exact pre-1.1 behaviour (and RNG streams) of this function.
            grid: Dict[str, Any] = legacy
        else:
            grid = {
                name: partial(
                    _default_caching_policy,
                    name=name,
                    weight=scenario.aoi_weight,
                    rng_seed=rng_seed,
                    base_seed=base_seed,
                )
                for name in legacy
            }
    else:
        grid = dict(policies)
    specs = [
        RunSpec(
            kind="cache",
            scenario=scenario,
            policy=policy,
            seed=base_seed,
            label=name,
            num_slots=num_slots,
        )
        for name, policy in grid.items()
    ]
    batch = ExperimentRunner(workers).run_grid(specs, num_seeds=num_seeds)
    keys = (
        "total_reward",
        "mean_age",
        "violation_fraction",
        "total_cost",
        "total_updates",
    )
    return [
        _row_from_aggregate(aggregated, keys, {"policy": name})
        for name, aggregated in zip(grid, batch.aggregate())
    ]


def service_policy_comparison(
    *,
    config: Optional[ScenarioConfig] = None,
    policies: Optional[Dict[str, ServicePolicy]] = None,
    num_slots: Optional[int] = None,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Compare the Lyapunov service policy against the baselines (Fig. 1b table).

    ``num_seeds`` and ``workers`` behave as in :func:`weight_sweep`.
    """
    scenario = config or ScenarioConfig.fig1b()
    if policies is None:
        # Registry-built: identical instances to the historical literals,
        # with canonical construction parameters.
        policies = {
            "lyapunov": create_policy("lyapunov", scenario),
            "always-serve": create_policy("always-serve", scenario),
            "cost-greedy": create_policy(
                PolicySpec.create("cost-greedy", backlog_cap=50.0), scenario
            ),
        }
    specs = [
        RunSpec(
            kind="service",
            scenario=scenario,
            policy=policy,
            seed=scenario.seed if scenario.seed is not None else 0,
            label=name,
            num_slots=num_slots,
        )
        for name, policy in policies.items()
    ]
    batch = ExperimentRunner(workers).run_grid(specs, num_seeds=num_seeds)
    keys = (
        "time_average_cost",
        "time_average_backlog",
        "peak_backlog",
        "total_served",
        "stable",
    )
    return [
        _row_from_aggregate(aggregated, keys, {"policy": name})
        for name, aggregated in zip(policies, batch.aggregate())
    ]


_WORKLOAD_SWEEP_KEYS = {
    "cache": _WEIGHT_SWEEP_KEYS,
    "service": (
        "time_average_cost",
        "time_average_backlog",
        "peak_backlog",
        "service_rate",
        "stable",
    ),
    "joint": (
        "cache_total_reward",
        "cache_mean_age",
        "cache_violation_fraction",
        "service_time_average_cost",
        "service_time_average_backlog",
    ),
}


def workload_sweep(
    workloads: Sequence,
    *,
    kind: str = "service",
    config: Optional[ScenarioConfig] = None,
    num_slots: Optional[int] = None,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Evaluate the paper's policies under each registered workload model.

    Every entry of *workloads* (a registered name, a ``"name:k=v,..."``
    string, or a :class:`~repro.workloads.WorkloadSpec`) becomes one grid
    point: the base scenario re-run with that request process.  ``kind``
    selects the simulator — ``"service"`` (default, Fig. 1b scenario with
    the Lyapunov controller, where workload churn actually bites),
    ``"cache"`` (Fig. 1a scenario with the MDP policy), or ``"joint"``
    (both stages coupled).  ``num_seeds`` and ``workers`` behave as in
    :func:`weight_sweep`.
    """
    if not workloads:
        raise ValidationError("workloads must be non-empty")
    if kind not in _WORKLOAD_SWEEP_KEYS:
        raise ValidationError(
            f"kind must be one of {tuple(_WORKLOAD_SWEEP_KEYS)}, got {kind!r}"
        )
    if config is None:
        config = ScenarioConfig.fig1a() if kind == "cache" else ScenarioConfig.fig1b()
    # The paper's controller of each role the kind takes.
    factories = {"caching": mdp_policy_factory, "service": lyapunov_policy_factory}
    policies = KINDS[kind].spec_fields([factories[role] for role in KINDS[kind].roles])
    specs_workloads = [WorkloadSpec.coerce(workload) for workload in workloads]
    seed = config.seed if config.seed is not None else 0
    specs = [
        RunSpec(
            kind=kind,
            scenario=config.with_overrides(workload=workload),
            seed=seed,
            # Index-prefixed for uniqueness; see weight_sweep.
            label=f"{index}:{workload.label()}",
            num_slots=num_slots,
            **policies,
        )
        for index, workload in enumerate(specs_workloads)
    ]
    batch = ExperimentRunner(workers).run_grid(specs, num_seeds=num_seeds)
    return [
        _row_from_aggregate(
            aggregated,
            _WORKLOAD_SWEEP_KEYS[kind],
            {"workload": workload.label()},
        )
        for workload, aggregated in zip(specs_workloads, batch.aggregate())
    ]


def _timed_scalability_run(
    task: Tuple[int, int, int, int],
) -> Dict[str, float]:
    """Run and time one scalability grid point (module-level, picklable)."""
    num_rsus, contents_per_rsu, num_slots, seed = task
    scenario = ScenarioConfig(
        num_rsus=num_rsus,
        contents_per_rsu=contents_per_rsu,
        num_slots=num_slots,
        seed=seed,
    )
    policy = _MDP_SPEC.build(scenario)
    start = time.perf_counter()
    result = CacheSimulator(scenario, policy).run()
    elapsed = time.perf_counter() - start
    return {
        "num_rsus": float(scenario.num_rsus),
        "contents_per_rsu": float(scenario.contents_per_rsu),
        "num_contents": float(scenario.num_contents),
        "num_slots": float(num_slots),
        "wall_seconds": float(elapsed),
        "slots_per_second": float(num_slots / elapsed) if elapsed > 0 else float("inf"),
        "total_reward": result.total_reward,
    }


def scalability_sweep(
    sizes: Sequence[Dict[str, int]],
    *,
    num_slots: int = 100,
    seed: int = 0,
    num_seeds: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Measure solve and simulation time as the system grows (E7).

    Parameters
    ----------
    sizes:
        Each entry is ``{"num_rsus": ..., "contents_per_rsu": ...}``.
    num_slots:
        Horizon of the timed simulation runs.
    seed:
        Scenario seed.
    num_seeds:
        Independent seeds per size; wall-clock and reward columns report the
        across-seed mean.
    workers:
        Worker processes for the grid.  Note that concurrent timed runs
        contend for cores, so keep ``workers=1`` (the serial default inside
        pool workers) when the absolute wall-clock numbers matter.
    """
    if not sizes:
        raise ValidationError("sizes must be non-empty")
    num_slots = check_positive_int(num_slots, "num_slots")
    tasks: List[Tuple[int, int, int, int]] = []
    for size in sizes:
        for run_seed in spawn_run_seeds(seed, num_seeds):
            tasks.append(
                (
                    int(size["num_rsus"]),
                    int(size["contents_per_rsu"]),
                    num_slots,
                    run_seed,
                )
            )
    results = ExperimentRunner(workers).map(_timed_scalability_run, tasks)
    rows: List[Dict[str, float]] = []
    for index in range(len(sizes)):
        group = results[index * num_seeds : (index + 1) * num_seeds]
        row = {
            key: float(np.mean([entry[key] for entry in group]))
            for key in group[0]
        }
        if num_seeds > 1:
            row["num_seeds"] = float(num_seeds)
        rows.append(row)
    return rows


def format_table(rows: Sequence[Dict[str, object]], *, precision: int = 4) -> str:
    """Format a list of result rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.{precision}g}")
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(str(column)), max(len(row[i]) for row in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered
    )
    return "\n".join([header, separator, body])
