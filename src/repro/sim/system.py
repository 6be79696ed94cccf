"""Shared per-run system construction for all simulation kinds.

:class:`SystemState` materialises one scenario — topology, catalog, caches,
cost models, workload, and the static parameter/index matrices consumed by
both the scalar reference loops and the vectorised hot loops.  It is
internal plumbing shared by :mod:`repro.sim.cache_sim`,
:mod:`repro.sim.service_sim`, :mod:`repro.sim.joint_sim`, and
:mod:`repro.sim.multihop_sim`, together with the option handling of their
simulators (:class:`_Simulator`) and the setup and slot loop of the
seed-axis steppers (:class:`_SeedStepper`).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.policies import CacheObservation
from repro.core.reward import UtilityFunction
from repro.exceptions import ValidationError
from repro.net.cache import MBSContentStore, RSUCache
from repro.sim.metrics import check_metrics_mode
from repro.sim.scenario import ScenarioConfig
from repro.utils.validation import check_positive_int

class SystemState:
    """Shared construction of topology, catalog, caches, and parameters."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        streams = config.spawn_rngs(6)
        (
            self.catalog_rng,
            self.init_rng,
            self.workload_rng,
            self.update_cost_rng,
            self.service_cost_rng,
            self.policy_rng,
        ) = streams
        self.topology = config.build_topology()
        self.catalog = config.build_catalog(self.catalog_rng)
        self.update_cost_model = config.build_update_cost_model(self.update_cost_rng)
        self.service_cost_model = config.build_service_cost_model(self.service_cost_rng)
        self.workload = config.build_workload(
            self.topology, self.catalog, rng=self.workload_rng
        )
        self.mbs_store = MBSContentStore(self.catalog)
        self.caches: List[RSUCache] = []
        for rsu in self.topology.rsus:
            cache = RSUCache(rsu.rsu_id, rsu.covered_regions, self.catalog)
            if config.random_initial_ages:
                cache.randomize_ages(self.init_rng)
            self.caches.append(cache)
        # Static per-(RSU, content-slot) parameter matrices, gathered from
        # one-pass catalog arrays (per-item catalog indexing is measurable
        # setup cost at production grid sizes).
        num_rsus = config.num_rsus
        per_rsu = config.contents_per_rsu
        self.content_ids = np.asarray(
            [rsu.covered_regions for rsu in self.topology.rsus], dtype=int
        )
        self.max_ages = self.catalog.max_ages[self.content_ids]
        self.popularity = np.zeros((num_rsus, per_rsu))
        for k, rsu in enumerate(self.topology.rsus):
            population = self.workload.content_population(rsu.rsu_id)
            self.popularity[k] = [
                population[content_id] for content_id in rsu.covered_regions
            ]
        self.utility = UtilityFunction(
            self.max_ages,
            np.zeros_like(self.max_ages),  # costs are supplied per slot
            weight=config.aoi_weight,
        )
        # Static index/parameter arrays used by the vectorised hot loops.
        self.content_sizes = self.catalog.sizes[self.content_ids]
        self.mbs_distances = np.asarray(
            [self.topology.mbs_distance(k) for k in range(num_rsus)], dtype=float
        )[:, np.newaxis]
        self.cache_ceilings = np.asarray(
            [cache.age_ceiling for cache in self.caches], dtype=float
        )[:, np.newaxis]
        # Each content is cached by exactly one RSU; map it to its cache
        # slot within that RSU.
        self.content_slot = np.zeros(self.catalog.num_contents, dtype=int)
        self.content_slot[self.content_ids] = np.arange(per_rsu, dtype=int)
        self._static_update_costs: Optional[np.ndarray] = None

    def ages_matrix(self) -> np.ndarray:
        """Current cache ages as a ``(num_rsus, contents_per_rsu)`` matrix."""
        return np.stack([cache.ages for cache in self.caches])

    def update_costs_matrix(self, time_slot: int) -> np.ndarray:
        """Per-(RSU, content) MBS->RSU transfer costs for *time_slot*."""
        num_rsus = self.config.num_rsus
        per_rsu = self.config.contents_per_rsu
        costs = np.zeros((num_rsus, per_rsu))
        for k in range(num_rsus):
            distance = self.topology.mbs_distance(k)
            for slot, content_id in enumerate(self.topology.rsus[k].covered_regions):
                size = self.catalog[content_id].size
                costs[k, slot] = self.update_cost_model.cost(
                    distance=distance, size=size, time_slot=time_slot
                )
        return costs

    def observation(self, time_slot: int) -> CacheObservation:
        """Build the MDP observation for *time_slot*."""
        mbs_ages = np.zeros_like(self.max_ages)
        for k, rsu in enumerate(self.topology.rsus):
            for slot, content_id in enumerate(rsu.covered_regions):
                mbs_ages[k, slot] = self.mbs_store.age_of(content_id)
        return CacheObservation(
            time_slot=time_slot,
            ages=self.ages_matrix(),
            max_ages=self.max_ages.copy(),
            popularity=self.popularity.copy(),
            update_costs=self.update_costs_matrix(time_slot),
            mbs_ages=mbs_ages,
        )

    def update_costs_vector(self, time_slot: int, *, copy: bool = True) -> np.ndarray:
        """Vectorised twin of :meth:`update_costs_matrix` (identical values).

        Distances and sizes are static, so time-invariant cost models are
        evaluated once and the matrix is reused (copied by default, so
        callers may keep or mutate it; hot loops pass ``copy=False`` and
        treat the result as read-only).
        """
        if self.update_cost_model.time_varying:
            return self.update_cost_model.cost_array(
                distances=self.mbs_distances,
                sizes=self.content_sizes,
                time_slot=time_slot,
            )
        if self._static_update_costs is None:
            self._static_update_costs = self.update_cost_model.cost_array(
                distances=self.mbs_distances,
                sizes=self.content_sizes,
                time_slot=time_slot,
            )
        if copy:
            return self._static_update_costs.copy()
        return self._static_update_costs

    def observation_vector(
        self, time_slot: int, ages: np.ndarray, *, copy: bool = True
    ) -> CacheObservation:
        """Vectorised twin of :meth:`observation` for a given *ages* matrix.

        Builds the identical :class:`CacheObservation` (bit for bit) with
        array gathers instead of per-(RSU, content) Python loops.  With
        ``copy=False`` the observation aliases the static parameter
        matrices instead of defensively copying them each slot, and uses
        *ages* as passed.  The values are identical, and the statics are
        never mutated over a run (so even policies that retain
        observations stay correct); the hot loops use it to skip O(grid)
        copies per slot, passing an *ages* array that is not mutated in
        place afterwards.
        """
        if copy:
            ages = ages.copy()
        return CacheObservation(
            time_slot=time_slot,
            ages=ages,
            max_ages=self.max_ages.copy() if copy else self.max_ages,
            popularity=self.popularity.copy() if copy else self.popularity,
            update_costs=self.update_costs_vector(time_slot, copy=copy),
            mbs_ages=self.mbs_store.ages[self.content_ids],
        )


def _expand_batch_policies(seeds: Sequence[int], policies, base_policy) -> List:
    """Normalise a ``run_batch`` seed/policy pairing.

    ``policies=None`` deep-copies the simulator's own policy per seed — the
    exact semantics of executing the per-run path once per seed, where each
    run starts from a pristine copy of the policy instance.
    """
    if not len(seeds):
        raise ValidationError("seeds must be non-empty")
    for seed in seeds:
        if seed < 0:
            raise ValidationError(f"seeds must be >= 0, got {seed}")
    if policies is None:
        return [copy.deepcopy(base_policy) for _ in seeds]
    policies = list(policies)
    if len(policies) != len(seeds):
        raise ValidationError(
            f"got {len(policies)} policies for {len(seeds)} seeds"
        )
    return policies


def _policy_name(policy: Any) -> str:
    """The name a result records for *policy*."""
    return getattr(policy, "name", type(policy).__name__)


class _Simulator:
    """Options and properties shared by the per-kind simulators."""

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
    ) -> None:
        if service_batch is not None:
            check_positive_int(service_batch, "service_batch")
        self._config = config
        self._service_batch = service_batch
        self._metrics_mode = check_metrics_mode(metrics)

    @property
    def config(self) -> ScenarioConfig:
        """The scenario being simulated."""
        return self._config

    @property
    def metrics_mode(self) -> str:
        """The metric collection mode, ``"full"`` or ``"summary"``."""
        return self._metrics_mode

    def _num_slots(self, num_slots: Optional[int]) -> int:
        return check_positive_int(
            num_slots if num_slots is not None else self._config.num_slots,
            "num_slots",
        )

    def _seed_configs(self, seeds: Sequence[int]) -> List[ScenarioConfig]:
        return [self._config.with_overrides(seed=seed) for seed in seeds]


class _SeedStepper:
    """Setup and slot loop shared by the seed-axis steppers.

    A stepper carries ``S >= 1`` runs — one per scenario config, all of one
    grid shape — through the vectorised per-slot body one slot at a time.
    Steppers are built by the simulators (:class:`_Simulator`), which
    validate the options.
    Subclasses implement ``step(batches=None)``, where *batches* is
    ``None`` (each seed draws its slot's arrivals from its own workload),
    one ``(rsu_id, content_ids)`` batch list per seed, or what the
    *arrivals* replay of :meth:`drive` returns for the slot, returning one
    per-slot metrics dict per seed; and ``results()``, the per-seed results
    of the run so far.
    """

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        *,
        metrics: str,
        expected_slots: Optional[int],
    ) -> None:
        self.configs = list(configs)
        self.metrics_mode = metrics
        self.expected_slots = int(
            expected_slots if expected_slots is not None else self.configs[0].num_slots
        )
        self.states = [SystemState(config) for config in self.configs]
        self.time_slot = 0

    def drive(self, num_slots: int, arrivals: Optional[Callable] = None) -> List:
        """Step a fresh stepper through *num_slots* slots; return its results.

        The one slot loop behind every simulator's ``run()`` (one seed,
        per-slot workload draws) and ``run_batch()`` (replaying per-seed
        precomputed :class:`~repro.net.requests.WorkloadHorizon` tensors:
        ``arrivals(t)`` is slot ``t``'s ``batches`` argument of ``step``).
        """
        for t in range(num_slots):
            self.step(None if arrivals is None else arrivals(t))
        return self.results()
