"""Shared per-run system construction for all simulation kinds.

:class:`SystemState` builds one scenario as arrays — topology, catalog,
cost models, workload, the initial RSU ages and the static parameter/index
matrices the vectorised hot loops read.  It is internal plumbing shared by
:mod:`repro.sim.cache_sim`, :mod:`repro.sim.service_sim`,
:mod:`repro.sim.joint_sim`, and :mod:`repro.sim.multihop_sim`, together
with the option handling and the one ``run``/``run_batch`` body of their
simulators (:class:`_Simulator`), the setup of the seed-axis steppers
(:class:`_SeedStepper`) and the one slot loop of the cache, service and
joint kinds (:class:`_StagedStepper`).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import CacheObservation
from repro.exceptions import ConfigurationError, ValidationError
from repro.net.cache import MBSContentStore
from repro.sim.metrics import check_metrics_mode
from repro.sim.scenario import ScenarioConfig
from repro.utils.validation import check_positive_int


def build_run_parts(config: ScenarioConfig) -> Tuple[list, Any, Any, Any]:
    """Spawn a run's six RNG streams; build its topology, catalog and workload.

    The one builder behind :class:`SystemState` and the parent-side horizon
    precompute of :mod:`repro.runtime.shm`, so both derive the workload
    from the same streams.  Returns ``(streams, topology, catalog,
    workload)``; the streams are, in order, the catalog, initial-age,
    workload, update-cost, service-cost and policy streams.
    """
    streams = config.spawn_rngs(6)
    topology = config.build_topology()
    catalog = config.build_catalog(streams[0])
    workload = config.build_workload(topology, catalog, rng=streams[2])
    return streams, topology, catalog, workload


class SystemState:
    """One run's scenario as arrays: topology, catalog, workload and matrices.

    Every per-(RSU, content-slot) quantity is a ``(num_rsus,
    contents_per_rsu)`` matrix gathered from the catalog and workload
    arrays — the RSU ages included, drawn by one ``uniform`` call.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        streams, self.topology, self.catalog, self.workload = build_run_parts(config)
        (
            self.catalog_rng,
            self.init_rng,
            self.workload_rng,
            self.update_cost_rng,
            self.service_cost_rng,
            self.policy_rng,
        ) = streams
        self.update_cost_model = config.build_update_cost_model(self.update_cost_rng)
        self.service_cost_model = config.build_service_cost_model(self.service_cost_rng)
        self.mbs_store = MBSContentStore(self.catalog)
        # Row k holds RSU k's covered contents; each content is cached by
        # exactly one RSU, so content_slot maps it to its slot in that row.
        self.content_ids = self.topology.rsu_contents
        self.content_slot = np.zeros(self.catalog.num_contents, dtype=int)
        self.content_slot[self.content_ids] = np.arange(self.content_ids.shape[1])
        self.max_ages = self.catalog.max_ages[self.content_ids]
        self.content_sizes = self.catalog.sizes[self.content_ids]
        self.popularity = self.workload.popularity_matrix()
        self.mbs_distances = self.topology.mbs_distances()[:, np.newaxis]
        # Each RSU's ages saturate at twice its largest A_max (the
        # AoIVector default).  Random initial ages are uniform on
        # [1, A_max) per content: one draw over the whole matrix takes the
        # same variates, in the same order, as one draw per RSU row.
        self.cache_ceilings = 2.0 * self.max_ages.max(axis=1, keepdims=True)
        if config.random_initial_ages:
            self.ages = self.init_rng.uniform(1.0, self.max_ages)
        else:
            self.ages = np.ones_like(self.max_ages)
        self._static_update_costs: Optional[np.ndarray] = None

    def update_costs_vector(self, time_slot: int) -> np.ndarray:
        """Per-(RSU, content) MBS->RSU transfer costs for *time_slot*.

        Distances and sizes are static, so a time-invariant cost model is
        evaluated once and the matrix reused: callers treat it as read-only.
        """
        if self._static_update_costs is not None:
            return self._static_update_costs
        costs = self.update_cost_model.cost_array(
            distances=self.mbs_distances,
            sizes=self.content_sizes,
            time_slot=time_slot,
        )
        if not self.update_cost_model.time_varying:
            self._static_update_costs = costs
        return costs

    def observation_vector(self, time_slot: int, ages: np.ndarray) -> CacheObservation:
        """The MDP observation of *time_slot* for a given *ages* matrix.

        Builds, bit for bit, the :class:`CacheObservation` that the scalar
        test oracle reads item by item, with array gathers instead of
        per-(RSU, content) Python loops.  It
        aliases *ages* and the static parameter matrices rather than
        copying them: the statics are never mutated over a run (so even
        policies that retain observations stay correct), and callers pass
        an *ages* array they do not mutate in place afterwards.
        """
        return CacheObservation(
            time_slot=time_slot,
            ages=ages,
            max_ages=self.max_ages,
            popularity=self.popularity,
            update_costs=self.update_costs_vector(time_slot),
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
    """Options, properties and drivers shared by the per-kind simulators.

    A simulator holds its scenario and one policy per role of its kind;
    its class names the seed-axis stepper it drives (``_stepper_class``),
    built over the simulator's options by :meth:`_stepper`.  :meth:`run`
    drives that stepper with one seed and :meth:`run_batch` with every seed
    at once — one body each for all four kinds.
    """

    _stepper_class: type

    def __init__(
        self,
        config: ScenarioConfig,
        policies: Sequence[Any],
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
    ) -> None:
        if service_batch is not None:
            check_positive_int(service_batch, "service_batch")
        self._config = config
        self._policies = tuple(policies)
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

    def _stepper(
        self,
        num_slots: Optional[int],
        configs: Optional[Sequence[ScenarioConfig]] = None,
        *policies: Sequence[Any],
    ) -> "_SeedStepper":
        """A stepper over *configs* and *policies*, one per-seed sequence per
        role (default: this scenario and its policies)."""
        options = {}
        if self._service_batch is not None:
            options["service_batch"] = self._service_batch
        return self._stepper_class(
            configs or [self._config],
            *(policies or [[policy] for policy in self._policies]),
            metrics=self._metrics_mode,
            expected_slots=num_slots,
            **options,
        )

    def run(self, *, num_slots: Optional[int] = None) -> Any:
        """Run the simulation and return the recorded result."""
        num_slots = self._num_slots(num_slots)
        return self._stepper(num_slots).drive(num_slots)[0]

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        policies: Optional[Sequence[Any]] = None,
        num_slots: Optional[int] = None,
        horizons: Optional[Sequence] = None,
    ) -> List[Any]:
        """Run one simulation per seed through one seed-axis stepper.

        Equivalent — bit for bit — to calling :meth:`run` once per seed on
        ``config.with_overrides(seed=seed)``, but one stepper carries every
        seed, so one slot of the loop advances all of them.

        Parameters
        ----------
        seeds:
            Master scenario seeds, one per run.
        policies:
            Optional per-seed policy instances (e.g. factory-built); omitted,
            each run gets a deep copy of the simulator's policy, exactly as
            the per-run path would.  A simulator of several roles (the joint
            kind) takes one such sequence (or ``None``) per role, in role
            order: :meth:`JointSimulator.run_batch
            <repro.sim.joint_sim.JointSimulator.run_batch>` names them.
        num_slots:
            Optional horizon override shared by every run.
        horizons:
            Optional per-seed precomputed
            :class:`~repro.net.requests.WorkloadHorizon` arrival tensors
            (e.g. attached from shared memory by the parallel runner), for
            the kinds whose stepper replays arrivals (service and joint);
            they must match what ``generate_horizon`` would produce for each
            seed, and are generated here when omitted.  The other kinds
            raise :class:`~repro.exceptions.ConfigurationError` on them.
        """
        num_slots = self._num_slots(num_slots)
        seeds = [int(seed) for seed in seeds]
        per_role = [policies] if len(self._policies) == 1 else policies
        groups = [
            _expand_batch_policies(seeds, given, base)
            for given, base in zip(per_role, self._policies)
        ]
        configs = [self._config.with_overrides(seed=seed) for seed in seeds]
        stepper = self._stepper(num_slots, configs, *groups)
        return stepper.drive(num_slots, stepper.arrival_replay(horizons, num_slots))


class _SeedStepper:
    """Setup and slot loop shared by the seed-axis steppers.

    A stepper carries ``S >= 1`` runs — one per scenario config, all of one
    grid shape — through the vectorised per-slot body one slot at a time.
    Steppers are built by the simulators (:class:`_Simulator`), which
    validate the options.
    Subclasses implement ``step(batches=None)``, where *batches* is
    ``None`` (each seed draws its slot's arrivals from its own workload),
    one ``(rsu_id, content_ids)`` batch list per seed, or what the
    :meth:`arrival_replay` given to :meth:`drive` returns for the slot,
    returning one per-slot metrics dict per seed; and ``results()``, the
    per-seed results of the run so far.
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

    def arrival_replay(
        self, horizons: Optional[Sequence], num_slots: int
    ) -> Optional[Callable]:
        """The arrivals a batch run replays: none, unless a stage 2 runs.

        Steppers that draw each seed's arrivals per slot take no
        precomputed *horizons*.
        """
        if horizons is not None:
            raise ConfigurationError(
                f"{self.kind} runs replay no precomputed arrival horizons"
            )
        return None

    def drive(self, num_slots: int, arrivals: Optional[Callable] = None) -> List:
        """Step a fresh stepper through *num_slots* slots; return its results.

        The one slot loop behind every simulator's ``run()`` (one seed,
        per-slot workload draws) and ``run_batch()`` (for the kinds with a
        stage 2, replaying per-seed precomputed
        :class:`~repro.net.requests.WorkloadHorizon` tensors: ``arrivals(t)``
        is slot ``t``'s ``batches`` argument of ``step``).
        """
        for t in range(num_slots):
            self.step(None if arrivals is None else arrivals(t))
        return self.results()


class _StagedStepper(_SeedStepper):
    """The one slot loop of the cache, service and joint kinds.

    A subclass sets up stage 1 (``_cache_stage``, a
    :class:`~repro.sim.cache_sim._BatchedCacheStage` recording into
    ``cache_metrics``), stage 2 (``_service_stage``, a
    :class:`~repro.sim.service_sim._ServiceStage`) or both.  Per slot, stage 1 decides and refreshes; stage 2 serves,
    its AoI guard reading stage 1's live post-update ages — or, without a
    stage 1, the ``_frozen_ages`` of the service kind; then the cached
    copies age and the MBS regenerates.
    """

    _cache_stage: Any = None
    _service_stage: Any = None
    _frozen_ages: Optional[np.ndarray] = None

    def step(self, batches=None) -> List[dict]:
        """Advance one slot; returns each seed's per-slot aggregates."""
        t = self.time_slot
        cache_stage = self._cache_stage
        rows: List[dict] = []
        if cache_stage is not None:
            aoi, cost, reward = cache_stage.step(t, self.cache_metrics)
            rows = [
                {"aoi_utility": float(a), "update_cost": float(c), "reward": float(r)}
                for a, c, r in zip(aoi, cost, reward)
            ]
        if self._service_stage is not None:
            ages = self._frozen_ages if cache_stage is None else cache_stage.ages
            served = self._service_stage.step(t, batches, ages)
            rows = (
                served
                if cache_stage is None
                else [{**row, **slot} for row, slot in zip(rows, served)]
            )
        if cache_stage is not None:
            cache_stage.advance()
        for state in self.states:
            state.mbs_store.tick(t + 1)
        self.time_slot = t + 1
        return rows

    def arrival_replay(
        self, horizons: Optional[Sequence], num_slots: int
    ) -> Optional[Callable]:
        """Stage 2's replay of the given or generated *horizons*."""
        if self._service_stage is None:
            return super().arrival_replay(horizons, num_slots)
        return self._service_stage.arrival_replay(horizons, num_slots)
