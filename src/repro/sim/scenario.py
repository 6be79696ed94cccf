"""Scenario configuration for the vehicular caching simulations.

A :class:`ScenarioConfig` bundles every knob of the paper's evaluation
(Section III) — topology size, content age limits, reward weight, cost model,
workload, horizon — into one validated object that the simulators and the
benchmark harness consume.  Factory methods reproduce the paper's two setups:

* :meth:`ScenarioConfig.fig1a` — 4 RSUs with 5 cached contents each
  (20 contents total), 1000 iterations, used for the AoI/cumulative-reward
  experiment.
* :meth:`ScenarioConfig.fig1b` — 5 RSUs covering all regions, random UV
  requests, 1000 iterations, used for the latency/queue experiment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.caching_mdp import CachingMDPConfig
from repro.exceptions import ConfigurationError
from repro.net.channel import ConstantCostModel, CostModel, DistanceCostModel, FadingCostModel
from repro.net.content import ContentCatalog
from repro.net.requests import ArrivalProcess, BernoulliArrivals, PoissonArrivals
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource, spawn_streams
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from repro.workloads import WorkloadModel, WorkloadSpec


@dataclass
class ScenarioConfig:
    """Full description of one simulation scenario.

    Attributes
    ----------
    num_rsus:
        Number of road-side units ``N_R``.
    contents_per_rsu:
        Number of contents each RSU caches (``L'``, one per covered region).
        The total number of regions/contents is ``num_rsus * contents_per_rsu``.
    num_slots:
        Simulation horizon (the paper uses 1000 iterations).
    min_max_age, max_max_age:
        Range from which each content's ``A_max`` is drawn uniformly at
        random (integer slots), per the paper's random region states.
    aoi_weight:
        The reward weight ``w`` of Eq. (1).
    discount:
        Discount factor of the cache-management MDP.
    update_cost:
        Base MBS->RSU transfer cost; interpreted by *cost_model_kind*.
    cost_model_kind:
        ``"constant"``, ``"distance"``, or ``"fading"`` (see
        :mod:`repro.net.channel`).
    cost_sigma:
        Log-normal sigma of the fading cost model (ignored otherwise).
    service_cost:
        Base RSU->UV service cost used by the Lyapunov stage.
    tradeoff_v:
        The Lyapunov trade-off coefficient ``V``.
    arrival_rate:
        Mean requests per RSU per slot.
    arrival_kind:
        ``"bernoulli"`` (the paper's at-most-one-request workload) or
        ``"poisson"``.
    zipf_exponent:
        Skew of the request popularity over each RSU's local contents
        (0 = uniform, the paper's setting).
    workload:
        Request-process model: a registered workload name, a
        ``"name:k=v,..."`` string, a :class:`~repro.workloads.WorkloadSpec`,
        or ``None`` for the default ``stationary`` model (the paper's
        workload, byte-identical to the pre-workload-subsystem behaviour).
        Normalised to a validated :class:`~repro.workloads.WorkloadSpec` on
        construction, so invalid workload knobs fail fast — including in
        sweeps built through ``dataclasses.replace`` / ``with_overrides``.
    region_length:
        Physical length of each road region in metres.
    random_initial_ages:
        Whether to randomise the initial cache ages (the paper does).
    deadline_slots:
        Optional request deadline (slots after issue) used by deadline-aware
        service baselines; ``None`` disables deadlines.
    age_ceiling:
        Optional override of the MDP age-discretisation ceiling.
    topology_kind:
        Graph shape for the multihop network core: ``"star"`` (every RSU
        wired straight to the MBS — the paper's implicit backhaul),
        ``"line"`` (neighbouring RSUs chained, nearest RSU is the MBS
        gateway), or ``"ring"``.  Only the ``multihop`` simulation kind
        consumes this; the legacy kinds ignore it.
    cache_capacity:
        Copies each RSU node may hold in multihop mode; ``None`` keeps the
        legacy fixed size (``contents_per_rsu``).
    hop_delay:
        Scale factor on every multihop link delay.
    seed:
        Master seed from which all component streams are derived.
    """

    num_rsus: int = 4
    contents_per_rsu: int = 5
    num_slots: int = 1000
    min_max_age: float = 5.0
    max_max_age: float = 10.0
    aoi_weight: float = 1.0
    discount: float = 0.9
    update_cost: float = 2.0
    cost_model_kind: str = "constant"
    cost_sigma: float = 0.25
    service_cost: float = 1.0
    tradeoff_v: float = 10.0
    arrival_rate: float = 0.5
    arrival_kind: str = "bernoulli"
    zipf_exponent: float = 0.0
    workload: Union[None, str, WorkloadSpec] = None
    region_length: float = 100.0
    random_initial_ages: bool = True
    deadline_slots: Optional[int] = None
    age_ceiling: Optional[int] = None
    topology_kind: str = "star"
    cache_capacity: Optional[int] = None
    hop_delay: float = 1.0
    seed: Optional[int] = 0

    # ------------------------------------------------------------------
    # Validation and derived quantities
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        check_positive_int(self.num_rsus, "num_rsus")
        check_positive_int(self.contents_per_rsu, "contents_per_rsu")
        check_positive_int(self.num_slots, "num_slots")
        check_positive(self.min_max_age, "min_max_age")
        check_positive(self.max_max_age, "max_max_age")
        if self.max_max_age < self.min_max_age:
            raise ConfigurationError(
                f"max_max_age ({self.max_max_age}) must be >= min_max_age "
                f"({self.min_max_age})"
            )
        check_non_negative(self.aoi_weight, "aoi_weight")
        check_in_range(self.discount, "discount", 0.0, 1.0, inclusive=False)
        check_non_negative(self.update_cost, "update_cost")
        check_non_negative(self.service_cost, "service_cost")
        check_non_negative(self.tradeoff_v, "tradeoff_v")
        check_non_negative(self.arrival_rate, "arrival_rate")
        check_non_negative(self.zipf_exponent, "zipf_exponent")
        check_non_negative(self.cost_sigma, "cost_sigma")
        check_positive(self.region_length, "region_length")
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(
                self.seed, (int, np.integer)
            ):
                raise ConfigurationError(
                    f"seed must be a non-negative integer or None, got {self.seed!r}"
                )
            if self.seed < 0:
                raise ConfigurationError(
                    f"seed must be a non-negative integer or None, got {self.seed}"
                )
        # Normalising through WorkloadSpec.coerce validates the workload name
        # and every parameter at construction time (dataclasses.replace and
        # with_overrides re-run this hook, so sweeps cannot dodge it).
        self.workload = WorkloadSpec.coerce(self.workload)
        if self.cost_model_kind not in ("constant", "distance", "fading"):
            raise ConfigurationError(
                "cost_model_kind must be 'constant', 'distance', or 'fading', "
                f"got {self.cost_model_kind!r}"
            )
        if self.arrival_kind not in ("bernoulli", "poisson"):
            raise ConfigurationError(
                f"arrival_kind must be 'bernoulli' or 'poisson', got {self.arrival_kind!r}"
            )
        if self.arrival_kind == "bernoulli" and self.arrival_rate > 1.0:
            raise ConfigurationError(
                "bernoulli arrival_rate must be <= 1; use arrival_kind='poisson' "
                "for heavier load"
            )
        if self.arrival_kind == "poisson" and self.arrival_rate == 0.0:
            raise ConfigurationError(
                "poisson arrivals need arrival_rate > 0; an empty workload is "
                "almost always a sweep mistake — use arrival_kind='bernoulli' "
                "with arrival_rate=0 if it is intentional"
            )
        if self.deadline_slots is not None:
            check_positive_int(self.deadline_slots, "deadline_slots")
        if self.age_ceiling is not None:
            check_positive_int(self.age_ceiling, "age_ceiling")
        if self.topology_kind not in ("star", "line", "ring"):
            raise ConfigurationError(
                "topology_kind must be 'star', 'line', or 'ring', "
                f"got {self.topology_kind!r}"
            )
        if self.cache_capacity is not None:
            check_positive_int(self.cache_capacity, "cache_capacity")
        check_positive(self.hop_delay, "hop_delay")

    @property
    def num_regions(self) -> int:
        """Total number of road regions (== total number of contents)."""
        return self.num_rsus * self.contents_per_rsu

    @property
    def num_contents(self) -> int:
        """Total number of contents managed by the MBS."""
        return self.num_regions

    # ------------------------------------------------------------------
    # Factories for the paper's setups
    # ------------------------------------------------------------------
    @classmethod
    def fig1a(cls, *, seed: Optional[int] = 0, **overrides) -> "ScenarioConfig":
        """The Fig. 1a setup: 4 RSUs x 5 contents, 1000 iterations."""
        params = dict(
            num_rsus=4,
            contents_per_rsu=5,
            num_slots=1000,
            min_max_age=6.0,
            max_max_age=12.0,
            aoi_weight=5.0,
            update_cost=1.0,
            seed=seed,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def fig1b(cls, *, seed: Optional[int] = 0, **overrides) -> "ScenarioConfig":
        """The Fig. 1b setup: 5 RSUs covering all regions, random requests."""
        params = dict(
            num_rsus=5,
            contents_per_rsu=4,
            num_slots=1000,
            arrival_rate=0.6,
            service_cost=1.0,
            tradeoff_v=10.0,
            cost_model_kind="fading",
            cost_sigma=0.5,
            seed=seed,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def small(cls, *, seed: Optional[int] = 0, **overrides) -> "ScenarioConfig":
        """A tiny scenario used by fast unit and integration tests."""
        params = dict(
            num_rsus=2,
            contents_per_rsu=2,
            num_slots=50,
            min_max_age=3.0,
            max_max_age=6.0,
            seed=seed,
        )
        params.update(overrides)
        return cls(**params)

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (lossless JSON round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of every field; inverse of :meth:`from_dict`.

        The workload spec is embedded as its own ``{"name", "params"}``
        dict; everything else is a plain scalar, so
        ``ScenarioConfig.from_dict(json.loads(json.dumps(c.to_dict())))``
        reproduces an equal config.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["workload"] = self.workload.to_dict()
        if data["seed"] is not None:
            data["seed"] = int(data["seed"])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output (re-validated).

        Missing fields take their defaults (so hand-written spec files may
        stay concise); unknown keys are a configuration error.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario must be a dict of fields, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {', '.join(unknown)}; known: "
                f"{', '.join(sorted(known))}"
            )
        params = dict(data)
        workload = params.get("workload")
        if isinstance(workload, dict):
            params["workload"] = WorkloadSpec.from_dict(workload)
        return cls(**params)

    # ------------------------------------------------------------------
    # Component builders
    # ------------------------------------------------------------------
    def build_topology(self) -> RoadTopology:
        """The road topology of this config, shared by runs of one shape (immutable)."""
        return _road_topology(self.num_regions, self.num_rsus, self.region_length)

    def build_catalog(self, rng: RandomSource = None) -> ContentCatalog:
        """Instantiate the content catalog (random per-content ``A_max``)."""
        return ContentCatalog.random(
            self.num_contents,
            min_max_age=self.min_max_age,
            max_max_age=self.max_max_age,
            zipf_exponent=self.zipf_exponent,
            rng=rng if rng is not None else self.seed,
        )

    def build_update_cost_model(self, rng: RandomSource = None) -> CostModel:
        """Instantiate the MBS->RSU cost model."""
        return self._build_cost_model(self.update_cost, rng)

    def build_service_cost_model(self, rng: RandomSource = None) -> CostModel:
        """Instantiate the RSU->UV cost model."""
        return self._build_cost_model(self.service_cost, rng)

    def _build_cost_model(self, base: float, rng: RandomSource) -> CostModel:
        if self.cost_model_kind == "constant":
            return ConstantCostModel(base)
        if self.cost_model_kind == "distance":
            return DistanceCostModel(base=base, slope=base / max(self.road_length(), 1.0))
        return FadingCostModel(
            base=base,
            slope=0.0,
            sigma=self.cost_sigma,
            rng=rng if rng is not None else self.seed,
        )

    def build_arrivals(self) -> ArrivalProcess:
        """Instantiate the request arrival process."""
        if self.arrival_kind == "bernoulli":
            return BernoulliArrivals(self.arrival_rate)
        return PoissonArrivals(self.arrival_rate)

    def build_workload(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        rng: RandomSource = None,
    ) -> WorkloadModel:
        """Instantiate the request-process model of this scenario.

        The default ``stationary`` spec builds a model whose RNG draw
        sequence is byte-identical to the historical
        :class:`~repro.net.requests.RequestGenerator`.
        """
        spec = WorkloadSpec.coerce(self.workload)
        return spec.build(
            topology,
            catalog,
            arrivals=self.build_arrivals(),
            zipf_exponent=None if self.zipf_exponent == 0 else self.zipf_exponent,
            rng=rng if rng is not None else self.seed,
        )

    def build_mdp_config(self) -> CachingMDPConfig:
        """Instantiate the cache-management MDP configuration."""
        return CachingMDPConfig(
            weight=self.aoi_weight,
            discount=self.discount,
            age_ceiling=self.age_ceiling,
        )

    def road_length(self) -> float:
        """Total road length in metres."""
        return self.num_regions * self.region_length

    def spawn_rngs(self, count: int) -> list:
        """Derive *count* independent random streams from the master seed."""
        return spawn_streams(self.seed, count)


@functools.lru_cache(maxsize=16)
def _road_topology(
    num_regions: int, num_rsus: int, region_length: float
) -> RoadTopology:
    return RoadTopology(num_regions, num_rsus, region_length=region_length)
