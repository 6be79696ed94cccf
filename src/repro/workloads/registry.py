"""Registry of named workload models and the validated ``WorkloadSpec``.

The registry maps workload names (``"stationary"``, ``"drift"``, ...) to
:class:`~repro.workloads.base.WorkloadModel` subclasses.  A scenario refers
to a workload through a :class:`WorkloadSpec` — a frozen, picklable
``(name, params)`` pair that validates itself on construction, so an
invalid workload knob fails when the :class:`~repro.sim.ScenarioConfig` is
built (including through ``dataclasses.replace`` sweeps), never mid-run.

``WorkloadSpec.parse`` understands the CLI syntax ``name[:k=v,...]``::

    WorkloadSpec.parse("drift:period=25,step=0.4")
    WorkloadSpec.parse("trace:path=runs/fig1b.jsonl")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.exceptions import ConfigurationError
from repro.net.content import ContentCatalog
from repro.net.requests import ArrivalProcess
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource
from repro.utils.specstring import parse_spec_string
from repro.workloads.base import WorkloadModel

__all__ = [
    "WorkloadSpec",
    "available_workloads",
    "create_workload",
    "get_workload_class",
    "register_workload",
    "workload_names",
]

_REGISTRY: Dict[str, Type[WorkloadModel]] = {}


def register_workload(name: str):
    """Class decorator registering a :class:`WorkloadModel` under *name*."""

    def decorator(cls: Type[WorkloadModel]) -> Type[WorkloadModel]:
        if name in _REGISTRY:
            raise ConfigurationError(f"workload {name!r} is already registered")
        cls.workload_name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def workload_names() -> List[str]:
    """All registered workload names, sorted."""
    return sorted(_REGISTRY)


def available_workloads() -> Dict[str, str]:
    """Return ``{name: one-line description}`` for every registered model."""
    return {name: _REGISTRY[name].describe() for name in workload_names()}


def get_workload_class(name: str) -> Type[WorkloadModel]:
    """Resolve *name* to its registered model class."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; registered: {', '.join(workload_names())}"
        ) from None


@dataclass(frozen=True)
class WorkloadSpec:
    """A validated reference to one workload model plus its parameters.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    spec is hashable, picklable, and order-insensitive under equality; use
    :attr:`params_dict` for a plain dictionary view.  Construction validates
    the name against the registry and the parameters against the model's
    :meth:`~repro.workloads.base.WorkloadModel.normalize_params`.
    """

    name: str = "stationary"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        cls = get_workload_class(self.name)
        normalized = cls.normalize_params(dict(self.params))
        object.__setattr__(self, "params", tuple(sorted(normalized.items())))

    @classmethod
    def create(cls, name: str, **params: Any) -> "WorkloadSpec":
        """Build a spec from keyword parameters."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse the CLI syntax ``name[:k=v,...]`` into a validated spec.

        The grammar is shared with every other spec-string flag (see
        :func:`repro.utils.specstring.parse_spec_string`).
        """
        name, params = parse_spec_string(text, what="workload")
        return cls.create(name, **params)

    @classmethod
    def coerce(
        cls, value: Union[None, str, "WorkloadSpec"]
    ) -> "WorkloadSpec":
        """Normalise ``None`` / CLI string / spec into a :class:`WorkloadSpec`."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise ConfigurationError(
            f"workload must be a name, 'name:k=v,...' string, or WorkloadSpec; "
            f"got {type(value).__name__}"
        )

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The parameters as a plain dictionary (defaults included)."""
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {"name": self.name, "params": self.params_dict}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (re-validated)."""
        if not isinstance(data, dict) or "name" not in data:
            raise ConfigurationError(
                f"workload spec dict needs a 'name' key, got {data!r}"
            )
        return cls.create(str(data["name"]), **dict(data.get("params") or {}))

    def label(self) -> str:
        """Compact human-readable label, e.g. ``drift(period=25,step=0.4)``.

        Only parameters that differ from the model's defaults are shown, so
        the default spelling of every workload is just its name.
        """
        defaults = get_workload_class(self.name).PARAM_DEFAULTS
        shown = [
            f"{key}={value}"
            for key, value in self.params
            if defaults.get(key) != value
        ]
        if not shown:
            return self.name
        return f"{self.name}({','.join(shown)})"

    def build(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
    ) -> WorkloadModel:
        """Instantiate the workload model this spec describes."""
        cls = get_workload_class(self.name)
        return cls(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
            **self.params_dict,
        )


def create_workload(
    spec: Union[None, str, WorkloadSpec],
    topology: RoadTopology,
    catalog: ContentCatalog,
    *,
    arrivals: Optional[ArrivalProcess] = None,
    zipf_exponent: Optional[float] = None,
    rng: RandomSource = None,
) -> WorkloadModel:
    """Build the workload model described by *spec* (name, string, or spec)."""
    return WorkloadSpec.coerce(spec).build(
        topology,
        catalog,
        arrivals=arrivals,
        zipf_exponent=zipf_exponent,
        rng=rng,
    )
