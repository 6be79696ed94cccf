"""Registry of named policies and the validated ``PolicySpec``.

This is the policy-side twin of :mod:`repro.workloads.registry`: every
caching and service policy — the paper's MDP controller and Lyapunov
controller as well as every baseline in :mod:`repro.baselines` — is
registered under a short name, and callers refer to one through a
:class:`PolicySpec`, a frozen picklable ``(name, params)`` pair that
validates itself on construction.

``PolicySpec.parse`` understands the same CLI syntax as ``--workload``::

    PolicySpec.parse("mdp")
    PolicySpec.parse("mdp:mode=factored")
    PolicySpec.parse("lyapunov:tradeoff_v=50")
    PolicySpec.parse("threshold:threshold=0.6")

Parameters are canonicalised against the registered builder's signature
(defaults merged in, numeric types coerced to the default's type), so two
spellings of the same policy — ``"mdp"`` and ``"mdp:mode=auto"``, or
``w=5`` and ``w=5.0`` — produce equal, equal-hashing specs.  Policies whose
construction solves an MDP therefore reach the
:mod:`repro.core.solve_cache` with identical canonical parameters from
every call site, and a sweep never re-solves a model because two call
sites spelled the same policy differently.

A :class:`PolicySpec` is itself a picklable policy *factory*: calling it
with a scenario builds a fresh policy instance, so it can be placed
directly in a :class:`~repro.runtime.RunSpec`'s ``policy`` field.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.utils.specstring import parse_spec_string

__all__ = [
    "PolicyEntry",
    "PolicySpec",
    "available_policies",
    "create_policy",
    "get_policy_entry",
    "list_policies",
    "register_policy",
]

#: Valid policy roles: stage-1 cache management, stage-2 content service,
#: and the multi-hop on-path caching strategies.
ROLES = ("caching", "service", "onpath")

_REGISTRY: Dict[str, "PolicyEntry"] = {}
_BUILTIN_LOADED = False


def _ensure_builtin() -> None:
    """Import the built-in policy catalog exactly once (idempotent)."""
    global _BUILTIN_LOADED
    if not _BUILTIN_LOADED:
        _BUILTIN_LOADED = True
        # Imported lazily so registry <-> baselines imports cannot cycle.
        import repro.policies.builtin  # noqa: F401  (registers on import)


@dataclass(frozen=True)
class PolicyEntry:
    """One registered policy: its role, builder, and declared parameters."""

    name: str
    role: str
    builder: Callable[..., Any]
    defaults: Dict[str, Any]
    description: str

    def build(self, scenario: Any, params: Dict[str, Any]) -> Any:
        """Instantiate the policy for *scenario* with canonical *params*."""
        return self.builder(scenario, **params)


def _signature_defaults(fn: Callable, *, skip_first: bool) -> Dict[str, Any]:
    """Derive the declared parameters and defaults from a builder signature."""
    parameters = list(inspect.signature(fn).parameters.values())
    if skip_first:
        parameters = parameters[1:]
    defaults: Dict[str, Any] = {}
    for parameter in parameters:
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            raise ConfigurationError(
                f"policy builder {fn!r} parameter {parameter.name!r} has no "
                "default; registered builders must be callable with the "
                "scenario alone"
            )
        defaults[parameter.name] = parameter.default
    return defaults


def register_policy(name: str, *, role: str):
    """Decorator registering a policy builder under *name* for *role*.

    The decorated object may be either

    * a **factory function** ``(scenario, *, k=v, ...) -> policy`` — used
      when construction needs scenario context (the MDP config, the
      scenario's ``tradeoff_v`` or ``aoi_weight``), or
    * a **policy class** whose constructor takes only keyword parameters
      with defaults — the scenario is ignored at build time.

    Declared parameters and their canonical defaults are derived from the
    builder's signature; :class:`PolicySpec` construction validates against
    them.
    """
    if role not in ROLES:
        raise ConfigurationError(f"role must be one of {ROLES}, got {role!r}")

    def decorator(target):
        if name in _REGISTRY:
            raise ConfigurationError(f"policy {name!r} is already registered")
        if inspect.isclass(target):
            defaults = _signature_defaults(target.__init__, skip_first=True)

            def builder(scenario, **params):
                return target(**params)

        else:
            defaults = _signature_defaults(target, skip_first=True)
            builder = target
        doc = (target.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = PolicyEntry(
            name=name,
            role=role,
            builder=builder,
            defaults=defaults,
            description=doc[0] if doc else name,
        )
        return target

    return decorator


def get_policy_entry(name: str) -> PolicyEntry:
    """Resolve *name* to its registry entry."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def list_policies(role: Optional[str] = None) -> List[str]:
    """All registered policy names (optionally one role's), sorted."""
    _ensure_builtin()
    if role is not None and role not in ROLES:
        raise ConfigurationError(f"role must be one of {ROLES}, got {role!r}")
    return sorted(
        name
        for name, entry in _REGISTRY.items()
        if role is None or entry.role == role
    )


def available_policies(role: Optional[str] = None) -> Dict[str, str]:
    """Return ``{name: one-line description}`` for the registered policies."""
    return {name: _REGISTRY[name].description for name in list_policies(role)}


def _canonicalize(entry: PolicyEntry, params: Dict[str, Any]) -> Dict[str, Any]:
    """Validate *params* against *entry* and merge them over the defaults.

    Numeric values are coerced to the default's type (``5`` becomes ``5.0``
    for a float-defaulted knob), so every spelling of the same policy
    produces the identical canonical parameter set — the property that
    keys the solve cache consistently across call sites.
    """
    unknown = sorted(set(params) - set(entry.defaults))
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {', '.join(unknown)} for policy "
            f"{entry.name!r}; known: "
            f"{', '.join(sorted(entry.defaults)) or '(none)'}"
        )
    merged = dict(entry.defaults)
    for key, value in params.items():
        default = entry.defaults[key]
        if (
            isinstance(default, float)
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            value = float(value)
        merged[key] = value
    return merged


@dataclass(frozen=True)
class PolicySpec:
    """A validated reference to one registered policy plus its parameters.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs
    (defaults merged in) so the spec is hashable, picklable, and
    order-insensitive under equality.  Calling the spec with a scenario
    builds a fresh policy instance, which makes it a drop-in ``policy``
    value for :class:`~repro.runtime.RunSpec`.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        entry = get_policy_entry(self.name)
        canonical = _canonicalize(entry, dict(self.params))
        object.__setattr__(self, "params", tuple(sorted(canonical.items())))

    @classmethod
    def create(cls, name: str, **params: Any) -> "PolicySpec":
        """Build a spec from keyword parameters."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse the CLI syntax ``name[:k=v,...]`` into a validated spec.

        The grammar is shared with ``--workload`` (see
        :func:`repro.utils.specstring.parse_spec_string`).
        """
        name, params = parse_spec_string(text, what="policy")
        return cls.create(name, **params)

    @classmethod
    def coerce(
        cls, value: Union[str, "PolicySpec"], *, role: Optional[str] = None
    ) -> "PolicySpec":
        """Normalise a name / ``"name:k=v,..."`` string / spec into a spec.

        With *role*, additionally check the resolved policy plays that role
        (a caching spec in a service slot is a configuration error).
        """
        if isinstance(value, cls):
            spec = value
        elif isinstance(value, str):
            spec = cls.parse(value)
        else:
            raise ConfigurationError(
                f"policy must be a name, 'name:k=v,...' string, or PolicySpec; "
                f"got {type(value).__name__}"
            )
        if role is not None and spec.role != role:
            raise ConfigurationError(
                f"policy {spec.name!r} is a {spec.role} policy; "
                f"a {role} policy is required here"
            )
        return spec

    @property
    def role(self) -> str:
        """``"caching"``, ``"service"``, or ``"onpath"``."""
        return get_policy_entry(self.name).role

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The canonical parameters as a plain dictionary."""
        return dict(self.params)

    def label(self) -> str:
        """Compact label, e.g. ``mdp(mode=factored)``; defaults elided."""
        defaults = get_policy_entry(self.name).defaults
        shown = [
            f"{key}={value}"
            for key, value in self.params
            if defaults.get(key) != value
        ]
        if not shown:
            return self.name
        return f"{self.name}({','.join(shown)})"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {"name": self.name, "params": self.params_dict}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicySpec":
        """Rebuild a spec from :meth:`to_dict` output (re-validated)."""
        if not isinstance(data, dict) or "name" not in data:
            raise ConfigurationError(
                f"policy spec dict needs a 'name' key, got {data!r}"
            )
        return cls.create(str(data["name"]), **dict(data.get("params") or {}))

    def build(self, scenario: Any) -> Any:
        """Instantiate a fresh policy for *scenario*."""
        return get_policy_entry(self.name).build(scenario, self.params_dict)

    def __call__(self, scenario: Any) -> Any:
        """Factory protocol: ``spec(scenario)`` builds the policy."""
        return self.build(scenario)


def create_policy(
    spec: Union[str, PolicySpec], scenario: Any, *, role: Optional[str] = None
) -> Any:
    """Build the policy described by *spec* (name, string, or spec)."""
    return PolicySpec.coerce(spec, role=role).build(scenario)
