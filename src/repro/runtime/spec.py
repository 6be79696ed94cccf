"""Serializable, declarative experiment specifications.

An :class:`ExperimentSpec` is the fully-declarative description of one grid
point: scenario (including its workload), policy spec(s), simulation kind,
seeds, and execution mode.  Unlike :class:`~repro.runtime.runner.RunSpec` —
whose ``policy`` field may hold arbitrary Python objects — every field of
an :class:`ExperimentSpec` is registry-resolved data, so a spec survives a
lossless ``to_dict`` / ``from_dict`` / JSON round-trip and an experiment
grid can live in a plain ``experiments.json`` file::

    {"experiments": [
        {"kind": "cache",
         "scenario": {"num_rsus": 4, "contents_per_rsu": 5, "num_slots": 200},
         "policy": {"name": "mdp"},
         "num_seeds": 3,
         "label": "fig1a"}
    ]}

Specs are accepted directly by :meth:`ExperimentRunner.run_grid
<repro.runtime.runner.ExperimentRunner.run_grid>` (and by
:func:`~repro.runtime.runner.expand_workloads`, which crosses them with
workloads), and are driven from the CLI via ``repro.cli run --spec
experiments.json``.  Executing a spec produces records bit-identical to
the equivalent hand-constructed :class:`RunSpec` grid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.exceptions import ConfigurationError, ValidationError
from repro.policies.registry import PolicySpec
from repro.runtime.runner import RunSpec
from repro.sim.metrics import METRICS_MODES
from repro.sim.scenario import ScenarioConfig
from repro.utils.validation import check_positive_int

__all__ = ["EXPERIMENT_MODES", "ExperimentSpec", "load_specs", "save_specs"]

#: Execution modes understood by the runner.  ``"auto"`` runs each kind's
#: one seed-axis stepper over the whole seed group; ``"reference"`` runs the
#: original scalar loops (bit-identical).  ``"vectorized"`` and ``"batch"``
#: are aliases of ``"auto"``, kept until the next major version.
EXPERIMENT_MODES = ("auto", "reference", "vectorized", "batch")

_KINDS = ("cache", "service", "joint", "multihop")


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative grid point: scenario + policies + kind + seeds + mode.

    Attributes
    ----------
    kind:
        ``"cache"``, ``"service"``, ``"joint"``, or ``"multihop"``.
    scenario:
        The scenario configuration (carries the workload spec).
    policy:
        The main policy: a :class:`~repro.policies.PolicySpec`, a registered
        name, or a ``"name:k=v,..."`` string.  Caching policy for
        ``cache``/``joint`` kinds, service policy for ``service``; any role
        (including on-path strategies) for ``multihop``.
    service_policy:
        Second-stage policy for ``kind="joint"``.
    seed:
        Master seed; replicate seeds derive from it.
    num_seeds:
        Independent replicates of this grid point.
    mode:
        Execution mode (see :data:`EXPERIMENT_MODES`).
    label:
        Aggregation label; defaults to ``"kind:policy"`` so distinct
        policies never merge.  Set explicit labels when the same policy
        appears under several scenarios in one grid.
    num_slots:
        Optional horizon override.
    service_batch:
        Optional per-slot service batch limit.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        ``summary()`` / ``rows()`` output is byte-identical, ``"summary"``
        keeps run memory flat in the grid size on long horizons.
    store:
        Per-spec persistent run-store opt-in: ``None`` (default) follows
        the grid-level/environment setting, ``True`` opts this spec into
        the default store even when the grid sets none, ``False`` always
        recomputes this spec (see :mod:`repro.runtime.store`).
    """

    kind: str
    scenario: ScenarioConfig
    policy: Union[PolicySpec, str]
    service_policy: Union[PolicySpec, str, None] = None
    seed: int = 0
    num_seeds: int = 1
    mode: str = "auto"
    label: str = ""
    num_slots: Optional[int] = None
    service_batch: Optional[int] = None
    metrics: str = "full"
    store: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.mode not in EXPERIMENT_MODES:
            raise ValidationError(
                f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}"
            )
        if not isinstance(self.scenario, ScenarioConfig):
            raise ValidationError(
                "scenario must be a ScenarioConfig "
                f"(use ScenarioConfig.from_dict for dicts), got "
                f"{type(self.scenario).__name__}"
            )
        if self.kind == "multihop":
            # Any role routes through the multihop simulator (on-path
            # strategies, caching policies, and service policies compare on
            # one grid), so no role restriction applies.
            object.__setattr__(self, "policy", PolicySpec.coerce(self.policy))
        else:
            main_role = "service" if self.kind == "service" else "caching"
            object.__setattr__(
                self, "policy", PolicySpec.coerce(self.policy, role=main_role)
            )
        if self.kind == "joint":
            if self.service_policy is None:
                raise ValidationError("joint experiments need a service_policy")
            object.__setattr__(
                self,
                "service_policy",
                PolicySpec.coerce(self.service_policy, role="service"),
            )
        elif self.service_policy is not None:
            raise ValidationError(
                f"service_policy only applies to kind='joint', not {self.kind!r}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_positive_int(self.num_seeds, "num_seeds")
        if self.num_slots is not None:
            check_positive_int(self.num_slots, "num_slots")
        if self.service_batch is not None:
            check_positive_int(self.service_batch, "service_batch")
        if self.metrics not in METRICS_MODES:
            raise ValidationError(
                f"metrics must be one of {METRICS_MODES}, got {self.metrics!r}"
            )
        if self.store is not None and not isinstance(self.store, bool):
            raise ValidationError(
                f"store must be None, True, or False, got {self.store!r}"
            )
        if not self.label:
            object.__setattr__(self, "label", self.auto_label())

    def auto_label(self) -> str:
        """The default label derived from kind and policies.

        ``label == spec.auto_label()`` means the label still tracks the
        policies (it was never set explicitly), so callers that override a
        policy may safely regenerate it.
        """
        label = f"{self.kind}:{self.policy.label()}"
        if self.service_policy is not None:
            label += f"+{self.service_policy.label()}"
        return label

    def with_overrides(self, **overrides) -> "ExperimentSpec":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)

    def to_run_spec(self) -> RunSpec:
        """The equivalent executable :class:`~repro.runtime.runner.RunSpec`.

        The policy specs go in as-is — a :class:`~repro.policies.PolicySpec`
        is a picklable factory, so the runner builds a fresh registry policy
        per run.  ``mode="reference"`` maps to the scalar loops; the other
        modes share the (bit-identical) fast paths.
        """
        return RunSpec(
            kind=self.kind,
            scenario=self.scenario,
            policy=self.policy,
            seed=self.seed,
            label=self.label,
            num_slots=self.num_slots,
            service_policy=self.service_policy,
            service_batch=self.service_batch,
            reference=self.mode == "reference",
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "scenario": self.scenario.to_dict(),
            "policy": self.policy.to_dict(),
            "service_policy": (
                None if self.service_policy is None else self.service_policy.to_dict()
            ),
            "seed": int(self.seed),
            "num_seeds": int(self.num_seeds),
            "mode": self.mode,
            "label": self.label,
            "num_slots": self.num_slots,
            "service_batch": self.service_batch,
            "metrics": self.metrics,
            "store": self.store,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (re-validated).

        Missing optional fields take their defaults; unknown keys are a
        configuration error so spec-file typos fail loudly.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"experiment spec must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown experiment field(s) {', '.join(unknown)}; known: "
                f"{', '.join(sorted(known))}"
            )
        params = dict(data)
        scenario = params.get("scenario")
        if isinstance(scenario, dict):
            params["scenario"] = ScenarioConfig.from_dict(scenario)
        elif scenario is None:
            params["scenario"] = ScenarioConfig()
        policy = params.get("policy")
        if isinstance(policy, dict):
            params["policy"] = PolicySpec.from_dict(policy)
        service_policy = params.get("service_policy")
        if isinstance(service_policy, dict):
            params["service_policy"] = PolicySpec.from_dict(service_policy)
        return cls(**params)

    def to_json(self) -> str:
        """This spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def save_specs(specs: Sequence[ExperimentSpec], path: str) -> None:
    """Write an ``{"experiments": [...]}`` spec file (atomic replace)."""
    document = {"experiments": [spec.to_dict() for spec in specs]}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_specs(path: str) -> List[ExperimentSpec]:
    """Read a spec file written by :func:`save_specs` (or by hand).

    Accepts ``{"experiments": [...]}``, a bare JSON list, or a single spec
    object.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and "experiments" in document:
        entries = document["experiments"]
    elif isinstance(document, list):
        entries = document
    elif isinstance(document, dict):
        entries = [document]
    else:
        raise ConfigurationError(
            f"spec file {path!r} must hold an object or list of experiments"
        )
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError(f"spec file {path!r} lists no experiments")
    return [ExperimentSpec.from_dict(entry) for entry in entries]
