"""Base class and parameter plumbing for the pluggable workload models.

A *workload model* is a named, seedable request process: it decides, for
every simulation slot, how many requests each RSU receives and for which
contents.  All models share :class:`~repro.net.requests.RequestGenerator`'s
sampling engine — one arrival-count draw per RSU per slot, then one
``choice`` draw per RSU with arrivals — and expose three entry points:

* ``generate_slot(t)`` — :class:`~repro.net.requests.Request` objects, used
  by the scalar reference simulator loops;
* ``generate_slot_contents(t)`` — allocation-free ``(rsu_id, content_ids)``
  pairs, same RNG draws;
* ``generate_horizon(num_slots)`` — the whole horizon precomputed into a
  packed :class:`~repro.net.requests.WorkloadHorizon`, consumed by the
  vectorised and seed-batched simulator hot loops.

The first two always run the per-slot sampling core, ``_slot_batches(t)``.
``generate_horizon`` runs it slot by slot too, except on the block path: a
model whose hooks draw nothing and keep the static popularity
(``stationary``), with Bernoulli arrivals on a ``PCG64`` generator, samples
its horizon from a few large blocks of doubles instead.  The block sampler
reads the very doubles the per-slot core would and leaves the generator in
the same state, so every execution mode of the simulators sees the
identical workload bit for bit — the invariant pinned by
``tests/workloads/test_cross_mode_equivalence.py``.

Non-stationary models override two hooks: ``_advance_to(t)`` evolves the
popularity state (drawing any evolution variates from the workload RNG) and
``_weights(rsu_id, t)`` returns the popularity in effect for one RSU.  Both
run inside the per-slot core, and overriding either (or ``_evolve``) keeps
a model off the block path, so the contract above holds by construction as
long as slots are generated in increasing order — which is how every
simulator loop consumes them.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.net.content import ContentCatalog
from repro.net.requests import (
    ArrivalProcess,
    RequestGenerator,
    WorkloadHorizon,
    _is_base,
)
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource

__all__ = ["WorkloadModel", "WorkloadHorizon"]


class WorkloadModel(RequestGenerator):
    """A named, registrable request-process model.

    Subclasses are registered with
    :func:`repro.workloads.registry.register_workload` and built through
    :func:`repro.workloads.registry.create_workload`; their extra keyword
    parameters must be declared in :attr:`PARAM_DEFAULTS` and validated by
    :meth:`normalize_params`, which runs at
    :class:`~repro.workloads.registry.WorkloadSpec` construction time so a
    bad knob fails fast — before any simulation starts.
    """

    #: Registry name; filled in by the ``register_workload`` decorator.
    workload_name: str = ""

    #: Declared extra parameters and their defaults.  ``normalize_params``
    #: rejects anything not listed here.
    PARAM_DEFAULTS: Dict[str, Any] = {}

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        # Non-stationary subclasses evolve a copy; the base profile stays
        # available as the stationary popularity view the MDP stage uses.
        self._base_popularity: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._local_popularity.items()
        }
        # Slot cursor of the evolution loop shared by all subclasses.
        self._cursor = 0

    # ------------------------------------------------------------------
    # Parameter validation
    # ------------------------------------------------------------------
    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Validate *params* and return them merged over the defaults.

        Raises :class:`~repro.exceptions.ConfigurationError` on unknown
        keys; subclasses extend this with per-knob value checks (wrapped so
        a :class:`~repro.exceptions.ValidationError` from the shared
        checkers surfaces as a configuration error naming the workload).
        """
        unknown = sorted(set(params) - set(cls.PARAM_DEFAULTS))
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {', '.join(unknown)} for workload "
                f"{cls.workload_name!r}; known: "
                f"{', '.join(sorted(cls.PARAM_DEFAULTS)) or '(none)'}"
            )
        merged = dict(cls.PARAM_DEFAULTS)
        merged.update(params)
        return merged

    @classmethod
    def describe(cls) -> str:
        """One-line human description used by the CLI workload listing."""
        doc = (cls.__doc__ or "").strip().splitlines()
        return doc[0] if doc else cls.__name__

    # ------------------------------------------------------------------
    # Evolution scaffolding
    # ------------------------------------------------------------------
    def _advance_to(self, time_slot: int) -> None:
        """Run :meth:`_evolve` once per elapsed slot, in order.

        Keeping the evolution per-slot (rather than lazily jumping to
        *time_slot*) makes the RNG consumption a function of the slot index
        alone, so scalar, vectorised, and seed-batched modes — which all
        sample slots ``0, 1, 2, ...`` — draw identical sequences.
        """
        while self._cursor <= time_slot:
            self._evolve(self._cursor)
            self._cursor += 1

    def _evolve(self, time_slot: int) -> None:
        """Advance the popularity state into *time_slot*.  Default: static."""

    def _static_hooks(self) -> bool:
        return (
            _is_base(self._advance_to, WorkloadModel._advance_to)
            and _is_base(self._evolve, WorkloadModel._evolve)
            and _is_base(self._weights, RequestGenerator._weights)
        )

    def _uniform(self) -> Callable[[], float]:
        """A zero-argument ``self._rng.random()`` for per-RSU draws in :meth:`_evolve`.

        Calls the bit generator's ``next_double`` through numpy's ctypes
        interface to it: the very draw ``Generator.random()`` makes, without
        that method's per-call argument handling (which costs more than the
        draw) and without its lock — a workload model is never shared
        between threads.
        """
        interface = self._rng.bit_generator.ctypes
        return functools.partial(interface.next_double, interface.state)

    @staticmethod
    def _normalized(weights: np.ndarray) -> np.ndarray:
        """Renormalise *weights* into an exact probability vector."""
        # np.maximum is what np.clip(weights, 0.0, None) computes, without
        # clip's dispatch overhead on the per-slot evolution path.
        weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
        total = weights.sum()
        if total <= 0:
            return np.full(weights.size, 1.0 / weights.size)
        return weights / total
