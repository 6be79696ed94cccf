"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still being able to discriminate between configuration problems,
modelling problems, and runtime simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A scenario, model, or solver was configured with invalid parameters.

    Raised eagerly at construction time so that a bad experiment fails before
    any simulation work is performed.
    """


class ValidationError(ReproError):
    """A value passed to a public API failed validation.

    This differs from :class:`ConfigurationError` in that it refers to a
    single argument (for example a negative age or an out-of-range index)
    rather than an inconsistent combination of parameters.
    """


class ModelError(ReproError):
    """An MDP model is malformed (e.g. transition rows do not sum to one)."""


class SolverError(ReproError):
    """A solver failed to converge or was asked to solve an unsupported model."""


class SimulationError(ReproError):
    """The discrete-time simulator reached an inconsistent state."""


class CacheError(ReproError):
    """An RSU cache operation was invalid (unknown content, wrong slot, ...)."""

