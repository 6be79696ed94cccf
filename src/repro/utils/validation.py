"""Argument-validation helpers.

These helpers centralise the error messages used throughout the library so
that an invalid scenario fails fast with a message naming the offending
parameter, instead of surfacing later as a confusing numpy broadcasting
error deep inside the simulator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError


def check_positive(value: float, name: str) -> float:
    """Return *value* if it is a finite number strictly greater than zero."""
    value = _check_finite_number(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Return *value* if it is a finite number greater than or equal to zero."""
    value = _check_finite_number(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Return *value* if it is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return int(value)


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return *value* if it lies inside ``[low, high]`` (or ``(low, high)``)."""
    value = _check_finite_number(value, name)
    if inclusive:
        if not (low <= value <= high):
            raise ValidationError(
                f"{name} must be in [{low}, {high}], got {value}"
            )
    else:
        if not (low < value < high):
            raise ValidationError(
                f"{name} must be in ({low}, {high}), got {value}"
            )
    return value


def check_probability(value: float, name: str) -> float:
    """Return *value* if it is a valid probability in ``[0, 1]``."""
    return check_in_range(value, name, 0.0, 1.0)


def check_probability_vector(
    values: Sequence[float],
    name: str,
    *,
    atol: float = 1e-8,
) -> np.ndarray:
    """Return *values* as an array if they form a probability distribution.

    The entries must be non-negative and sum to one within *atol*.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    if np.any(array < -atol):
        raise ValidationError(f"{name} must be non-negative, got {array}")
    total = float(array.sum())
    if abs(total - 1.0) > atol:
        raise ValidationError(f"{name} must sum to 1, got sum {total}")
    # Clip tiny negatives introduced by floating point and renormalise so the
    # result is an exact distribution.
    array = np.clip(array, 0.0, None)
    return array / array.sum()


def check_index(value: int, size: int, *, label: str) -> int:
    """Return *value* if it is a valid index into ``[0, size)``.

    *label* names the index in the error message (e.g. ``"region id"`` or
    ``"content id"``), matching the messages shared by the topology,
    environment, and cache layers.
    """
    if not 0 <= value < size:
        raise ValidationError(f"{label} {value} out of range [0, {size})")
    return value


def _check_finite_number(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value
