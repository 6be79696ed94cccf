"""Statistical helpers for analysing simulation output.

These are intentionally lightweight (mean/CI, trend checks)
— enough to turn a recorded sample path into the numbers the experiment
reports quote, without pulling in a plotting or statistics dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    num_samples: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - formatting cosmetics
        return f"{self.mean:.4g} ± {self.half_width:.4g} ({self.confidence:.0%})"


# Two-sided z-quantiles for the confidence levels the reports use.  Using a
# small lookup instead of scipy keeps the core dependency-free; intermediate
# levels fall back to the closest tabulated value.
_Z_TABLE = {
    0.80: 1.2816,
    0.90: 1.6449,
    0.95: 1.9600,
    0.98: 2.3263,
    0.99: 2.5758,
}


def _z_for(confidence: float) -> float:
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    closest = min(_Z_TABLE, key=lambda level: abs(level - confidence))
    return _Z_TABLE[closest]


def mean_confidence_interval(
    samples: Sequence[float], *, confidence: float = 0.95
) -> ConfidenceInterval:
    """Return the sample mean and a normal-approximation confidence interval."""
    check_in_range(confidence, "confidence", 0.0, 1.0, inclusive=False)
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValidationError("samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(data)):
        raise ValidationError("samples must be finite")
    mean = float(data.mean())
    if data.size == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    stderr = float(data.std(ddof=1)) / np.sqrt(data.size)
    half_width = _z_for(confidence) * stderr
    return ConfidenceInterval(mean, half_width, confidence, int(data.size))


def linear_trend(values: Sequence[float]) -> Tuple[float, float]:
    """Return the least-squares ``(slope, intercept)`` of a sample path.

    Used by the experiment assertions: a cumulative reward that "continues to
    rise" has positive slope; a stable queue backlog has slope close to zero.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size < 2:
        raise ValidationError("values must be 1-D with at least two samples")
    if not np.all(np.isfinite(data)):
        raise ValidationError("values must be finite")
    x = np.arange(data.size, dtype=float)
    slope, intercept = np.polyfit(x, data, deg=1)
    return float(slope), float(intercept)


def is_non_decreasing(values: Sequence[float], *, tolerance: float = 1e-9) -> bool:
    """Whether the sequence never decreases by more than *tolerance*."""
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        return True
    return bool(np.all(np.diff(data) >= -abs(tolerance)))
