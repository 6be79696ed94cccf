"""Exact comparison of two runs: every history and counter they recorded."""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.sim.metrics import RewardTrace, _SlotBuffer, _StreamingSum


#: The collector attributes of the per-kind results.
COLLECTORS = ("metrics", "cache_metrics", "service_metrics")


def trajectory(result: Any) -> Dict[str, Any]:
    """Everything *result*'s collectors recorded, by attribute path.

    Per-slot buffers (ages, actions, reward components, backlog, latency,
    cost, decision and served counts, and their per-slot sums) as their
    dtype, shape and bytes; streamed sums and counters as values; plus
    ``summary()``.  Two runs of one metrics mode match exactly when their
    trajectories are equal.
    """
    recorded: Dict[str, Any] = {"summary": result.summary()}
    for name in COLLECTORS:
        collector = getattr(result, name, None)
        if collector is not None:
            _collect(f"{name}.", collector, recorded)
    return recorded


def _collect(prefix: str, collector: Any, recorded: Dict[str, Any]) -> None:
    for attr, value in vars(collector).items():
        if isinstance(value, _SlotBuffer):
            array = value.array
            recorded[prefix + attr] = (array.dtype.str, array.shape, array.tobytes())
        elif isinstance(value, _StreamingSum):
            recorded[prefix + attr] = (value.total, value.count)
        elif isinstance(value, RewardTrace):
            _collect(f"{prefix}{attr}.", value, recorded)
        elif isinstance(value, np.ndarray):
            recorded[prefix + attr] = value.tobytes()
        elif isinstance(value, (int, float, str)):
            recorded[prefix + attr] = value


def assert_same_run(got: Any, want: Any) -> None:
    """Fail unless *got* recorded exactly what *want* did.

    Runs recorded in different metrics modes compare their ``summary()``.
    """
    assert got.summary() == want.summary()
    modes = {
        getattr(result, name).mode
        for result in (got, want)
        for name in COLLECTORS
        if getattr(result, name, None) is not None
    }
    if len(modes) == 1:
        ours, theirs = trajectory(got), trajectory(want)
        keys = ours.keys() | theirs.keys()
        differ = sorted(key for key in keys if ours.get(key) != theirs.get(key))
        assert not differ, f"runs differ in {differ}"
