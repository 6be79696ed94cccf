"""Zero-copy shipment of precomputed arrival tensors to pool workers.

The parallel runner precomputes each task's per-seed
:class:`~repro.net.requests.WorkloadHorizon` arrival tensors once in the
parent (memoised per ``(scenario, seed, horizon)``, so a grid that
evaluates many policies on the same scenario generates each workload
exactly once) and packs them into one
:mod:`multiprocessing.shared_memory` block per task.  Workers attach the
block and rebuild the horizons as zero-copy array views — nothing but a
small name-and-offsets handle is ever pickled.

Everything degrades gracefully: when shared memory is unavailable on the
platform the runner simply lets the workers regenerate the horizons
themselves (bit-identical results either way).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

from repro.net.requests import WorkloadHorizon
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import build_run_parts

__all__ = [
    "HorizonShipment",
    "attach_horizons",
    "precompute_horizon",
    "shared_memory_available",
]

#: Offset alignment (bytes) of each packed array inside a block.
_ALIGN = 64

#: The WorkloadHorizon array fields, in packing order.
_HORIZON_FIELDS = ("batch_rsus", "batch_ptr", "content_ids", "slot_ptr")


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is usable here."""
    return _shared_memory is not None


def precompute_horizon(config: ScenarioConfig, num_slots: int) -> WorkloadHorizon:
    """Generate the arrival tensor of one seeded scenario, parent-side.

    Builds the workload with :func:`~repro.sim.system.build_run_parts`, the
    builder of :class:`~repro.sim.system.SystemState`, so the returned
    horizon is bit-identical to the one a worker would generate inside
    ``run_batch``.
    """
    workload = build_run_parts(config)[3]
    return workload.generate_horizon(num_slots)


def _unregister_tracker(shm) -> None:
    """Detach a worker-side segment from the resource tracker.

    The parent owns the segment's lifetime (it unlinks after the batch).
    Under the ``spawn`` start method every worker runs its own resource
    tracker, which would try to clean the attachment up again at exit, so
    the worker-side registration is dropped; under ``fork``/``forkserver``
    the tracker is shared with the parent and attaching was a no-op
    re-registration — unregistering here would steal the parent's entry.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) == "spawn":
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class HorizonShipment:
    """Parent-side builder of per-task shared-memory horizon blocks.

    ``handle_for`` returns a small picklable handle per task (or ``None``
    when the task does not consume arrival tensors); ``close`` releases
    every created block once the batch is done.
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple[str, int], WorkloadHorizon] = {}
        self._handles: Dict[Tuple, Dict[str, Any]] = {}
        self._blocks: List[Any] = []
        self.blocks_created = 0
        self.bytes_shared = 0
        self.horizons_computed = 0
        self.horizons_reused = 0
        self.setup_seconds = 0.0
        self.precompute_seconds = 0.0

    @property
    def num_blocks(self) -> int:
        """Number of shared-memory blocks created over this shipment's life."""
        return self.blocks_created

    def handle_for(self, spec, seeds: Sequence[int]) -> Optional[Dict[str, Any]]:
        """Build (or reuse) the horizons for one task and pack them.

        Returns ``None`` for tasks that do not replay arrival tensors, or
        when shared memory is unavailable.  Cache runs consume no
        arrivals; multihop runs share the seed-axis stepper but their
        ``run_batch`` takes no ``horizons``, so each seed draws per slot.
        """
        if not shared_memory_available():
            return None
        if spec.kind in ("cache", "multihop"):
            return None
        num_slots = (
            spec.num_slots if spec.num_slots is not None else spec.scenario.num_slots
        )
        horizons = []
        keys = []
        start = time.perf_counter()
        for seed in seeds:
            scenario = spec.scenario.with_overrides(seed=int(seed))
            key = (
                json.dumps(scenario.to_dict(), sort_keys=True),
                int(num_slots),
            )
            if key in self._memo:
                self.horizons_reused += 1
            else:
                self._memo[key] = precompute_horizon(scenario, int(num_slots))
                self.horizons_computed += 1
            keys.append(key)
            horizons.append(self._memo[key])
        self.precompute_seconds += time.perf_counter() - start
        start = time.perf_counter()
        # Tasks with the same seed group on the same scenario (e.g. many
        # policies over one workload) share one packed block: the handle is
        # plain data, so every task can carry it, and workers attach the
        # same read-only views.  Peak shared memory is then O(unique
        # horizon groups), not O(tasks).
        group = tuple(keys)
        handle = self._handles.get(group)
        if handle is None:
            handle = self._pack(horizons)
            self._handles[group] = handle
        self.setup_seconds += time.perf_counter() - start
        return handle

    def _pack(self, horizons: Sequence[WorkloadHorizon]) -> Dict[str, Any]:
        """Copy the horizons into one shared block; return the handle."""
        specs: List[Dict[str, Any]] = []
        sources: List[List[np.ndarray]] = []
        offset = 0
        for horizon in horizons:
            arrays = {}
            fields = []
            for field in _HORIZON_FIELDS:
                array = np.ascontiguousarray(getattr(horizon, field))
                offset = -(-offset // _ALIGN) * _ALIGN
                arrays[field] = {
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                }
                offset += array.nbytes
                fields.append(array)
            sources.append(fields)
            specs.append(
                {
                    "num_slots": int(horizon.num_slots),
                    "num_rsus": int(horizon.num_rsus),
                    "arrays": arrays,
                }
            )
        block = _shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for fields, spec in zip(sources, specs):
            for source, meta in zip(fields, spec["arrays"].values()):
                target = np.ndarray(
                    source.shape,
                    dtype=np.dtype(meta["dtype"]),
                    buffer=block.buf,
                    offset=meta["offset"],
                )
                target[...] = source
        self._blocks.append(block)
        self.blocks_created += 1
        self.bytes_shared += block.size
        return {"name": block.name, "horizons": specs}

    def close(self) -> None:
        """Release every block created by this shipment (parent side)."""
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._blocks = []

    def stats(self) -> Dict[str, Any]:
        """Machine-readable shipment statistics for the dispatch report."""
        return {
            "shm_blocks": self.num_blocks,
            "shm_bytes": int(self.bytes_shared),
            "shm_setup_seconds": float(self.setup_seconds),
            "horizon_precompute_seconds": float(self.precompute_seconds),
            "horizons_computed": int(self.horizons_computed),
            "horizons_reused": int(self.horizons_reused),
        }


class _AttachedHorizons:
    """Worker-side view of one shipped block: horizons + lifetime."""

    def __init__(self, shm, horizons: List[WorkloadHorizon]) -> None:
        self._shm = shm
        self.horizons = horizons

    def close(self) -> None:
        """Drop the attachment (ignores exported-view errors)."""
        self.horizons = []
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass


def attach_horizons(handle: Dict[str, Any]) -> _AttachedHorizons:
    """Rebuild the shipped horizons as zero-copy views (worker side)."""
    shm = _shared_memory.SharedMemory(name=handle["name"])
    _unregister_tracker(shm)
    horizons = []
    for spec in handle["horizons"]:
        arrays = {}
        for field, meta in spec["arrays"].items():
            view = np.ndarray(
                tuple(meta["shape"]),
                dtype=np.dtype(meta["dtype"]),
                buffer=shm.buf,
                offset=meta["offset"],
            )
            view.flags.writeable = False
            arrays[field] = view
        horizons.append(
            WorkloadHorizon(
                num_slots=spec["num_slots"],
                num_rsus=spec["num_rsus"],
                **arrays,
            )
        )
    return _AttachedHorizons(shm, horizons)
