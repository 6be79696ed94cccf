"""The batched parallel experiment runner.

A single simulation run is described by a picklable :class:`RunSpec`; the
:class:`ExperimentRunner` executes a grid of them — serially or over a
``ProcessPoolExecutor`` — and returns a :class:`BatchResult` that groups the
per-run records by label and aggregates multi-seed metrics into mean /
confidence-interval rows via :mod:`repro.analysis.stats`.

Determinism is a hard requirement: the same grid must produce the same
:class:`BatchResult` for any worker count.  Three mechanisms guarantee it:

* per-run seeds are derived with :func:`repro.utils.rng.spawn_run_seeds`
  (deterministic, collision-free, independent of the execution schedule);
* results are returned in submission order, not completion order;
* policy *instances* are deep-copied before each run, so a policy object
  shared by several specs starts every run from the same pristine state
  whether the runs share a process (serial) or not (pool workers receive
  pickled copies).
"""

from __future__ import annotations

import copy
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.policies.registry import PolicySpec
from repro.runtime.shm import HorizonShipment, attach_horizons, shared_memory_available
from repro.sim.engine import KINDS, SIMULATION_KINDS, _run_seeds
from repro.sim.metrics import METRICS_MODES
from repro.sim.scenario import ScenarioConfig
from repro.utils.rng import spawn_run_seeds
from repro.utils.validation import check_positive_int
from repro.workloads import WorkloadSpec

#: Environment marker set inside pool workers so nested runner calls (for
#: example a sweep executed inside a parallel experiment task) degrade to the
#: serial path instead of spawning a pool of pools.
_WORKER_ENV_FLAG = "REPRO_RUNNER_IN_WORKER"


@dataclass(frozen=True)
class RunSpec:
    """One simulation run of the grid.

    Attributes
    ----------
    kind:
        ``"cache"``, ``"service"``, ``"joint"``, or ``"multihop"`` — which
        simulator runs.
    scenario:
        The scenario configuration.  Its seed is overridden by :attr:`seed`.
    policy:
        The (caching or service) policy to evaluate: a policy instance, a
        factory ``scenario -> policy``, or a registered name /
        ``"name:k=v,..."`` string (coerced to its
        :class:`~repro.policies.PolicySpec` factory).  Factories must be
        picklable (module-level functions or :func:`functools.partial` of
        them) for the parallel path.
    seed:
        Master scenario seed of this run.
    label:
        Grid-point label; runs sharing a label are aggregated together (they
        are normally the same configuration under different seeds).
    num_slots:
        Optional horizon override.
    service_policy:
        Second-stage policy (instance or factory) for ``kind="joint"``;
        the other kinds take one policy and reject it.
    service_batch:
        Optional per-slot service batch limit of the kinds with a service
        role; the others reject it.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        ``summary()`` / ``rows()`` output is byte-identical, ``"summary"``
        keeps run memory flat in the grid size (see
        :mod:`repro.sim.metrics`).
    """

    kind: str
    scenario: ScenarioConfig
    policy: Any
    seed: int = 0
    label: str = ""
    num_slots: Optional[int] = None
    service_policy: Any = None
    service_batch: Optional[int] = None
    metrics: str = "full"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(
                f"kind must be one of {SIMULATION_KINDS}, got {self.kind!r}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # A registered name / "name:k=v,..." string becomes the PolicySpec
        # factory it names; strings and specs are checked against their
        # role, instances and factories run as given.
        kind = KINDS[self.kind]
        coerced = kind.spec_fields(
            [
                PolicySpec.coerce(policy, role=role)
                if isinstance(policy, (str, PolicySpec))
                else policy
                for policy, role in zip(
                    kind.policies(self.policy, self.service_policy), kind.roles
                )
            ]
        )
        for name, policy in coerced.items():
            object.__setattr__(self, name, policy)
        if self.num_slots is not None:
            check_positive_int(self.num_slots, "num_slots")
        if self.service_batch is not None:
            check_positive_int(self.service_batch, "service_batch")
        kind.check_service_batch(self.service_batch)
        if self.metrics not in METRICS_MODES:
            raise ValidationError(
                f"metrics must be one of {METRICS_MODES}, got {self.metrics!r}"
            )


@dataclass
class RunRecord:
    """Outcome of one executed :class:`RunSpec`."""

    label: str
    seed: int
    kind: str
    summary: Dict[str, Any]
    trace: Optional[np.ndarray] = None

    def matches(self, other: "RunRecord") -> bool:
        """Whether *other* records the bit-identical outcome."""
        return (
            self.label == other.label
            and self.seed == other.seed
            and self.kind == other.kind
            and self.summary == other.summary
            and (
                (self.trace is None and other.trace is None)
                or (
                    self.trace is not None
                    and other.trace is not None
                    and np.array_equal(self.trace, other.trace)
                )
            )
        )


@dataclass
class BatchResult:
    """All records of one grid execution, with multi-seed aggregation."""

    records: List[RunRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def by_label(self) -> Dict[str, List[RunRecord]]:
        """Group records by grid-point label, preserving first-seen order."""
        groups: Dict[str, List[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.label, []).append(record)
        return groups

    def labels(self) -> List[str]:
        """Grid-point labels in first-seen order."""
        return list(self.by_label().keys())

    def seeds(self) -> List[int]:
        """All seeds that appear in the batch, in record order."""
        return [record.seed for record in self.records]

    def aggregate(self, *, confidence: float = 0.95) -> List[Dict[str, Any]]:
        """Collapse each label's records into one mean/CI row.

        Numeric metrics become their across-seed mean; when a label has more
        than one record a ``<metric>_ci`` column carries the half-width of
        the normal-approximation confidence interval.  Non-numeric summary
        entries (policy names) are carried through unchanged.  Every row
        also reports ``num_seeds``.
        """
        # Imported lazily: repro.analysis pulls in the sweeps, which import
        # this module — a top-level import would be circular.
        from repro.analysis.stats import mean_confidence_interval

        rows: List[Dict[str, Any]] = []
        for label, records in self.by_label().items():
            row: Dict[str, Any] = {"label": label, "num_seeds": len(records)}
            for key in records[0].summary:
                values = [record.summary[key] for record in records]
                if all(isinstance(v, (int, float, np.floating)) for v in values):
                    if len(values) == 1:
                        row[key] = float(values[0])
                    else:
                        interval = mean_confidence_interval(
                            values, confidence=confidence
                        )
                        row[key] = interval.mean
                        row[f"{key}_ci"] = interval.half_width
                else:
                    row[key] = values[0]
            rows.append(row)
        return rows

    def matches(self, other: "BatchResult") -> bool:
        """Whether *other* holds bit-identical records in the same order."""
        return len(self.records) == len(other.records) and all(
            mine.matches(theirs)
            for mine, theirs in zip(self.records, other.records)
        )

    def rows(self) -> List[Dict[str, Any]]:
        """Per-record export rows with a stable column schema.

        Every row leads with ``label, seed, kind`` followed by that
        record's summary metrics, so sweep outputs are machine-readable
        without pickling.  Traces are intentionally excluded (use the
        records directly for trajectory data).
        """
        rows: List[Dict[str, Any]] = []
        for record in self.records:
            row: Dict[str, Any] = {
                "label": record.label,
                "seed": int(record.seed),
                "kind": record.kind,
            }
            row.update(record.summary)
            rows.append(row)
        return rows

    def to_json(
        self, path: Optional[str] = None, *, confidence: float = 0.95
    ) -> str:
        """Serialize the batch as JSON; optionally write it to *path*.

        The document holds ``schema`` (version and the leading row
        columns), ``rows`` (:meth:`rows`), and ``aggregate``
        (:meth:`aggregate` mean/CI rows), with numpy scalars converted to
        plain Python so the output is loadable anywhere.
        """
        document = {
            "schema": {"version": 1, "row_columns": ["label", "seed", "kind"]},
            "rows": _jsonify(self.rows()),
            "aggregate": _jsonify(self.aggregate(confidence=confidence)),
        }
        text = json.dumps(document, indent=2)
        if path is not None:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            os.replace(tmp, path)
        return text


def _jsonify(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain JSON-ready Python."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def expand_seeds(specs: Sequence[RunSpec], num_seeds: int) -> List[RunSpec]:
    """Replicate each spec across *num_seeds* derived seeds.

    The seed list of each spec is derived from its own base seed with
    :func:`~repro.utils.rng.spawn_run_seeds`, so ``num_seeds=1`` reproduces
    the original grid exactly and larger counts add independent replicates.
    """
    num_seeds = check_positive_int(num_seeds, "num_seeds")
    expanded: List[RunSpec] = []
    for spec in specs:
        for seed in spawn_run_seeds(spec.seed, num_seeds):
            expanded.append(replace(spec, seed=seed))
    return expanded


def expand_workloads(specs: Sequence[Any], workloads: Sequence) -> List[Any]:
    """Cross each spec with every workload: the scenarios × workloads grid.

    Each entry of *workloads* may be a registered name, a ``"name:k=v,..."``
    string, or a :class:`~repro.workloads.WorkloadSpec`; the returned grid
    holds one spec per (input spec, workload) pair, with the workload set on
    the scenario and appended to the label (``"fig1a|drift"``), so labels —
    the aggregation key — stay unique per grid point.  Works on
    :class:`RunSpec` and declarative
    :class:`~repro.runtime.spec.ExperimentSpec` entries alike (the output
    mirrors the input type, so a serializable grid stays serializable).
    Compose with ``num_seeds`` in :meth:`ExperimentRunner.run_grid` for the
    full scenarios × workloads × seeds grid.
    """
    if not specs:
        raise ValidationError("specs must be non-empty")
    if not workloads:
        raise ValidationError("workloads must be non-empty")
    expanded: List[RunSpec] = []
    for spec in specs:
        for workload in workloads:
            workload = WorkloadSpec.coerce(workload)
            label = (
                f"{spec.label}|{workload.label()}" if spec.label else workload.label()
            )
            expanded.append(
                replace(
                    spec,
                    scenario=spec.scenario.with_overrides(workload=workload),
                    label=label,
                )
            )
    return expanded


def _materialize(policy: Any, scenario: ScenarioConfig) -> Any:
    """Turn a spec's policy field into a fresh policy object for one run."""
    if callable(policy) and not hasattr(policy, "decide"):
        return policy(scenario)
    # Deep-copy instances so repeated serial runs start from the same state
    # as pool workers, which receive independent pickled copies.  Note the
    # flip side: a *stochastic* instance replays the identical internal RNG
    # stream in every replicate — use a factory when the policy itself must
    # draw fresh randomness per seed.
    return copy.deepcopy(policy)


def _run_record(spec: RunSpec, seed: int, result: Any) -> RunRecord:
    """The record of one finished run of *spec* on *seed*.

    Keeps the result attribute its kind names as the trace (see
    :data:`~repro.sim.engine.KINDS`); read by both :func:`execute_batch`
    and the ``simulate()`` store write-through.
    """
    trace = KINDS[spec.kind].trace
    return RunRecord(
        label=spec.label,
        seed=int(seed),
        kind=spec.kind,
        summary=result.summary(),
        trace=None if trace is None else getattr(result, trace),
    )


def execute_batch(task: "tuple") -> List[RunRecord]:
    """Execute one seed-batched task group and record its outcomes.

    A task is ``(RunSpec, seeds)`` or ``(RunSpec, seeds, shm_handle)``; the
    optional third element is a shared-memory handle produced by
    :class:`~repro.runtime.shm.HorizonShipment`, holding the group's
    precomputed arrival tensors — attached here as zero-copy views instead
    of regenerating (or pickling) them per task.

    The simulators' shared ``run_batch`` carries every seed of the group
    through one seed-axis stepper (see
    :meth:`repro.sim.system._Simulator.run_batch`), producing records
    bit-identical to running each seed as a group of one.  Module-level and
    picklable so a process pool can run whole groups.
    """
    spec, seeds = task[0], task[1]
    handle = task[2] if len(task) > 2 else None
    attached = attach_horizons(handle) if handle is not None else None
    try:
        scenarios = [spec.scenario.with_overrides(seed=seed) for seed in seeds]
        results = _run_seeds(
            spec.kind,
            spec.scenario,
            seeds,
            [
                [_materialize(policy, scenario) for scenario in scenarios]
                for policy in KINDS[spec.kind].policies(
                    spec.policy, spec.service_policy
                )
            ],
            num_slots=spec.num_slots,
            horizons=attached.horizons if attached is not None else None,
            service_batch=spec.service_batch,
            metrics=spec.metrics,
        )
    finally:
        if attached is not None:
            attached.close()
    return [
        _run_record(spec, seed, result) for seed, result in zip(seeds, results)
    ]


def _execute_batch_timed(task: "tuple") -> "tuple":
    """Run :func:`execute_batch` and report ``(records, seconds, pid)``.

    The wall time and worker pid feed the runner's dispatch report (shown
    by ``repro.cli run --profile``), making per-worker load and dispatch
    overhead visible.
    """
    start = time.perf_counter()
    records = execute_batch(task)
    return records, time.perf_counter() - start, os.getpid()


def _mark_worker() -> None:
    os.environ[_WORKER_ENV_FLAG] = "1"


class ExperimentRunner:
    """Executes grids of runs, serially or over a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` uses the machine's CPU count;
        ``1`` forces the deterministic serial path.  Inside a pool worker
        the runner always degrades to serial so nested parallel sweeps do
        not spawn pools of pools.  Any worker count yields the identical
        :class:`BatchResult` — the pool only changes wall-clock time.
    shared_memory:
        Ship precomputed arrival-horizon tensors to pool workers through
        :mod:`multiprocessing.shared_memory` instead of letting every task
        regenerate them (``None`` = auto: on whenever the platform supports
        it and a pool is actually used).  Horizons are memoised per
        ``(scenario, seed)`` in the parent, so grids that evaluate many
        policies on the same workload generate it exactly once.  Results
        are bit-identical either way.

    Attributes
    ----------
    last_dispatch_stats:
        Machine-readable report of the most recent :meth:`run_grid` (or
        :meth:`run`) dispatch — task/worker counts, shared-memory setup
        cost, horizon precompute time, per-worker wall seconds, and the
        run-store hit split when a store is in use.  ``repro.cli run
        --profile`` prints it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        shared_memory: Optional[bool] = None,
    ) -> None:
        if workers is not None:
            check_positive_int(workers, "workers")
        self._workers = workers
        self._shared_memory = shared_memory
        self.last_dispatch_stats: Optional[Dict[str, Any]] = None

    @property
    def workers(self) -> Optional[int]:
        """The requested worker count (``None`` = CPU count)."""
        return self._workers

    def effective_workers(self, num_tasks: int) -> int:
        """Worker processes that would actually be used for *num_tasks*."""
        if os.environ.get(_WORKER_ENV_FLAG):
            return 1
        workers = self._workers if self._workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    def map(self, fn: Callable, items: Sequence) -> List:
        """Apply picklable *fn* to *items*, preserving input order."""
        return self.map_stream(fn, items)

    def map_stream(
        self,
        fn: Callable,
        items: Sequence,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List:
        """Like :meth:`map`, invoking *on_result(index, result)* as results land.

        Results stream back in submission order (the pool's ``map``
        contract), so the callback fires incrementally while later tasks
        are still running — this is what lets a store-backed grid persist
        each task group the moment it completes instead of only at the end
        of the sweep (an interrupted sweep keeps its finished cells).
        """
        items = list(items)
        workers = self.effective_workers(len(items))

        def _consume(iterable) -> List:
            results = []
            for index, result in enumerate(iterable):
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

        if workers <= 1 or len(items) <= 1:
            if self._workers == 1:
                # An explicit serial request is a contract, not a hint: set
                # the worker flag for the duration of the serial map so any
                # nested runner (a sweep inside an experiment task) degrades
                # to serial too instead of spawning its own pool.
                previous = os.environ.get(_WORKER_ENV_FLAG)
                os.environ[_WORKER_ENV_FLAG] = "1"
                try:
                    return _consume(fn(item) for item in items)
                finally:
                    if previous is None:
                        os.environ.pop(_WORKER_ENV_FLAG, None)
                    else:
                        os.environ[_WORKER_ENV_FLAG] = previous
            return _consume(fn(item) for item in items)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_mark_worker
        ) as pool:
            return _consume(pool.map(fn, items))

    @staticmethod
    def _seed_pairs(
        specs: Sequence[Any], num_seeds: Optional[int]
    ) -> List["tuple"]:
        """Normalise a mixed grid into ``(RunSpec, num_seeds, store_opt)`` triples.

        :class:`~repro.runtime.spec.ExperimentSpec` entries convert through
        ``to_run_spec()`` and carry their own replicate count (overridden by
        an explicit *num_seeds* argument) plus their per-spec ``store``
        opt-in/out; plain :class:`RunSpec` entries default to one seed and
        inherit the grid-level store setting.
        """
        # Imported lazily: the spec module imports RunSpec from here.
        from repro.runtime.spec import ExperimentSpec

        if num_seeds is not None:
            check_positive_int(num_seeds, "num_seeds")
        pairs = []
        for spec in specs:
            store_opt = None
            if isinstance(spec, ExperimentSpec):
                count = spec.num_seeds if num_seeds is None else num_seeds
                store_opt = spec.store
                spec = spec.to_run_spec()
            else:
                count = 1 if num_seeds is None else num_seeds
            pairs.append((spec, count, store_opt))
        return pairs

    def run(self, specs: Sequence[Any]) -> BatchResult:
        """Execute every spec without the grid-level run store.

        ``run_grid(specs, store=False)``: accepts :class:`RunSpec` and
        :class:`~repro.runtime.spec.ExperimentSpec` entries, the latter
        expanding over their own ``num_seeds`` replicates (and honouring
        their own ``store`` opt-in).
        """
        return self.run_grid(specs, store=False)

    def run_grid(
        self,
        specs: Sequence[Any],
        *,
        num_seeds: Optional[int] = None,
        store: Any = None,
    ) -> BatchResult:
        """Expand each spec over derived seeds, then execute the full grid.

        The grid may mix :class:`RunSpec` and declarative
        :class:`~repro.runtime.spec.ExperimentSpec` entries.  *num_seeds*
        applies one replicate count to every spec; when omitted each
        ``ExperimentSpec`` uses its own ``num_seeds`` and plain ``RunSpec``
        entries run once.

        Each ``(scenario, policy)`` group's seed replicates execute through
        the simulators' seed-batched tensor path — one vectorised hot loop
        per task instead of one run per seed — and groups are split into
        chunks so the configured worker processes stay busy.  Records are
        bit-identical to running every seed on its own (a grid of one-seed
        entries) for every worker count; only wall-clock time changes.

        *store* makes the grid resumable: ``None`` consults the
        ``REPRO_RUN_STORE[_DIR]`` environment knobs, ``True``/a directory/a
        :class:`~repro.runtime.store.RunStore` enable the persistent run
        store, ``False`` disables it.  With a store, cells already present
        are served from disk and only dirty/missing cells dispatch to the
        workers; finished task groups persist incrementally, so an
        interrupted sweep resumes where it stopped.  The merged result is
        bit-identical to a cold run (see :mod:`repro.runtime.store`), and
        ``last_dispatch_stats["run_store"]`` reports the cell hit/dispatch
        split.  Specs whose policies are live instances (no canonical
        serial form) always recompute.
        """
        if not specs:
            raise ValidationError("specs must be non-empty")
        # Reset up front so a reused runner never reports a previous grid's
        # dispatch when this one fails.
        self.last_dispatch_stats = None
        pairs = self._seed_pairs(specs, num_seeds)
        stores, owned = self._grid_stores(store, pairs)
        try:
            return self._dispatch(pairs, stores)
        finally:
            for opened in owned:
                opened.close()

    @staticmethod
    def _grid_stores(store: Any, pairs: Sequence["tuple"]) -> "tuple":
        """Resolve the effective run store of every grid entry.

        Returns ``(stores, owned)``: one :class:`~repro.runtime.store.RunStore`
        (or ``None``) per pair, honouring per-spec opt-ins/outs, plus the
        list of stores this call opened (and must close).  A caller-supplied
        :class:`RunStore` instance stays the caller's to close.
        """
        from repro.runtime.store import RunStore, resolve_store

        grid_store = resolve_store(store)
        owned = [grid_store] if grid_store is not None and not isinstance(
            store, RunStore
        ) else []
        opt_in_store: Optional[RunStore] = None
        stores: List[Optional[RunStore]] = []
        for _, _, store_opt in pairs:
            if store_opt is False:
                stores.append(None)
            elif store_opt and grid_store is None:
                if opt_in_store is None:
                    opt_in_store = resolve_store(True)
                    if opt_in_store is not None:
                        owned.append(opt_in_store)
                stores.append(opt_in_store)
            else:
                stores.append(grid_store)
        return stores, owned

    def _dispatch(
        self, pairs: Sequence["tuple"], stores: Sequence[Any]
    ) -> BatchResult:
        """Serve stored cells, dispatch the rest, merge in (spec, seed) order.

        Every ``(spec, seed)`` cell is first looked up in its effective
        store (a pair without one misses every seed); only the missing
        cells are chunked into tasks and dispatched.  Fresh task groups are
        upserted the moment they complete (streaming, not end-of-sweep), so
        a killed sweep keeps its finished cells and a re-run recomputes
        only what is left.
        """
        started = time.perf_counter()
        cell_records: Dict["tuple", RunRecord] = {}
        seeds_by_pair: List[List[int]] = []
        groups = []  # (pair index, spec, missing seeds)
        for index, ((spec, count, _), cell_store) in enumerate(zip(pairs, stores)):
            seeds = spawn_run_seeds(spec.seed, count)
            seeds_by_pair.append(seeds)
            missing = []
            for seed in seeds:
                record = cell_store.get(spec, seed) if cell_store is not None else None
                if record is None:
                    missing.append(seed)
                else:
                    cell_records[(index, int(seed))] = record
            if missing:
                groups.append((index, spec, missing))
        cells_total = sum(len(seeds) for seeds in seeds_by_pair)
        cells_dispatched = sum(len(missing) for _, _, missing in groups)

        # Fill the pool: one task per group would leave workers idle when
        # the grid has fewer groups than workers, so split each group's
        # seeds into ceil(workers / groups) chunks.
        workers = self.effective_workers(cells_dispatched)
        tasks: List["tuple"] = []
        task_pair: List[int] = []
        for index, spec, missing in groups:
            count = len(missing)
            splits = max(1, min(count, -(-workers // len(groups))))
            chunk = -(-count // splits)
            for start in range(0, count, chunk):
                tasks.append((spec, tuple(missing[start : start + chunk])))
                task_pair.append(index)

        def on_result(task_index: int, outcome: "tuple") -> None:
            records, _, _ = outcome
            index = task_pair[task_index]
            cell_store = stores[index]
            if cell_store is not None:
                spec = pairs[index][0]
                cell_store.put_many(
                    [(spec, record.seed, record) for record in records]
                )
            for record in records:
                cell_records[(index, int(record.seed))] = record

        shipment = None
        use_shm = (
            self._shared_memory
            if self._shared_memory is not None
            else shared_memory_available()
        )
        try:
            # Block creation sits inside the same try/finally as the map:
            # a packing failure mid-grid (e.g. /dev/shm exhausted) must
            # still release every segment already created.
            if use_shm and workers > 1 and shared_memory_available():
                shipment = HorizonShipment()
                tasks = [
                    (spec, seeds, shipment.handle_for(spec, seeds))
                    for spec, seeds in tasks
                ]
            outcomes = self.map_stream(_execute_batch_timed, tasks, on_result)
        finally:
            if shipment is not None:
                shipment.close()
        per_worker: Dict[int, Dict[str, float]] = {}
        for _, seconds, pid in outcomes:
            entry = per_worker.setdefault(pid, {"tasks": 0, "seconds": 0.0})
            entry["tasks"] += 1
            entry["seconds"] += seconds
        stats: Dict[str, Any] = {
            "tasks": len(tasks),
            "workers": workers,
            "shared_memory": shipment is not None,
            "wall_seconds": time.perf_counter() - started,
            "task_seconds_total": sum(seconds for _, seconds, _ in outcomes),
            "per_worker": per_worker,
        }
        stats.update(
            shipment.stats()
            if shipment is not None
            else {
                "shm_blocks": 0,
                "shm_bytes": 0,
                "shm_setup_seconds": 0.0,
                "horizon_precompute_seconds": 0.0,
                "horizons_computed": 0,
                "horizons_reused": 0,
            }
        )
        if any(cell_store is not None for cell_store in stores):
            cells_cached = cells_total - cells_dispatched
            stats["run_store"] = {
                "enabled": True,
                "cells_total": cells_total,
                "cells_cached": cells_cached,
                "cells_dispatched": cells_dispatched,
                "hit_rate": (cells_cached / cells_total) if cells_total else 0.0,
            }
        self.last_dispatch_stats = stats
        return BatchResult(
            records=[
                cell_records[(index, int(seed))]
                for index, seeds in enumerate(seeds_by_pair)
                for seed in seeds
            ]
        )
