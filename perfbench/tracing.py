"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (it patches class methods and module attributes at run time;
nothing under ``src/`` is edited).  Every wrapped call records one span —
name, start, end, parent span and run id — in memory; :meth:`Tracer.dump`
writes them out when the run ends.  Counts (decide calls, requests,
cache hits, ...) are recorded at the same boundaries, so they repeat
exactly from run to run.

A layer is the module a wrapped function lives in (``core.lyapunov``,
``sim.service_sim``, ...).  Where the seed-batched loops enter a layer
through a module-private helper (the stage-2 slot of the joint loop, the
batched stage-1 step), that helper is the boundary wrapped.  A span's self time is its duration minus the
durations of its direct children; the self times of every span, plus the
root span's own self time (reported as ``trace.other_s``), add up to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layers (module names under ``repro``) that carry wrapped spans, in the
#: order their metrics are reported.
LAYERS = (
    "sim.system",
    "core.solvers",
    "core.solve_cache",
    "net.requests",
    "core.caching_mdp",
    "sim.cache_sim",
    "core.lyapunov",
    "sim.service_sim",
    "sim.joint_sim",
    "policies.onpath",
    "sim.multihop_sim",
    "sim.metrics",
    "runtime.runner",
    "runtime.store",
    "serve.protocol",
    "serve.session",
)

ROOT = "trace.root"


class Tracer:
    """Span recorder for one traced process (single-threaded use)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # One list per span: [name, start, end, parent index].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @property
    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def finish(self) -> None:
        """Close the root span (and any span left open by an exception)."""
        while self._stack:
            self.close()

    def dump(self, path: str) -> None:
        """Write every span and count as JSON (call :meth:`finish` first)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``time`` and ``self`` time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "time": 0.0, "self": 0.0}
    )
    for index, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["count"] += 1
        entry["time"] += end - start
        entry["self"] += end - start - child_time[index]
    return dict(out)


def layer_of(span_name: str) -> str:
    """``core.lyapunov.decide`` -> ``core.lyapunov``."""
    return span_name.rsplit(".", 1)[0]


# ----------------------------------------------------------------------
# Wrapping


def _wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    span: Optional[str],
    after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
) -> None:
    """Replace ``owner.attr`` by a wrapper recording *span* and *after*.

    A call nested directly inside a span of the same name (a subclass
    override calling ``super()``) records neither a second span nor a
    second count.  ``span=None`` records counts only, for hot helpers
    whose time is already inside an enclosing span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if span is None:
            result = original(*args, **kwargs)
        elif tracer.current == span:
            return original(*args, **kwargs)
        else:
            tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, traced)


def _wrap_methods(tracer, base: type, attr: str, span, after=None) -> None:
    """Wrap *attr* on *base* and on every loaded subclass overriding it."""
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if attr in vars(cls):
            _wrap(tracer, cls, attr, span, after)


def _counter(name: str, measure: Callable[[tuple, Any], float] = lambda a, r: 1):
    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(name, measure(args, result))

    return after


def _count_solve(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.solve_cache.misses" if result is None else "core.solve_cache.hits")


def _count_session(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("net.controller.sessions")
    tracer.count("net.controller.hits", 1 if result.hit else 0)
    tracer.count("net.controller.hops", result.hops)


def _count_reply(tracer: Tracer, args: tuple, result: Any) -> None:
    if not args[0].get("ok", True):
        tracer.count("serve.server.error_replies")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of ``repro``, then open the root span.

    Everything traced afterwards happens inside the root span, whose
    duration is ``trace.wall_s``.
    """
    import repro.core.caching_mdp as caching_mdp
    import repro.serve.server as server
    import repro.sim.joint_sim as joint_sim
    import repro.sim.service_sim as service_sim
    from repro.core.lyapunov import LyapunovServiceController
    from repro.core.solve_cache import SolveCache
    from repro.net.controller import NetworkController
    from repro.net.requests import RequestGenerator
    from repro.policies.onpath import OnPathStrategy
    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.store import RunStore
    from repro.serve.session import SimulationSession
    from repro.sim.cache_sim import CacheSimulator, CacheStepper, _BatchedCacheStage
    from repro.sim.metrics import CacheMetrics, MultihopMetrics, ServiceMetrics
    from repro.sim.multihop_sim import MultihopSimulator, MultihopStepper
    from repro.sim.system import SystemState

    # Import every workload model so subclass overrides get wrapped too.
    import repro.workloads  # noqa: F401

    _wrap(tracer, SystemState, "__init__", "sim.system.build")
    _wrap(tracer, caching_mdp, "value_iteration", "core.solvers.value_iteration")
    _wrap(tracer, SolveCache, "get", "core.solve_cache.get", _count_solve)
    _wrap_methods(
        tracer,
        RequestGenerator,
        "generate_horizon",
        "net.requests.sample",
        _counter("net.requests.requests", lambda a, r: r.total_requests),
    )
    _wrap_methods(
        tracer,
        RequestGenerator,
        "generate_slot_contents",
        "net.requests.sample",
        _counter(
            "net.requests.requests", lambda a, r: sum(int(ids.size) for _, ids in r)
        ),
    )
    _wrap(tracer, caching_mdp.MDPCachingPolicy, "decide", "core.caching_mdp.decide")
    _wrap(tracer, caching_mdp.BatchedCacheDecider, "decide", "core.caching_mdp.decide")
    _wrap(tracer, caching_mdp.BatchedCacheDecider, "prepare", "core.caching_mdp.prepare")
    _wrap(tracer, CacheSimulator, "run", "sim.cache_sim.run")
    _wrap(tracer, CacheSimulator, "run_batch", "sim.cache_sim.run")
    _wrap(tracer, CacheStepper, "step", "sim.cache_sim.step")
    _wrap(tracer, _BatchedCacheStage, "step", "sim.cache_sim.step")
    _wrap(tracer, LyapunovServiceController, "decide", "core.lyapunov.decide")
    for module in (service_sim, joint_sim):
        _wrap(tracer, module, "_vector_service_slot", "sim.service_sim.slot")
        _wrap(
            tracer,
            module,
            "_enqueue_batches",
            "sim.service_sim.enqueue",
            _counter("sim.service_sim.enqueued", lambda a, r: r),
        )
    _wrap(tracer, service_sim.ServiceSimulator, "run", "sim.service_sim.run")
    _wrap(tracer, service_sim.ServiceSimulator, "run_batch", "sim.service_sim.run")
    _wrap(tracer, service_sim.ServiceStepper, "step", "sim.service_sim.step")
    _wrap(tracer, joint_sim.JointSimulator, "run", "sim.joint_sim.run")
    _wrap(tracer, joint_sim.JointSimulator, "run_batch", "sim.joint_sim.run")
    _wrap(tracer, joint_sim.JointStepper, "step", "sim.joint_sim.step")
    _wrap(
        tracer,
        OnPathStrategy,
        "process_request",
        "policies.onpath.process_request",
        _counter("policies.onpath.requests"),
    )
    _wrap(tracer, NetworkController, "end_session", None, _count_session)
    _wrap(tracer, MultihopSimulator, "run", "sim.multihop_sim.run")
    _wrap(tracer, MultihopSimulator, "run_batch", "sim.multihop_sim.run")
    _wrap(tracer, MultihopStepper, "step", "sim.multihop_sim.step")
    for cls in (CacheMetrics, ServiceMetrics, MultihopMetrics):
        for attr in ("record_slot", "record_block", "record_block_aggregates"):
            if attr in vars(cls):
                _wrap(tracer, cls, attr, "sim.metrics.flush")
        _wrap(tracer, cls, "summary", "sim.metrics.summary")
    _wrap(tracer, ExperimentRunner, "run_grid", "runtime.runner.run_grid")
    _wrap(tracer, RunStore, "get", "runtime.store.get")
    _wrap(
        tracer,
        RunStore,
        "put_many",
        "runtime.store.put",
        _counter("runtime.store.cells_written", lambda a, r: len(a[1])),
    )
    _wrap(tracer, server, "parse_line", "serve.protocol.parse")
    _wrap(tracer, server, "encode_reply", None, _count_reply)
    _wrap(
        tracer,
        SimulationSession,
        "feed",
        "serve.session.feed",
        _counter("serve.session.records", lambda a, r: len(a[1])),
    )
    _wrap(tracer, SimulationSession, "snapshot", "serve.session.snapshot")
    _wrap(tracer, SimulationSession, "close", "serve.session.close")
    tracer.open(ROOT)


# ----------------------------------------------------------------------
# Per-layer metrics

#: ``metric name -> (span name, field)`` for span-derived metrics.
SPAN_METRICS = {
    "sim.system.build_s": ("sim.system.build", "time"),
    "sim.system.builds": ("sim.system.build", "count"),
    "core.solvers.value_iteration_s": ("core.solvers.value_iteration", "time"),
    "core.solvers.value_iteration_calls": ("core.solvers.value_iteration", "count"),
    "net.requests.sample_s": ("net.requests.sample", "time"),
    "core.caching_mdp.decide_s": ("core.caching_mdp.decide", "time"),
    "core.caching_mdp.decide_calls": ("core.caching_mdp.decide", "count"),
    "core.caching_mdp.prepare_s": ("core.caching_mdp.prepare", "time"),
    "core.lyapunov.decide_s": ("core.lyapunov.decide", "time"),
    "core.lyapunov.decide_calls": ("core.lyapunov.decide", "count"),
    "policies.onpath.process_request_s": ("policies.onpath.process_request", "time"),
    "sim.metrics.flush_s": ("sim.metrics.flush", "time"),
    "sim.metrics.summary_s": ("sim.metrics.summary", "time"),
    "runtime.store.put_s": ("runtime.store.put", "time"),
    "serve.protocol.parse_s": ("serve.protocol.parse", "time"),
    "serve.session.feed_s": ("serve.session.feed", "time"),
    "serve.session.snapshot_s": ("serve.session.snapshot", "time"),
}

#: Counts recorded by ``after`` hooks, reported as they are.
COUNT_METRICS = (
    "core.solve_cache.hits",
    "core.solve_cache.misses",
    "net.requests.requests",
    "sim.service_sim.enqueued",
    "policies.onpath.requests",
    "net.controller.hops",
    "runtime.store.cells_written",
    "serve.session.records",
    "serve.server.error_replies",
)


def layer_metrics(spans: List[list], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced process.

    Every layer gets ``<layer>.self_s``; the named metrics of
    :data:`SPAN_METRICS` and :data:`COUNT_METRICS` follow.  ``trace.wall_s``
    is the root span and ``trace.other_s`` its self time, so the
    ``self_s`` values plus ``trace.other_s`` sum to ``trace.wall_s``.
    """
    by_name = summarize(spans)
    metrics: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        if name != ROOT:
            metrics[f"{layer_of(name)}.self_s"] += entry["self"]
    for metric, (name, field) in SPAN_METRICS.items():
        metrics[metric] = by_name.get(name, {}).get(field, 0)
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    sessions = counts.get("net.controller.sessions", 0)
    metrics["net.controller.hit_ratio"] = (
        counts.get("net.controller.hits", 0) / sessions if sessions else 0.0
    )
    metrics["trace.wall_s"] = by_name[ROOT]["time"]
    metrics["trace.other_s"] = by_name[ROOT]["self"]
    return metrics
