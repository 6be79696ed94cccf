#!/usr/bin/env python3
"""Benchmark of the AoI-aware caching reproduction (``repro``).

    python3 perfbench/run.py --workload joint-sweep --seed 3 --seconds 16 --trace 0

Run from the root of a checkout.  Every figure comes from child processes
(``child.py``) that import ``repro`` from ``src/``, each with a fresh,
empty MDP solve cache, the run store off (``joint-sweep`` passes its own
fresh store directory) and a working directory of its own under
``.perfbench_work/``, so no earlier run's caches are reused.
``serve-replay``'s request trace is generated once per run, before any
child starts, and shared by its children (see
``workloads.prepare_serve``), so no child times its generation.

``--trace 0`` prints the end-to-end metrics:

* ``slots_per_s`` — the median over the window's timed operations of
  seeds x slots simulated per second, at a reference CPU speed.  An
  operation is one public call (``simulate()`` or ``run_grid``, 0.5-1 s)
  for the batch workloads, and 200 slots of closed-loop round trips of
  the flood phase (about 0.15 s) for ``serve-replay``.  A fixed
  pure-Python calibration loop (``workloads.calibrate``) runs right
  before and after every operation, in the process that drives it, and
  each operation's rate is scaled by the loop's time over its reference
  time (``workloads.CALIBRATION_REF_S``).  On a shared host the CPU's
  speed drifts by up to 1.8x between one minute and the next, and the
  program and the loop slow together; the scaled rate follows the
  program, the raw rate the host;
* ``setup_s`` — process start to the end of the warm-up (imports, state
  and catalog build, lazy MDP solves, pool or server spawn, the serve
  session's trace load), in host seconds, the median of
  :data:`SETUP_REPEATS` processes.  Set-up is not scaled: its host time
  and the calibration loop's time do not move together;
* ``peak_rss_mb`` — peak RSS of the workload process plus its largest
  child (pool worker or server).

Failed operations — a call that raises or fails its output check, an
error or missing serve reply, a dropped or late record, a served summary
that differs from the offline one, a paced generator that fell behind —
are counted in ``failed`` out of ``attempted``; any failure makes
``correct`` false and the exit code 1.

``slots_per_s_host``, the median of the unscaled operation rates, is
printed for reading.  ``serve-replay`` also prints the paced phase's
snapshot reply times (``reply_p50_ms`` / ``reply_p99_ms``, timed from when
each snapshot was due, 1000 snapshots) for reading.  They move with
every stall of a shared two-CPU host by more than any bound worth gating
on, so they are not among the bounded end-to-end metrics.

``--trace 1`` prints the per-layer metrics of one traced process (see
``tracing.py``), plus ``trace.overhead_frac`` = 1 - traced / untraced
``slots_per_s`` of the same fixed work, and, for ``serve-replay``, the
reply times of the untraced run (0 for the batch workloads, which have
no snapshots).
``joint-sweep`` traces with ``workers=1`` so its spans stay in one
process; its ``runtime.*`` figures come from the pool's dispatch
statistics of an untraced ``workers=2`` call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import COUNT_METRICS, LAYERS, SPAN_METRICS  # noqa: E402
from workloads import CALIBRATION_REF_S, WORKLOADS, prepare_serve  # noqa: E402

#: Processes whose set-up is timed per run; the median is reported.
#: serve-replay's set-up starts a server and loads the trace twice (about
#: 5 s), so it gets fewer.
SETUP_REPEATS = {"joint-sweep": 5, "multihop-ring": 5, "serve-replay": 3}
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "slots_per_s": "run-slots/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in SPAN_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    for name in COUNT_METRICS:
        units[name] = "count"
    units.update(
        {
            "net.controller.hit_ratio": "fraction",
            "runtime.runner.wall_s": "s",
            "runtime.runner.task_s": "s",
            "runtime.runner.worker_busy_frac": "fraction",
            "runtime.shm.setup_s": "s",
            "runtime.shm.precompute_s": "s",
            "serve.session.dropped": "count",
            "serve.session.late": "count",
            "gen.lateness_max_ms": "ms",
            "gen.late_sends": "count",
            "reply_p50_ms": "ms",
            "reply_p99_ms": "ms",
            "trace.wall_s": "s",
            "trace.other_s": "s",
            "trace.overhead_frac": "fraction",
        }
    )
    return units


class ChildFailed(RuntimeError):
    pass


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_child(
    workdir: str, shared: str, args, mode: str, workers: Optional[int] = None
) -> Tuple[float, Dict[str, Any]]:
    """Run one ``child.py`` process; return ``(setup_s, figures)``."""
    scratch = tempfile.mkdtemp(prefix=f"{mode}-", dir=workdir)
    cwd = os.path.join(scratch, "cwd")
    os.makedirs(cwd)
    out = os.path.join(scratch, "result.json")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SOLVE_CACHE_DIR"] = os.path.join(scratch, "solve-cache")
    env["REPRO_RUN_STORE"] = "0"
    env.pop("REPRO_SOLVE_CACHE", None)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--profile", args.profile,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", scratch,
        "--shared", shared,
        "--out", out,
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        setup_s = time.perf_counter() - started
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise ChildFailed(f"{mode} process for {args.workload} exited with {code}")
    if mode == "setup":
        return setup_s, {}
    with open(out, encoding="utf-8") as handle:
        return setup_s, json.load(handle)


def slots_per_s(figures: Dict[str, Any]) -> float:
    """Median over the operations of slots per second at the reference speed.

    Each operation's rate is scaled by its calibration time over
    :data:`CALIBRATION_REF_S`.
    """
    return statistics.median(
        slots / seconds * (calibration / CALIBRATION_REF_S)
        for slots, seconds, calibration in zip(
            figures["op_slots"], figures["op_seconds"], figures["op_calibration_s"]
        )
    )


def reply_percentiles(figures: Dict[str, Any]) -> Dict[str, float]:
    """p50 and p99 of serve-replay's paced snapshot reply times, in ms."""
    return {
        "reply_p50_ms": statistics.median(figures["reply_ms"]),
        "reply_p99_ms": percentile(figures["reply_ms"], 99),
    }


def end_to_end(
    workdir: str, shared: str, args
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    setups = [
        run_child(workdir, shared, args, "setup")[0]
        for _ in range(SETUP_REPEATS[args.workload] - 1)
    ]
    setup_s, figures = run_child(workdir, shared, args, "window")
    setups.append(setup_s)
    metrics = {
        "slots_per_s": slots_per_s(figures),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": figures["rss_mb"],
    }
    # Printed for reading, not part of the bounded result.
    info = {
        "slots_per_s_host": (
            statistics.median(
                slots / seconds
                for slots, seconds in zip(figures["op_slots"], figures["op_seconds"])
            ),
            "run-slots/s",
        ),
    }
    if "reply_ms" in figures:
        info.update((k, (v, "ms")) for k, v in reply_percentiles(figures).items())
    figures["info"] = info
    return figures, metrics


def traced(
    workdir: str, shared: str, args
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    joint = args.workload == "joint-sweep"
    _, baseline = run_child(workdir, shared, args, "fixed", 1 if joint else None)
    _, figures = run_child(workdir, shared, args, "traced", 1 if joint else None)
    metrics = {name: 0 for name in per_layer_units()}
    metrics.update(figures["layers"])
    metrics.update(figures.get("gen", {}))
    if joint:
        _, pooled = run_child(workdir, shared, args, "fixed")
        stats = pooled["dispatch"]
        busy = stats["wall_seconds"] * stats["workers"]
        metrics.update(
            {
                "runtime.runner.wall_s": stats["wall_seconds"],
                "runtime.runner.task_s": stats["task_seconds_total"],
                "runtime.runner.worker_busy_frac": (
                    stats["task_seconds_total"] / busy if busy else 0.0
                ),
                "runtime.shm.setup_s": stats["shm_setup_seconds"],
                "runtime.shm.precompute_s": stats["horizon_precompute_seconds"],
            }
        )
        figures["attempted"] += pooled["attempted"]
        figures["failed"] += pooled["failed"]
    metrics["trace.overhead_frac"] = 1.0 - slots_per_s(figures) / slots_per_s(baseline)
    if "reply_ms" in baseline:
        metrics.update(reply_percentiles(baseline))
    figures["attempted"] += baseline["attempted"]
    figures["failed"] += baseline["failed"]
    return figures, metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile",
        default="full",
        choices=("full", "tiny"),
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2

    scratch_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        shared = os.path.join(workdir, "shared")
        os.makedirs(shared)
        if args.workload == "serve-replay":
            sys.path.insert(0, os.path.join(ROOT, "src"))
            os.environ["REPRO_RUN_STORE"] = "0"
            os.environ["REPRO_SOLVE_CACHE_DIR"] = os.path.join(workdir, "solve-cache")
            prepare_serve(args.profile, args.seed, args.seconds, shared)
        measure = traced if args.trace else end_to_end
        try:
            figures, metrics = measure(workdir, shared, args)
        except ChildFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:  # another run still uses it
            pass

    units = per_layer_units() if args.trace else END_TO_END
    attempted = int(figures["attempted"])
    failed = int(figures["failed"])
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:36s} {metrics[name]:>14.6g} {unit}")
    for name, (value, unit) in figures.get("info", {}).items():
        print(f"{args.workload:14s} {name:36s} {value:>14.6g} {unit} (unbounded)")
    print(f"{args.workload:14s} {'failed_frac':36s} {failed / attempted:>14.6g} fraction")
    for check, passed in figures.get("checks", {}).items():
        print(f"{args.workload:14s} check {check}: {'ok' if passed else 'FAILED'}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
