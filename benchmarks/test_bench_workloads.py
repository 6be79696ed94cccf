"""Workload-overhead benchmark: non-stationary models vs ``stationary``.

The workload subsystem promises that switching the request process does not
meaningfully slow the simulators down: every model shares the same per-slot
sampling core and the same packed-horizon consumption, so the only extra
cost is the per-slot evolution bookkeeping.  This suite times the service
simulator (the loop that actually consumes requests) at the scalability
benchmark's largest grid point under every synthetic workload and records
``throughput_vs_stationary = t_stationary / t_workload`` per model into the
JSON results; ``benchmarks/check_regression.py`` gates those ratios against
``baseline_bench.json`` so a workload costing more than ~25% over
stationary fails CI.
"""

from __future__ import annotations

import time

import pytest

from repro.core.lyapunov import LyapunovServiceController
from repro.sim.scenario import ScenarioConfig
from repro.sim import ServiceSimulator

#: The largest scalability grid point (matches benchmarks/baseline_bench.json).
GRID = {"num_rsus": 32, "contents_per_rsu": 20}

NON_STATIONARY = {
    "drift": "drift:period=50",
    "flash-crowd": "flash-crowd:burst_prob=0.02,duration=20",
    "shot-noise": "shot-noise:event_rate=0.05,mean_lifetime=25",
}


def _best_of(config, repeats=3):
    """Minimum wall time of *repeats* full service-simulator runs."""
    best = float("inf")
    for _ in range(repeats):
        policy = LyapunovServiceController(10.0)
        start = time.perf_counter()
        ServiceSimulator(config, policy).run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload_timings(bench_horizon):
    base_config = ScenarioConfig(
        num_rsus=GRID["num_rsus"],
        contents_per_rsu=GRID["contents_per_rsu"],
        num_slots=bench_horizon,
        arrival_rate=0.6,
        seed=0,
    )
    timings = {"stationary": _best_of(base_config)}
    for name, spec in NON_STATIONARY.items():
        timings[name] = _best_of(base_config.with_overrides(workload=spec))
    return timings


@pytest.mark.parametrize("name", sorted(NON_STATIONARY))
def test_non_stationary_overhead_within_budget(
    workload_timings, bench_record, bench_horizon, name
):
    stationary = workload_timings["stationary"]
    measured = workload_timings[name]
    throughput = stationary / measured
    grid = f"{GRID['num_rsus']}x{GRID['contents_per_rsu']}"
    bench_record(
        f"workload_overhead:{name}",
        grid,
        num_slots=bench_horizon,
        wall_seconds=measured,
        stationary_wall_seconds=stationary,
        throughput_vs_stationary=throughput,
    )
    # Loose in-test guard against catastrophic regressions; the precise
    # <= ~25%-overhead gate runs in check_regression.py against the
    # committed baseline, where quick-mode noise gets its own floor.
    assert measured <= 1.6 * stationary, (
        f"workload {name!r} costs {measured / stationary:.2f}x stationary "
        f"at {grid} — the shared sampling core should keep this near 1x"
    )


def test_stationary_baseline_recorded(workload_timings, bench_record, bench_horizon):
    grid = f"{GRID['num_rsus']}x{GRID['contents_per_rsu']}"
    bench_record(
        "workload_overhead:stationary",
        grid,
        num_slots=bench_horizon,
        wall_seconds=workload_timings["stationary"],
        throughput_vs_stationary=1.0,
    )
    assert workload_timings["stationary"] > 0
