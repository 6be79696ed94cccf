"""Benchmark E7 — scalability: solver and simulator throughput vs. system size.

Measures the wall-clock cost of solving the cache-management MDP and running
the simulator as the number of RSUs and cached contents grows, confirming the
factored controller's cost grows roughly linearly in the number of contents
(rather than exponentially as the exact joint formulation would) — and that
the vectorised hot loop plus the batched parallel runner deliver the
multiplicative speedup the production-scale roadmap relies on.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.analysis.sweep import format_table, mdp_policy_factory, scalability_sweep
from repro.core.caching_mdp import CachingMDPConfig, MDPCachingPolicy
from repro.runtime.runner import ExperimentRunner, RunSpec, expand_seeds
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator
from repro.sim.engine import _reference


def mdp_policy_factory_without_cache(scenario):
    """MDP policy with the shared solve cache disabled (the PR 1 baseline)."""
    return MDPCachingPolicy(scenario.build_mdp_config(), use_solve_cache=False)

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

SIZES = [
    {"num_rsus": 1, "contents_per_rsu": 5},
    {"num_rsus": 2, "contents_per_rsu": 5},
    {"num_rsus": 4, "contents_per_rsu": 5},
    {"num_rsus": 8, "contents_per_rsu": 5},
    {"num_rsus": 8, "contents_per_rsu": 10},
    {"num_rsus": 16, "contents_per_rsu": 20},
    {"num_rsus": 32, "contents_per_rsu": 20},
]

#: The largest grid point, used by the vectorisation speedup benchmark.
LARGEST = SIZES[-1]


@pytest.fixture(scope="module")
def sweep_rows():
    return scalability_sweep(SIZES, num_slots=60 if QUICK else 100, seed=0)


def test_bench_paper_scale_simulation(benchmark):
    """Time the paper-scale (4 RSUs x 5 contents) simulation of 100 slots."""
    config = ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=100)

    def run():
        policy = MDPCachingPolicy(config.build_mdp_config())
        return CacheSimulator(config, policy).run()

    result = benchmark(run)
    benchmark.extra_info["total_reward"] = result.total_reward
    assert result.metrics.num_slots_recorded == 100


def test_bench_large_scale_simulation(benchmark):
    """Time a 2x-larger-than-paper instance (8 RSUs x 10 contents)."""
    config = ScenarioConfig(
        num_rsus=8, contents_per_rsu=10, num_slots=50, seed=0
    )

    def run():
        policy = MDPCachingPolicy(config.build_mdp_config())
        return CacheSimulator(config, policy).run()

    result = benchmark(run)
    assert result.metrics.num_slots_recorded == 50


def test_throughput_scales_sublinearly_in_contents(sweep_rows):
    """Wall time should grow far slower than the exponential joint state space."""
    by_size = {
        (int(row["num_rsus"]), int(row["contents_per_rsu"])): row for row in sweep_rows
    }
    small = by_size[(1, 5)]["wall_seconds"]
    large = by_size[(32, 20)]["wall_seconds"]
    # 128x more contents should cost well under 200x more time (the
    # vectorised loop is roughly flat in system size at these scales); the
    # loose bound keeps the check robust on slow CI.
    assert large <= 200.0 * max(small, 1e-3)


def _time_batch(specs, workers):
    """Best-of-two wall time of executing *specs* with the given workers."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        ExperimentRunner(workers=workers).run(specs)
        best = min(best, time.perf_counter() - start)
    return best


def _time_reference(specs):
    """Best-of-two wall time of the scalar oracle over *specs*, one at a time."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for spec in specs:
            scenario = spec.scenario.with_overrides(seed=spec.seed)
            _reference(scenario, spec.policy(scenario))
        best = min(best, time.perf_counter() - start)
    return best


def test_seed_batched_speedup_at_largest_size(capsys, bench_record):
    """The seed-batched tensor runtime must beat the PR 1 path >= 2x.

    Compares an 8-seed batch at the largest grid point executed the PR 1 way
    (one vectorised run per seed, each solving its own MDPs — the solve cache
    is disabled to reproduce that baseline) against the new way (one
    ``run_batch`` tensor loop sharing solves through the cache).  Both
    executions produce bit-identical records, which is asserted before the
    timings are trusted.
    """
    num_slots = 60 if QUICK else 100
    scenario = ScenarioConfig(
        num_rsus=int(LARGEST["num_rsus"]),
        contents_per_rsu=int(LARGEST["contents_per_rsu"]),
        num_slots=num_slots,
        seed=0,
    )
    spec = RunSpec(
        kind="cache", scenario=scenario, policy=mdp_policy_factory,
        seed=0, label="largest",
    )
    per_run_spec = replace(spec, policy=mdp_policy_factory_without_cache)
    runner = ExperimentRunner(workers=1)

    def best_of_two(fn):
        best, result = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    per_run_seconds, per_run_batch = best_of_two(
        lambda: runner.run_grid(expand_seeds([per_run_spec], 8))
    )
    batched_seconds, batched_batch = best_of_two(
        lambda: runner.run_grid([spec], num_seeds=8)
    )
    assert batched_batch.matches(per_run_batch)
    speedup = per_run_seconds / max(batched_seconds, 1e-9)
    grid = f"{LARGEST['num_rsus']}x{LARGEST['contents_per_rsu']}"
    bench_record(
        "seed_batch",
        grid,
        num_slots=num_slots,
        num_seeds=8,
        wall_seconds=batched_seconds,
        reference_seconds=per_run_seconds,
        speedup_vs_per_run=speedup,
    )
    with capsys.disabled():
        print(
            f"\n[seed-batch] largest size {grid} x {num_slots} slots x 8 seeds: "
            f"per-run {per_run_seconds:.3f}s, seed-batched {batched_seconds:.3f}s "
            f"-> {speedup:.1f}x"
        )
    # Quick mode only smokes the batch; wall-clock ratios on loaded CI
    # runners are noise, so the >= 2x target is enforced by the full run.
    if not QUICK:
        assert speedup >= 2.0


def test_vectorized_batch_speedup_at_largest_size(capsys, bench_record):
    """The new runtime must beat the scalar loop >= 3x at the largest size.

    Compares a 4-seed batch at the largest grid point executed the old way
    (scalar reference loop, one run at a time) against the new way (the
    vectorised loop fanned out over 4 workers).  The vectorisation alone
    carries the factor on a single core; worker processes multiply it on
    real machines.
    """
    num_slots = 60 if QUICK else 100
    scenario = ScenarioConfig(
        num_rsus=int(LARGEST["num_rsus"]),
        contents_per_rsu=int(LARGEST["contents_per_rsu"]),
        num_slots=num_slots,
        seed=0,
    )
    grid = expand_seeds(
        [RunSpec(kind="cache", scenario=scenario, policy=mdp_policy_factory,
                 seed=0, label="largest")],
        4,
    )
    reference_serial = _time_reference(grid)
    vectorized_parallel = _time_batch(grid, workers=4)
    speedup = reference_serial / max(vectorized_parallel, 1e-9)
    bench_record(
        "vectorized",
        f"{LARGEST['num_rsus']}x{LARGEST['contents_per_rsu']}",
        num_slots=num_slots,
        num_seeds=4,
        wall_seconds=vectorized_parallel,
        reference_seconds=reference_serial,
        speedup_vs_reference=speedup,
    )
    with capsys.disabled():
        print(
            f"\n[scalability] largest size {LARGEST['num_rsus']}x"
            f"{LARGEST['contents_per_rsu']} x {num_slots} slots x 4 seeds: "
            f"reference serial {reference_serial:.3f}s, vectorized + 4 workers "
            f"{vectorized_parallel:.3f}s -> {speedup:.1f}x"
        )
    # Quick mode is a shared-CI smoke: the run proves the batch executes,
    # but loaded runners make wall-clock ratios noise, so only the full
    # benchmark enforces the >= 3x target.
    if not QUICK:
        assert speedup >= 3.0


def test_scalability_report(sweep_rows, capsys, bench_record):
    for row in sweep_rows:
        bench_record(
            "scalability",
            f"{int(row['num_rsus'])}x{int(row['contents_per_rsu'])}",
            num_slots=row["num_slots"],
            wall_seconds=row["wall_seconds"],
            slots_per_second=row["slots_per_second"],
        )
    with capsys.disabled():
        print()
        print("=" * 78)
        print("E7 — scalability of the MDP caching controller")
        print("=" * 78)
        print(format_table(sweep_rows))
