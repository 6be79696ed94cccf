"""Benchmark — multi-hop network core overhead vs the single-hop path.

The PR-8 gate for the graph-backed network core: routing every request
through ``NetworkModel``/``NetworkController`` must not slow down the
pre-existing single-hop cache path, and the multihop path itself must stay
within a small constant factor of it.

* ``multihop_overhead`` — times the legacy ``CacheSimulator`` (the
  single-hop path PR 8 refactors around) and the ``MultihopSimulator``
  with a star topology + ``edge`` strategy (the degenerate configuration
  that is equivalence-tested against the single-RSU model) on the same
  grid.  The gated metric is ``single_hop_ratio`` — single-hop slots/s
  divided by multihop slots/s.  Absolute wall times are machine-dependent,
  so only this ratio is compared against ``baseline_multihop.json`` (5%
  tolerance in CI): if a change to the shared substrate regresses the
  single-hop path, the ratio falls below its floor.

``REPRO_BENCH_QUICK=1`` shrinks the horizon for the CI smoke.
"""

from __future__ import annotations

import os
import time

import pytest

pytest.importorskip("networkx")

from repro.policies import PolicySpec
from repro.policies.onpath import EdgeCaching
from repro.sim.multihop_sim import MultihopSimulator
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

NUM_RSUS, CONTENTS = 8, 6
SLOTS = 120 if QUICK else 600
REPEATS = 3

GRID = f"{NUM_RSUS}x{CONTENTS}"


def _scenario(**overrides) -> ScenarioConfig:
    return ScenarioConfig(
        num_rsus=NUM_RSUS,
        contents_per_rsu=CONTENTS,
        num_slots=SLOTS,
        seed=0,
        **overrides,
    )


def _best_slots_per_second(run) -> float:
    """Best-of-N throughput — the minimum wall time is the least noisy."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return SLOTS / best


class TestMultihopOverhead:
    def test_single_hop_throughput_ratio(self, bench_record):
        single_hop = _scenario()
        multihop = _scenario(topology_kind="star")

        def run_single_hop():
            policy = PolicySpec.coerce("never").build(single_hop)
            result = CacheSimulator(single_hop, policy).run()
            assert result.summary()["num_slots"] == SLOTS

        def run_multihop():
            result = MultihopSimulator(multihop, EdgeCaching()).run()
            assert 0.0 <= result.hit_ratio <= 1.0

        single_hop_sps = _best_slots_per_second(run_single_hop)
        multihop_sps = _best_slots_per_second(run_multihop)
        ratio = single_hop_sps / multihop_sps

        bench_record(
            "multihop_overhead",
            GRID,
            single_hop_slots_per_s=round(single_hop_sps, 1),
            multihop_slots_per_s=round(multihop_sps, 1),
            single_hop_ratio=round(ratio, 3),
        )
        # Sanity only — the committed floor lives in baseline_multihop.json
        # and is enforced by check_regression.py at 5% tolerance.
        assert ratio > 0.0
