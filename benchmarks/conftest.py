"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (figure panel or claim) or one
ablation indexed in DESIGN.md.  The scenario horizons are shortened relative
to the paper's 1000 iterations so the whole harness completes in a few
minutes; the qualitative shape being checked is unaffected by the horizon.
Set the environment variable ``REPRO_FULL_HORIZON=1`` to run the paper's full
1000-slot horizon instead, or ``REPRO_BENCH_QUICK=1`` for a drastically
shortened smoke-test horizon (used by the CI benchmark job).

Benchmarks that call the ``bench_record`` fixture additionally emit their
headline numbers to a machine-readable JSON file (``BENCH_PR9.json`` by
default, override with ``REPRO_BENCH_JSON``) at the end of the session; CI
uploads that file as an artifact and ``benchmarks/check_regression.py``
compares it against the committed baseline.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.sim.scenario import ScenarioConfig

# The scalar test oracle (tests/oracle) is the reference arm of the
# scalability benchmark's speedup_vs_reference.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

#: Entries accumulated by the ``bench_record`` fixture over the session.
_BENCH_RESULTS: List[Dict] = []

#: Default output path of the machine-readable benchmark results.
BENCH_JSON_DEFAULT = "BENCH_PR9.json"


@pytest.fixture(scope="session")
def bench_record():
    """Record one machine-readable benchmark entry.

    Usage: ``bench_record(suite, grid, wall_seconds=..., speedup=...)`` —
    *suite* names the benchmark family, *grid* the grid point (for example
    ``"32x20"``), and every keyword becomes a column of the emitted JSON.
    """

    def record(suite: str, grid: str, **metrics) -> None:
        _BENCH_RESULTS.append({"suite": str(suite), "grid": str(grid), **metrics})

    return record


def pytest_sessionfinish(session, exitstatus):
    """Write the accumulated benchmark entries to the JSON results file."""
    if not _BENCH_RESULTS:
        return
    path = os.environ.get("REPRO_BENCH_JSON", BENCH_JSON_DEFAULT)
    payload = {
        "schema": 1,
        "quick": os.environ.get("REPRO_BENCH_QUICK") == "1",
        "full_horizon": os.environ.get("REPRO_FULL_HORIZON") == "1",
        "python": platform.python_version(),
        "results": _BENCH_RESULTS,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def _horizon(default: int) -> int:
    if os.environ.get("REPRO_FULL_HORIZON") == "1":
        return 1000
    if os.environ.get("REPRO_BENCH_QUICK") == "1":
        return min(default, 60)
    return default


@pytest.fixture(scope="session")
def bench_horizon() -> int:
    """Number of slots simulated by the benchmark scenarios."""
    return _horizon(300)


@pytest.fixture(scope="session")
def fig1a_scenario(bench_horizon) -> ScenarioConfig:
    """The Fig. 1a scenario (4 RSUs x 5 contents)."""
    return ScenarioConfig.fig1a(seed=0).with_overrides(num_slots=bench_horizon)


@pytest.fixture(scope="session")
def fig1b_scenario(bench_horizon) -> ScenarioConfig:
    """The Fig. 1b scenario (5 RSUs, random requests)."""
    return ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=bench_horizon)
