"""Concurrency and hashing-property tests for the run store (ISSUE satellite).

Two OS processes sharing one store must never lose rows or crash with
``database is locked`` — that is what the WAL journal and the busy
timeout are for, and it only shows up under real multi-process load, so
these tests spawn actual subprocesses, not threads.

The hypothesis section pins the content-addressing contract itself:
a cell key is a pure function of the run *configuration* (stable under
dict key reordering, which ``json.dumps(sort_keys=True)`` guarantees)
and distinct configurations never share a key.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.policies import PolicySpec
from repro.runtime.runner import ExperimentRunner, RunSpec
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import RunStore, _digest, cell_key
from repro.sim.scenario import ScenarioConfig

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_worker(script_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script_path), *map(str, args)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _join(process):
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, f"worker failed:\n{stdout}\n{stderr}"
    return stdout


_HAMMER_WORKER = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.runtime.runner import RunRecord, RunSpec
    from repro.runtime.store import RunStore
    from repro.sim.scenario import ScenarioConfig

    store_dir, start, stop = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    scenario = ScenarioConfig.small(seed=11, num_slots=20)
    spec = RunSpec(
        kind="cache", scenario=scenario, policy="periodic:period=2", label="hammer"
    )
    with RunStore(store_dir) as store:
        for index in range(start, stop):
            record = RunRecord(
                label="hammer",
                seed=index,
                kind="cache",
                summary={"value": float(index), "policy": "periodic"},
                trace=np.full(3, float(index)),
            )
            # One transaction per cell: maximum write contention.
            assert store.put(spec, index, record)
            if index % 7 == 0:
                store.get(spec, max(start, index - 5))
    print("ok")
    """
)

_GRID_WORKER = textwrap.dedent(
    """
    import json
    import sys

    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.spec import ExperimentSpec
    from repro.sim.scenario import ScenarioConfig

    store_dir, spec_names = sys.argv[1], json.loads(sys.argv[2])
    scenario = ScenarioConfig.small(seed=11, num_slots=20)
    grid = [
        ExperimentSpec(
            kind="cache",
            scenario=scenario,
            policy=policy,
            seed=13,
            num_seeds=8,
            label=label,
        )
        for label, policy in spec_names
    ]
    runner = ExperimentRunner(workers=1)
    batch = runner.run_grid(grid, store=store_dir)
    print(json.dumps({"records": len(batch)}))
    """
)

_ALL_SPECS = [
    ["p2", "periodic:period=2"],
    ["p3", "periodic:period=3"],
    ["always", "always"],
    ["never", "never"],
]


class TestTwoProcesses:
    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        store_dir = str(tmp_path / "runs")
        script = tmp_path / "hammer.py"
        script.write_text(_HAMMER_WORKER)

        # Overlapping ranges: [0, 120) and [60, 180) race on 60 cells.
        first = _run_worker(script, store_dir, 0, 120)
        second = _run_worker(script, store_dir, 60, 180)
        _join(first)
        _join(second)

        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        spec = RunSpec(
            kind="cache",
            scenario=scenario,
            policy="periodic:period=2",
            label="hammer",
        )
        with RunStore(store_dir) as store:
            assert len(store) == 180
            for index in range(180):
                record = store.get(spec, index)
                assert record is not None, f"cell {index} lost"
                assert record.summary["value"] == float(index)
                assert np.array_equal(record.trace, np.full(3, float(index)))
            assert store.stats.corrupt_cells == 0
            assert store.stats.resets == 0

    def test_concurrent_overlapping_sweeps_merge(self, tmp_path):
        store_dir = str(tmp_path / "runs")
        script = tmp_path / "grid.py"
        script.write_text(_GRID_WORKER)

        first = _run_worker(script, store_dir, json.dumps(_ALL_SPECS[:3]))
        second = _run_worker(script, store_dir, json.dumps(_ALL_SPECS[1:]))
        assert json.loads(_join(first))["records"] == 24
        assert json.loads(_join(second))["records"] == 24

        with RunStore(store_dir) as store:
            assert len(store) == len(_ALL_SPECS) * 8  # union, no lost rows

        # A third sweep over the full grid is fully warm and bit-identical
        # to a cold run.
        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        grid = [
            ExperimentSpec(
                kind="cache",
                scenario=scenario,
                policy=policy,
                seed=13,
                num_seeds=8,
                label=label,
            )
            for label, policy in _ALL_SPECS
        ]
        runner = ExperimentRunner(workers=1)
        warm = runner.run_grid(grid, store=store_dir)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_cached"] == len(_ALL_SPECS) * 8
        assert report["cells_dispatched"] == 0
        cold = ExperimentRunner(workers=1).run_grid(grid, store=False)
        assert warm.matches(cold)


# ----------------------------------------------------------------------
# Hashing properties
# ----------------------------------------------------------------------
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.recursive(
        _json_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(min_size=1, max_size=8), inner, max_size=4),
        ),
        max_leaves=8,
    ),
    min_size=1,
    max_size=6,
)


def _reorder(value):
    """Recursively rebuild dicts with reversed key insertion order."""
    if isinstance(value, dict):
        return {key: _reorder(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


class TestHashProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(payload=_payloads)
    def test_digest_stable_under_key_reordering(self, payload):
        reordered = _reorder(payload)
        assert reordered == payload  # same mapping ...
        assert _digest(reordered) == _digest(payload)  # ... same digest

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(first=_payloads, second=_payloads)
    def test_distinct_payloads_never_collide(self, first, second):
        if first == second:
            assert _digest(first) == _digest(second)
        else:
            assert _digest(first) != _digest(second)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        weight=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        refresh_age=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_spec_key_stable_under_param_reordering(
        self, weight, refresh_age, seed
    ):
        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        forward = PolicySpec("myopic", {"weight": weight, "refresh_age": refresh_age})
        backward = PolicySpec("myopic", {"refresh_age": refresh_age, "weight": weight})
        key_forward = cell_key(
            RunSpec(kind="cache", scenario=scenario, policy=forward), seed
        )
        key_backward = cell_key(
            RunSpec(kind="cache", scenario=scenario, policy=backward), seed
        )
        assert key_forward == key_backward is not None

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        periods=st.tuples(
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=1, max_value=500),
        ),
        seeds=st.tuples(
            st.integers(min_value=0, max_value=2**20),
            st.integers(min_value=0, max_value=2**20),
        ),
    )
    def test_distinct_specs_never_collide(self, periods, seeds):
        scenario = ScenarioConfig.small(seed=11, num_slots=20)

        def key(period, seed):
            spec = RunSpec(
                kind="cache",
                scenario=scenario,
                policy=PolicySpec("periodic", {"period": period}),
            )
            return cell_key(spec, seed)

        first = key(periods[0], seeds[0])
        second = key(periods[1], seeds[1])
        if (periods[0], seeds[0]) == (periods[1], seeds[1]):
            assert first == second
        else:
            assert first != second

    def test_kind_and_horizon_separate_keys(self):
        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        base = RunSpec(kind="cache", scenario=scenario, policy="always")
        keys = {
            cell_key(base, 0),
            cell_key(RunSpec(kind="service", scenario=scenario,
                             policy="always-serve"), 0),
            cell_key(
                RunSpec(kind="cache", scenario=scenario, policy="always",
                        num_slots=21),
                0,
            ),
            cell_key(
                RunSpec(kind="cache", scenario=scenario, policy="always",
                        metrics="summary"),
                0,
            ),
        }
        assert None not in keys
        assert len(keys) == 4
