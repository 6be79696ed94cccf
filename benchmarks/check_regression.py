#!/usr/bin/env python
"""Compare a BENCH_*.json results file against the committed baseline.

CI runs the benchmark smoke, which emits ``BENCH_PR9.json`` (see
``benchmarks/conftest.py``), then calls this script to fail the job when a
headline metric at its gated grid point regressed by more than the
tolerance (25% by default).  Only *ratio* metrics (speedups) are compared —
absolute wall-clock times vary too much across runner hardware to gate on.

Usage::

    python benchmarks/check_regression.py BENCH_PR9.json \
        benchmarks/baseline_bench.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional


def _find(results, suite: str, grid: str) -> Optional[Dict]:
    for entry in results:
        if entry.get("suite") == suite and entry.get("grid") == grid:
            return entry
    return None


def check(measured: Dict, baseline: Dict, tolerance: float, out=sys.stdout) -> int:
    """Return 0 when every baselined metric is within tolerance, 1 otherwise."""
    quick = bool(measured.get("quick"))
    failures = 0
    for check_spec in baseline["checks"]:
        suite, metric = check_spec["suite"], check_spec["metric"]
        # Checks default to the baseline's top-level grid point; a check may
        # pin its own (e.g. the large_grid suite runs at 128x50, and its
        # quick smoke shrinks to a CI-sized grid via quick_grid).
        grid = check_spec.get("grid", baseline["grid"])
        if quick:
            grid = check_spec.get("quick_grid", grid)
        # Quick-mode (CI smoke) ratios run short horizons on loaded shared
        # runners, so the baseline carries a separate, looser quick_value;
        # the full-precision value gates only full-horizon runs.
        reference = float(
            check_spec.get("quick_value", check_spec["value"])
            if quick
            else check_spec["value"]
        )
        floor = reference * (1.0 - tolerance)
        entry = _find(measured.get("results", []), suite, grid)
        value = entry.get(metric) if entry is not None else None
        if value is None:
            out.write(
                f"MISSING  {suite}@{grid}: no measured value for metric {metric}\n"
            )
            failures += 1
            continue
        value = float(value)
        status = "OK      " if value >= floor else "REGRESSED"
        out.write(
            f"{status} {suite}@{grid} {metric}: measured {value:.2f}, "
            f"baseline {reference:.2f} "
            f"(floor {floor:.2f} at {tolerance:.0%} tolerance"
            f"{', quick mode' if quick else ''})\n"
        )
        if value < floor:
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", help="benchmark results JSON (BENCH_PR9.json)")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression before failing (default 0.25)",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.measured, encoding="utf-8") as handle:
        measured = json.load(handle)
    with open(arguments.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    return check(measured, baseline, arguments.tolerance)


if __name__ == "__main__":
    sys.exit(main())
