"""Recompute the output digests pinned in ``expected.json``.

Run from the root of a checkout whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/pin.py

Every batch workload is run once per pinned input seed, for both size
profiles, and its canonical summary rows hashed.  Existing entries are
kept unless recomputed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

#: Input seeds pinned per profile: all of them for the benchmark sizes,
#: a few for the test sizes.
PINNED = {"full": range(workloads.PINNED_SEEDS), "tiny": range(4)}


def main() -> int:
    table = {}
    if os.path.exists(workloads.EXPECTED_PATH):
        with open(workloads.EXPECTED_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    with tempfile.TemporaryDirectory() as workdir:
        os.environ["REPRO_SOLVE_CACHE_DIR"] = os.path.join(workdir, "solve-cache")
        os.environ["REPRO_RUN_STORE"] = "0"
        for profile in sys.argv[1:] or ("tiny", "full"):
            for seed in PINNED[profile]:
                for name, cls in workloads.BATCH.items():
                    workload = cls(profile, seed, workdir)
                    key = f"{name}/{profile}/{seed}"
                    table[key] = workloads.digest(workload.rows(workload.call()))
                    print(key, table[key], flush=True)
                with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
                    json.dump(table, handle, indent=1, sort_keys=True)
                    handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
