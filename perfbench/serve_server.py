"""Traced stand-in for ``python -m repro.cli serve`` (benchmark use only).

Installs the benchmark's span wrappers, then serves through
``repro.serve.run_server`` exactly as the CLI does.  On SIGINT the server
stops and the spans and counts are written to ``--spans``.

    python perfbench/serve_server.py --spans spans.json \\
        --scenario scenario.json --policy mdp --policy lyapunov
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer, install


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--policy", action="append", required=True)
    args = parser.parse_args()

    from repro import ScenarioConfig
    from repro.serve import run_server

    tracer = Tracer(run_id="serve")
    install(tracer)
    with open(args.scenario, encoding="utf-8") as handle:
        scenario = ScenarioConfig.from_dict(json.load(handle))

    def ready(host: str, port: int) -> None:
        print(f"serving {args.scenario} on {host}:{port}", flush=True)

    try:
        run_server(scenario, tuple(args.policy), ready_callback=ready)
    finally:
        tracer.finish()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
