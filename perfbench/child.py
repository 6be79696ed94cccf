"""One benchmark process: set up a workload, then time or trace it.

Started by ``run.py``; prints ``READY`` on stdout once the warm-up has
finished (the parent times set-up up to that line) and writes its figures
as JSON to ``--out``.  Modes:

* ``setup``  — set up and warm up, then exit;
* ``window`` — then repeat the workload's public call for ``--seconds``
  (``serve-replay``: flood for ``--seconds`` minus its paced phase);
* ``fixed``  — then make exactly one call, or flood a fixed number of
  slots (the untraced baseline of a traced run, and the pool's dispatch
  statistics);
* ``traced`` — like ``fixed``, with the span wrappers installed before
  set-up, so set-up work (MDP solves, state builds) is traced too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import workloads


def ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def run_batch(args) -> dict:
    workload = workloads.BATCH[args.workload](args.profile, args.seed, args.workdir)
    if args.workers is not None:
        from repro import ExperimentRunner

        workload.runner = ExperimentRunner(workers=args.workers)
    workload.warm_up()
    ready()
    if args.mode == "setup":
        return {}
    expected = workloads.expected_digest(args.workload, args.profile, args.seed)
    clock = workloads.OpClock()
    failed = 0
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        try:
            output = workload.call()
            seconds = time.perf_counter() - begin
            ok = workloads.digest(workload.rows(output)) == expected
        except Exception:  # a run that raises is a failed operation
            seconds = time.perf_counter() - begin
            traceback.print_exc()
            ok = False
        clock.record(workload.run_slots, seconds)
        failed += not ok
        if args.mode != "window":
            break
        if time.perf_counter() - started >= args.seconds and len(clock.seconds) >= 2:
            break
    attempted = len(clock.seconds)
    result = {
        **clock.figures(),
        "attempted": attempted,
        "failed": failed if expected is not None else attempted,
        "checks": {"digest_pinned": expected is not None},
    }
    runner = getattr(workload, "runner", None)
    if runner is not None:
        result["dispatch"] = runner.last_dispatch_stats
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--profile", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "window", "fixed", "traced")
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--shared", required=True, help="inputs prepared once per benchmark run"
    )
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "traced" and args.workload != "serve-replay":
        from tracing import Tracer, install

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
        install(tracer)

    if args.workload == "serve-replay":
        spans_path = None
        if args.mode == "traced":
            spans_path = os.path.join(args.workdir, "spans.json")
        result = workloads.serve_replay(
            args.profile,
            args.seed,
            args.seconds,
            args.shared,
            on_ready=ready,
            mode=args.mode,
            spans_path=spans_path,
        )
        if spans_path is not None:
            from tracing import layer_metrics

            with open(spans_path, encoding="utf-8") as handle:
                dumped = json.load(handle)
            result["layers"] = layer_metrics(dumped["spans"], dumped["counts"])
    else:
        result = run_batch(args)
        if tracer is not None:
            from tracing import layer_metrics

            tracer.finish()
            tracer.dump(os.path.join(args.workdir, "spans.json"))
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
    result.setdefault("rss_mb", workloads.peak_rss_mb())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
