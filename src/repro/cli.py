"""Command-line interface for the reproduction harness.

Nine subcommands cover the common workflows without writing any Python:

* ``list`` — show every registered experiment (the E1-E8 index of DESIGN.md).
* ``run`` — run registered experiments, or a declarative spec file.
* ``figures`` — regenerate the paper's Fig. 1a / Fig. 1b as ASCII charts.
* ``workloads`` — show every registered request-process model.
* ``policies`` — show every registered caching/service policy.
* ``cache`` — inspect or clear the on-disk MDP solve cache.
* ``results`` — list / filter / aggregate / export historical runs from
  the persistent run store.
* ``store`` — inspect, clear, or compact the persistent run store.
* ``serve`` — stream live what-if requests into a simulation over TCP
  (JSONL wire format, the same one trace files use).

Examples::

    python -m repro.cli list
    python -m repro.cli run E1 E2 --slots 300
    python -m repro.cli run all --slots 1000 --seed 1
    python -m repro.cli run all --seeds 5 --workers 4   # multi-seed, parallel
    python -m repro.cli run E2 --workload drift:period=25,step=0.4
    python -m repro.cli run E1 --profile                # cProfile hotspots
    python -m repro.cli run --spec experiments.json --out results.json
    python -m repro.cli run --spec experiments.json --policy mdp:mode=factored
    python -m repro.cli run --spec experiments.json --metrics summary
    python -m repro.cli run --spec experiments.json --store    # resumable
    python -m repro.cli figures --slots 500 --workload flash-crowd
    python -m repro.cli workloads
    python -m repro.cli policies
    python -m repro.cli cache --clear
    python -m repro.cli results --label 'fig1a*' --aggregate
    python -m repro.cli results --kind cache --csv --out history.csv
    python -m repro.cli store --stats
    python -m repro.cli store --vacuum
    python -m repro.cli serve --scenario fig1b --policy myopic --policy lyapunov

``--workload`` and ``--policy`` share one ``name[:k=v,...]`` grammar; see
the ``workloads`` and ``policies`` subcommands for the two catalogs.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
from typing import List, Optional, Sequence

from repro.analysis.experiments import (
    available_experiments,
    run_all_experiments,
    run_experiment,
)
from repro.analysis.figures import (
    build_fig1a_data,
    build_fig1b_data,
    render_fig1a,
    render_fig1b,
)
from repro.sim.engine import KINDS, SIMULATION_KINDS
from repro.sim.scenario import ScenarioConfig


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'AoI-Aware Markov Decision Policies "
            "for Caching' (ICDCS 2022)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser(
        "run", help="run registered experiments or a declarative spec file"
    )
    run_parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (E1..E8) or 'all'; omit when using --spec",
    )
    run_parser.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "run the declarative ExperimentSpec grid in this JSON file "
            "instead of registered experiments; prints the aggregated "
            "mean/CI table (see repro.runtime.ExperimentSpec)"
        ),
    )
    run_parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "with --spec: also write the full BatchResult (per-seed rows + "
            "aggregate) as JSON to PATH"
        ),
    )
    run_parser.add_argument(
        "--policy",
        type=str,
        default=None,
        metavar="NAME[:K=V,...]",
        help=(
            "with --spec: override the matching-role policy of every "
            "experiment in the file, e.g. 'mdp:mode=factored' or "
            "'lyapunov:tradeoff_v=50'; see 'python -m repro.cli policies' "
            "for the registry (shares the --workload spec grammar)"
        ),
    )
    run_parser.add_argument(
        "--slots",
        type=int,
        default=None,
        help=(
            "simulation horizon in slots (paper uses 1000; default 300); "
            "not applicable with --spec (set num_slots in the spec file)"
        ),
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "master scenario seed (default 0); not applicable with --spec "
            "(set seed in the spec file)"
        ),
    )
    run_parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "independent replicate seeds per experiment (derived from --seed); "
            "reports then aggregate metrics into mean/CI (default 1); with "
            "--spec, overrides every experiment's own num_seeds"
        ),
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the (experiment, seed) grid; defaults to "
            "the CPU count, 1 forces serial execution (results are identical "
            "either way)"
        ),
    )

    run_parser.add_argument(
        "--workload",
        type=str,
        default=None,
        metavar="NAME[:K=V,...]",
        help=(
            "request-process model applied to every scenario, e.g. "
            "'drift:period=25,step=0.4' or 'trace:path=run.jsonl'; "
            "see 'python -m repro.cli workloads' for the registry "
            "(default: the paper's stationary workload; affects the "
            "request-consuming service-stage experiments — cache-only "
            "experiments see only its stationary base popularity)"
        ),
    )

    run_parser.add_argument(
        "--metrics",
        choices=["full", "summary"],
        default=None,
        help=(
            "with --spec: metric collection mode applied to every "
            "experiment in the file; 'summary' keeps only the per-slot "
            "aggregates (byte-identical summary/rows output, memory flat "
            "in the grid size on long horizons)"
        ),
    )

    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "wrap the run in cProfile and print the top-20 cumulative-time "
            "hotspots after the reports; with --spec, also report per-worker "
            "time and shared-memory dispatch overhead"
        ),
    )

    run_parser.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help=(
            "with --spec: enable the persistent run store (at DIR, or the "
            "REPRO_RUN_STORE_DIR/default location) — cells already stored "
            "are served from disk, only dirty/missing cells recompute, and "
            "fresh cells persist for future sweeps and 'repro.cli results'"
        ),
    )

    figures_parser = subparsers.add_parser(
        "figures", help="regenerate Fig. 1a and Fig. 1b as ASCII charts"
    )
    figures_parser.add_argument("--slots", type=int, default=300)
    figures_parser.add_argument("--seed", type=int, default=0)
    figures_parser.add_argument(
        "--workload",
        type=str,
        default=None,
        metavar="NAME[:K=V,...]",
        help="request-process model for both figure scenarios",
    )

    subparsers.add_parser(
        "workloads", help="list the registered request-process models"
    )

    subparsers.add_parser(
        "policies", help="list the registered caching and service policies"
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk MDP solve cache"
    )
    cache_parser.add_argument(
        "--clear",
        action="store_true",
        help=(
            "delete every persisted solve from the cache directory "
            "(including temp files orphaned by interrupted writers)"
        ),
    )

    results_parser = subparsers.add_parser(
        "results",
        help="list, filter, aggregate, and export runs from the run store",
    )
    results_parser.add_argument(
        "--dir",
        type=str,
        default=None,
        metavar="DIR",
        help="store location (default: REPRO_RUN_STORE_DIR or .repro_cache/runs)",
    )
    results_parser.add_argument(
        "--label",
        type=str,
        default=None,
        metavar="GLOB",
        help="only rows whose label matches this fnmatch glob, e.g. 'fig1a*'",
    )
    results_parser.add_argument(
        "--kind",
        choices=SIMULATION_KINDS,
        default=None,
        help="only rows of this simulation kind",
    )
    results_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after N rows",
    )
    results_parser.add_argument(
        "--aggregate",
        action="store_true",
        help="collapse each label's rows into one across-seed mean/CI row",
    )
    format_group = results_parser.add_mutually_exclusive_group()
    format_group.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    format_group.add_argument(
        "--csv", action="store_true", help="emit CSV instead of tables"
    )
    results_parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the export to PATH instead of stdout (needs --json/--csv)",
    )

    store_parser = subparsers.add_parser(
        "store", help="inspect, clear, or compact the persistent run store"
    )
    store_parser.add_argument(
        "--dir",
        type=str,
        default=None,
        metavar="DIR",
        help="store location (default: REPRO_RUN_STORE_DIR or .repro_cache/runs)",
    )
    action_group = store_parser.add_mutually_exclusive_group()
    action_group.add_argument(
        "--stats",
        action="store_true",
        help="show cell counts, sizes, and versions (the default action)",
    )
    action_group.add_argument(
        "--clear",
        action="store_true",
        help="delete every stored cell, blob, and orphaned temp file",
    )
    action_group.add_argument(
        "--vacuum",
        action="store_true",
        help="compact the database and collect orphaned blobs/temp files",
    )
    store_parser.add_argument(
        "--json",
        action="store_true",
        help="with --stats: emit the statistics as JSON (for CI artifacts)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the streaming what-if service (JSONL over TCP)",
    )
    serve_parser.add_argument(
        "--scenario",
        type=str,
        default="small",
        metavar="NAME|PATH",
        help=(
            "scenario to serve: fig1a, fig1b, small, or a JSON file of "
            "ScenarioConfig fields (default: small)"
        ),
    )
    serve_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "policy 'name[:k=v,...]'; repeat for a (caching, service) "
            "pair (default: mdp)"
        ),
    )
    serve_parser.add_argument(
        "--workload",
        type=str,
        default=None,
        metavar="SPEC",
        help="workload override 'name[:k=v,...]' applied to the scenario",
    )
    serve_parser.add_argument(
        "--kind",
        type=str,
        default=None,
        metavar="KIND",
        help="explicit simulation kind (normally inferred from the policies)",
    )
    serve_parser.add_argument(
        "--slots",
        type=int,
        default=None,
        metavar="N",
        help="horizon sessions are padded to on close (default: the "
        "client's declared meta line, else none)",
    )
    serve_parser.add_argument(
        "--metrics",
        type=str,
        default="summary",
        metavar="MODE",
        help="metric collection mode: summary (default) or full",
    )
    serve_parser.add_argument(
        "--service-batch",
        type=int,
        default=None,
        metavar="N",
        help="per-slot service batch limit (service/joint kinds)",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="per-session bound on buffered requests before drop-oldest "
        "backpressure kicks in",
    )
    serve_parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        metavar="HOST",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="port to bind; 0 picks an ephemeral port and prints it "
        "(default: 0)",
    )

    return parser


def _command_list(out) -> int:
    experiments = available_experiments()
    out.write("Registered experiments\n")
    out.write("----------------------\n")
    for key in sorted(experiments):
        out.write(f"  {key}  {experiments[key]}\n")
    return 0


def _command_run(arguments, out) -> int:
    if arguments.spec is not None:
        return _run_spec_file(arguments, out)
    if not arguments.experiments:
        out.write("error: give experiment ids (E1..E8, 'all') or --spec PATH\n")
        return 2
    if arguments.policy is not None:
        out.write(
            "error: --policy applies to --spec runs (registered experiments "
            "define their own policies)\n"
        )
        return 2
    if arguments.metrics is not None:
        out.write(
            "error: --metrics applies to --spec runs (registered experiments "
            "read their full metric histories)\n"
        )
        return 2
    if arguments.out is not None:
        out.write("error: --out applies to --spec runs\n")
        return 2
    if arguments.store is not None:
        out.write(
            "error: --store applies to --spec runs (set REPRO_RUN_STORE=1 "
            "to enable the run store for registered experiments)\n"
        )
        return 2
    requested = [item.strip() for item in arguments.experiments]
    workload = _parse_workload(arguments.workload)
    num_slots = arguments.slots if arguments.slots is not None else 300
    seed = arguments.seed if arguments.seed is not None else 0
    num_seeds = arguments.seeds if arguments.seeds is not None else 1
    if any(item.lower() == "all" for item in requested):
        reports = run_all_experiments(
            num_slots=num_slots,
            seed=seed,
            num_seeds=num_seeds,
            workers=arguments.workers,
            workload=workload,
        )
    else:
        reports = [
            run_experiment(
                item,
                num_slots=num_slots,
                seed=seed,
                num_seeds=num_seeds,
                workers=arguments.workers,
                workload=workload,
            )
            for item in requested
        ]
    for report in reports:
        out.write(report.render() + "\n\n")
    failed = [report.experiment_id for report in reports if not report.passed]
    if failed:
        out.write(f"FAILED claims: {', '.join(failed)}\n")
        return 1
    out.write(f"All {len(reports)} experiment claim(s) reproduced.\n")
    return 0


def _parse_workload(text: Optional[str]):
    """Parse a ``--workload`` value into a validated spec (``None`` passthrough)."""
    if text is None:
        return None
    from repro.workloads import WorkloadSpec

    return WorkloadSpec.parse(text)


def _override_spec(spec, workload, policy):
    """Apply the ``--workload`` / ``--policy`` overrides to one spec."""
    overrides = {}
    if workload is not None:
        overrides["scenario"] = spec.scenario.with_overrides(workload=workload)
    if policy is not None:
        auto_label = spec.auto_label()
        # The policy replaces the spec's first one of a matching role; a
        # ``None`` role (multihop) matches every role.
        fields = [
            name
            for name, role in zip(("policy", "service_policy"), KINDS[spec.kind].roles)
            if role in (None, policy.role)
        ]
        if not fields:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"--policy {policy.name!r} is a {policy.role} policy but "
                f"experiment {spec.label!r} is kind={spec.kind!r}"
            )
        overrides[fields[0]] = policy
        if spec.label == auto_label:
            # The label tracked the policy; let it regenerate.
            overrides["label"] = ""
    return spec.with_overrides(**overrides) if overrides else spec


def _run_spec_file(arguments, out) -> int:
    """Execute a declarative ExperimentSpec file through the runner."""
    from repro.policies import PolicySpec
    from repro.runtime import ExperimentRunner, load_specs

    if arguments.experiments:
        out.write("error: give either experiment ids or --spec, not both\n")
        return 2
    if arguments.slots is not None or arguments.seed is not None:
        out.write(
            "error: --slots/--seed do not apply to --spec runs; set "
            "num_slots and seed in the spec file\n"
        )
        return 2
    workload = _parse_workload(arguments.workload)
    policy = (
        PolicySpec.parse(arguments.policy) if arguments.policy is not None else None
    )
    specs = [
        _override_spec(spec, workload, policy)
        for spec in load_specs(arguments.spec)
    ]
    if arguments.metrics is not None:
        specs = [spec.with_overrides(metrics=arguments.metrics) for spec in specs]
    runner = ExperimentRunner(arguments.workers)
    batch = runner.run_grid(specs, num_seeds=arguments.seeds, store=arguments.store)
    out.write(f"Ran {len(batch)} run(s) across {len(specs)} experiment(s)\n")
    store_stats = (runner.last_dispatch_stats or {}).get("run_store")
    if store_stats:
        out.write(
            "Run store: cached={cells_cached} dispatched={cells_dispatched} "
            "total={cells_total} hit_rate={rate:.1f}%\n".format(
                rate=100.0 * store_stats["hit_rate"], **store_stats
            )
        )
    kind_of_label = {
        label: records[0].kind for label, records in batch.by_label().items()
    }
    _write_kind_tables(
        batch.aggregate(), lambda row: kind_of_label[row["label"]], out
    )
    if arguments.out is not None:
        batch.to_json(arguments.out)
        out.write(f"\nWrote per-seed rows and aggregate to {arguments.out}\n")
    if arguments.profile and runner.last_dispatch_stats is not None:
        _write_dispatch_report(runner.last_dispatch_stats, out)
    return 0


def _write_kind_tables(rows, kind_of, out) -> None:
    """Write *rows* as one table per simulation kind (*kind_of* maps a row
    to its kind): kinds report different metric columns, and
    ``format_table`` takes its header from the first row."""
    from repro.analysis.sweep import format_table

    for kind in SIMULATION_KINDS:
        group = [row for row in rows if kind_of(row) == kind]
        if group:
            out.write(f"\n[{kind}]\n")
            out.write(format_table(group) + "\n")


def _write_dispatch_report(stats, out) -> None:
    """Render the runner's dispatch statistics (``run --spec --profile``)."""
    out.write("\nDispatch report\n")
    out.write("---------------\n")
    out.write(
        f"tasks: {stats['tasks']}  workers: {stats['workers']}  "
        f"wall: {stats['wall_seconds']:.3f}s  "
        f"task time total: {stats['task_seconds_total']:.3f}s\n"
    )
    out.write(
        f"shared memory: {'on' if stats['shared_memory'] else 'off'}  "
        f"blocks: {stats['shm_blocks']}  bytes: {stats['shm_bytes']}  "
        f"setup: {stats['shm_setup_seconds']:.3f}s  "
        f"horizon precompute: {stats['horizon_precompute_seconds']:.3f}s "
        f"(computed {stats['horizons_computed']}, "
        f"reused {stats['horizons_reused']})\n"
    )
    for pid, entry in sorted(stats["per_worker"].items()):
        out.write(
            f"  worker pid {pid}: {entry['tasks']} task(s), "
            f"{entry['seconds']:.3f}s\n"
        )


def _command_figures(arguments, out) -> int:
    overrides = {"num_slots": arguments.slots}
    workload = _parse_workload(arguments.workload)
    if workload is not None:
        overrides["workload"] = workload
    fig1a_config = ScenarioConfig.fig1a(seed=arguments.seed).with_overrides(
        **overrides
    )
    fig1b_config = ScenarioConfig.fig1b(seed=arguments.seed).with_overrides(
        **overrides
    )
    out.write(render_fig1a(build_fig1a_data(fig1a_config)) + "\n\n")
    out.write(render_fig1b(build_fig1b_data(fig1b_config)) + "\n")
    return 0


def _command_workloads(out) -> int:
    from repro.workloads import available_workloads, get_workload_class

    out.write("Registered workload models\n")
    out.write("--------------------------\n")
    for name, description in available_workloads().items():
        out.write(f"  {name}  {description}\n")
        defaults = get_workload_class(name).PARAM_DEFAULTS
        if defaults:
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in sorted(defaults.items())
            )
            out.write(f"      parameters: {rendered}\n")
    out.write(
        "\nUse with: python -m repro.cli run E2 --workload "
        "drift:period=25,step=0.4\n"
    )
    return 0


def _command_policies(out) -> int:
    from repro.policies import available_policies, get_policy_entry

    out.write("Registered policies\n")
    out.write("-------------------\n")
    for role, title in (
        ("caching", "Caching (stage 1)"),
        ("service", "Service (stage 2)"),
        ("onpath", "On-path (multi-hop)"),
    ):
        out.write(f"{title}:\n")
        for name, description in available_policies(role).items():
            out.write(f"  {name}  {description}\n")
            defaults = get_policy_entry(name).defaults
            if defaults:
                rendered = ", ".join(
                    f"{key}={value!r}" for key, value in sorted(defaults.items())
                )
                out.write(f"      parameters: {rendered}\n")
    out.write(
        "\nUse with: python -m repro.cli run --spec experiments.json "
        "--policy mdp:mode=factored\n"
    )
    return 0


def _command_cache(arguments, out) -> int:
    from repro.core.solve_cache import default_directory, global_solve_cache

    directory = default_directory()
    if directory is None:
        out.write("Solve cache: disk persistence disabled (REPRO_SOLVE_CACHE=0)\n")
        return 0
    entries = (
        [name for name in os.listdir(directory) if name.endswith(".npz")]
        if os.path.isdir(directory)
        else []
    )
    if arguments.clear:
        global_solve_cache().clear(disk=True)
        out.write(
            f"Cleared {len(entries)} persisted solve(s) from {directory}\n"
        )
        return 0
    stats = global_solve_cache().stats
    out.write(f"Solve cache directory: {directory}\n")
    out.write(f"Persisted solves: {len(entries)}\n")
    out.write(
        f"This process: hits={stats.hits} disk_hits={stats.disk_hits} "
        f"misses={stats.misses}\n"
    )
    return 0


def _open_store(directory, out):
    """Resolve and open the run store for the results/store subcommands.

    Returns ``(store, exit_code)`` — exactly one is meaningful.  No
    directory is created as a side effect of merely *inspecting* a store
    that does not exist yet.
    """
    from repro.runtime.store import RunStore, opt_in_directory

    directory = directory if directory is not None else opt_in_directory()
    if directory is None:
        out.write("Run store: disabled (REPRO_RUN_STORE=0)\n")
        return None, 0
    if not os.path.isdir(directory):
        out.write(f"Run store: empty (no store at {directory})\n")
        return None, 0
    return RunStore(directory), 0


def _store_rows_to_records(rows):
    """Rebuild :class:`RunRecord`-shaped entries from exported store rows."""
    from repro.runtime import BatchResult, RunRecord

    provenance = ("label", "seed", "kind", "package_version", "created_at")
    records = [
        RunRecord(
            label=row["label"],
            seed=row["seed"],
            kind=row["kind"],
            summary={k: v for k, v in row.items() if k not in provenance},
        )
        for row in rows
    ]
    return BatchResult(records=records)


def _command_results(arguments, out) -> int:
    import csv
    import json

    if arguments.out is not None and not (arguments.json or arguments.csv):
        out.write("error: --out needs --json or --csv\n")
        return 2
    store, exit_code = _open_store(arguments.dir, out)
    if store is None:
        return exit_code
    try:
        rows = store.rows(
            label=arguments.label, kind=arguments.kind, limit=arguments.limit
        )
    finally:
        store.close()
    if not rows:
        out.write("Run store: no rows match\n")
        return 0
    aggregate = (
        _store_rows_to_records(rows).aggregate() if arguments.aggregate else None
    )
    if arguments.json:
        document = {"rows": rows}
        if aggregate is not None:
            document["aggregate"] = aggregate
        text = json.dumps(document, indent=2)
        _write_export(text + "\n", arguments.out, out)
        return 0
    if arguments.csv:
        export = aggregate if aggregate is not None else rows
        columns: List[str] = []
        for row in export:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(export)
        _write_export(buffer.getvalue(), arguments.out, out)
        return 0
    if aggregate is not None:
        # Aggregate rows drop the per-seed provenance; group them by the
        # kind of their first underlying row.
        kind_of_label = {row["label"]: row["kind"] for row in reversed(rows)}
        out.write(f"{len(rows)} row(s), {len(aggregate)} label(s)\n")
        _write_kind_tables(
            aggregate, lambda row: kind_of_label.get(row["label"]), out
        )
        return 0
    out.write(f"{len(rows)} row(s)\n")
    _write_kind_tables(rows, lambda row: row.get("kind"), out)
    return 0


def _write_export(text, path, out) -> None:
    if path is None:
        out.write(text)
    else:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
        out.write(f"Wrote {path}\n")


def _command_store(arguments, out) -> int:
    import json

    store, exit_code = _open_store(arguments.dir, out)
    if store is None:
        return exit_code
    try:
        if arguments.clear:
            removed = store.clear()
            out.write(
                f"Cleared {removed} cell(s) from {store.directory}\n"
            )
            return 0
        if arguments.vacuum:
            report = store.vacuum()
            out.write(
                f"Vacuumed {store.directory}: removed "
                f"{report['orphan_blobs']} orphaned blob(s), "
                f"{report['stale_tmp_files']} stale temp file(s)\n"
            )
            return 0
        stats = store.store_stats()
    finally:
        store.close()
    if arguments.json:
        out.write(json.dumps(stats, indent=2) + "\n")
        return 0
    out.write(f"Run store directory: {stats['directory']}\n")
    out.write(f"Schema version: {stats['schema_version']}\n")
    out.write(f"Cells: {stats['cells']}")
    if stats["cells_by_kind"]:
        rendered = ", ".join(
            f"{kind}={count}" for kind, count in stats["cells_by_kind"].items()
        )
        out.write(f" ({rendered})")
    out.write(f"\nLabels: {stats['labels']}\n")
    out.write(
        f"Package versions: {', '.join(stats['package_versions']) or '-'}\n"
    )
    out.write(
        f"Database: {stats['database_bytes']} bytes; blobs: "
        f"{stats['blob_count']} file(s), {stats['blob_bytes']} bytes\n"
    )
    return 0


def _parse_serve_scenario(text: str) -> ScenarioConfig:
    """Resolve the ``serve --scenario`` value: a factory name or JSON file."""
    factories = {
        "fig1a": ScenarioConfig.fig1a,
        "fig1b": ScenarioConfig.fig1b,
        "small": ScenarioConfig.small,
    }
    if text in factories:
        return factories[text]()
    if os.path.isfile(text):
        import json

        with open(text, "r", encoding="utf-8") as handle:
            return ScenarioConfig.from_dict(json.load(handle))
    from repro.exceptions import ConfigurationError

    raise ConfigurationError(
        f"--scenario must be one of {tuple(sorted(factories))} or a JSON "
        f"file path, got {text!r}"
    )


def _command_serve(arguments, out) -> int:
    """Run the JSONL-over-TCP streaming service until interrupted."""
    from repro.exceptions import ReproError
    from repro.serve import DEFAULT_MAX_PENDING, run_server

    try:
        scenario = _parse_serve_scenario(arguments.scenario)
        workload = _parse_workload(arguments.workload)
        if workload is not None:
            scenario = scenario.with_overrides(workload=workload)
        specs = arguments.policy if arguments.policy else ["mdp"]
        if len(specs) == 1:
            policies = specs[0]
        elif len(specs) == 2:
            # Order the pair by role so --policy order does not matter.
            from repro.sim.engine import _role_of

            roles = [_role_of(spec) for spec in specs]
            if roles == ["service", "caching"]:
                specs = [specs[1], specs[0]]
            policies = tuple(specs)
        else:
            out.write("error: give one --policy, or two for a joint session\n")
            return 2

        def ready(host: str, port: int) -> None:
            out.write(f"serving {arguments.scenario} on {host}:{port}\n")
            out.flush()

        run_server(
            scenario,
            policies,
            kind=arguments.kind,
            metrics=arguments.metrics,
            service_batch=arguments.service_batch,
            max_pending=(
                arguments.max_pending
                if arguments.max_pending is not None
                else DEFAULT_MAX_PENDING
            ),
            num_slots=arguments.slots,
            host=arguments.host,
            port=arguments.port,
            ready_callback=ready,
        )
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2
    return 0


def _profiled(fn, out) -> int:
    """Run *fn* under cProfile and append the top-20 cumulative hotspots."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        exit_code = fn()
    finally:
        profiler.disable()
        out.write("\nTop 20 hotspots (cumulative time)\n")
        out.write("---------------------------------\n")
        pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(20)
    return exit_code


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    arguments = build_parser().parse_args(argv)
    if arguments.command == "list":
        return _command_list(out)
    if arguments.command == "run":
        if arguments.profile:
            return _profiled(lambda: _command_run(arguments, out), out)
        return _command_run(arguments, out)
    if arguments.command == "figures":
        return _command_figures(arguments, out)
    if arguments.command == "workloads":
        return _command_workloads(out)
    if arguments.command == "policies":
        return _command_policies(out)
    if arguments.command == "cache":
        return _command_cache(arguments, out)
    if arguments.command == "results":
        return _command_results(arguments, out)
    if arguments.command == "store":
        return _command_store(arguments, out)
    if arguments.command == "serve":
        return _command_serve(arguments, out)
    raise AssertionError(f"unhandled command {arguments.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
