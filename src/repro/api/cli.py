"""Command-line front door: ``python -m repro`` (or the ``repro`` script).

Subcommands
-----------
``list``
    Print the registered scenarios (name, engine, description).
``show <scenario>``
    Print a scenario's full spec as JSON (after any ``--set`` overrides).
``run <scenario> [--set key=value ...] [--json PATH] [--steps N]``
    Build the engine, run it, print a final-value summary and optionally
    write the full :class:`~repro.api.result.RunResult` as JSON.  With
    ``--checkpoint-dir`` the run streams snapshots to a
    :class:`~repro.store.RunStore` (cadence: ``--checkpoint-every``
    or the spec's ``runtime.checkpoint_every``), and ``--resume`` picks an
    interrupted run back up from its latest snapshot.
``batch [scenarios ...] [--all] [--workers N]``
    Execute several scenarios through the
    :class:`~repro.api.executor.ExecutionService` — sharded across worker
    processes, failures isolated per run, crashed runs resumed from their
    snapshots when checkpointing is enabled.
``serve --port P --workers N --checkpoint-dir DIR``
    Run the long-lived :class:`~repro.api.server.ScenarioServer` daemon:
    warm worker pool across requests, durable submission journal, graceful
    drain on SIGTERM, crash-resume on restart.
``submit <scenario> [--set key=value ...] [--wait]``
    Queue a run on a daemon; ``--wait`` blocks until it finishes and prints
    the usual run summary.
``status [run-id]`` / ``fetch <run-id> [--json PATH]`` / ``shutdown``
    Poll one run (or all of them), download a finished
    :class:`~repro.api.result.RunResult`, or stop the daemon.
``trace <run-id>``
    Render a run's telemetry span tree (queue wait, pool dispatch, worker
    execution, store saves, fleet hops) from ``GET /v1/runs/<id>/trace``;
    works against a daemon or the fleet router.
``fleet route/ls/status``
    Multi-daemon fleets over one shared state root: run the load-balancing
    router gateway (:class:`~repro.fleet.router.FleetRouter` — the same wire
    protocol as a single daemon, so every client above works against it
    unchanged), list membership records, or poll per-member queue depth.
``store ls/inspect/compact DIR``
    Maintain a checkpoint store root: list runs (format, snapshot counts,
    sizes), inspect one run's manifest, or compact (merge series segments,
    sweep unreferenced files, apply a ``--retention`` policy).
``analytics regress/bench/dashboard``
    Checks over the files runs and benchmarks write
    (:mod:`repro.analytics`): conservation/cohort regression gates over
    RunResult JSON (``run``/``batch --json`` output, a daemon's
    ``results/``), bench-metric trajectories from
    ``benchmarks/results/history.ndjson``, and a daemon/store stats
    dashboard (live via ``/v1/stats`` or from an offline scan).

Exit codes
----------
Every subcommand follows one convention (:mod:`repro.store.cliutil`):

* ``0`` — success.
* ``1`` — the operation ran and found what it looked for: a failed run
  (``run``/``batch``/``submit --wait``/``fetch``) or a tripped regression
  gate (``analytics regress``).
* ``2`` — usage or state errors: bad arguments, unknown scenarios/runs,
  corrupt stores, missing result files.
* ``3`` — a daemon was needed but unreachable, or a ``--wait``/``--timeout``
  deadline expired.

``--json`` behaves the same everywhere it appears: it takes an optional
path (``--json out.json``), and a bare ``--json`` writes the document to
stdout (equivalent to ``--json -``).

Examples
--------
::

    python -m repro --version
    python -m repro list
    python -m repro run quickstart-tddft --set runtime.num_steps=5 --json out.json
    python -m repro run mlmd-photoswitch --checkpoint-dir ckpts --checkpoint-every 25
    python -m repro run mlmd-photoswitch --checkpoint-dir ckpts --resume
    python -m repro batch --all --workers 4 --json batch.json
    python -m repro serve --port 8642 --workers 4 --checkpoint-dir serve-state
    python -m repro submit maxwell-vacuum --set runtime.num_steps=30 --wait
    python -m repro status && python -m repro fetch r000000 --json out.json
    python -m repro analytics regress batch.json serve-state/results md-nve \
        --series total_energy --tier loose || echo "regression!"
    python -m repro analytics bench benchmarks/results/history.ndjson
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.api.client import ServeClient, ServeError, ServeUnavailable
from repro.api.engine import CheckpointError
from repro.api.executor import ExecutionService
from repro.api.registry import default_registry
from repro.api.result import RunResult
from repro.api.server import DEFAULT_PORT, ScenarioServer
from repro.api.spec import ScenarioSpec, parse_assignments
from repro.store import RunStore


def _package_version() -> str:
    import repro

    return repro.__version__


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path spec override, e.g. runtime.num_steps=5")


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="P",
                        help=f"daemon port (default {DEFAULT_PORT})")


def _add_json_arg(parser: argparse.ArgumentParser, what: str) -> None:
    """The one ``--json`` shape every subcommand shares: an optional PATH,
    with a bare ``--json`` meaning stdout (``-``)."""
    parser.add_argument("--json", dest="json_path", nargs="?", const="-",
                        default=None, metavar="PATH",
                        help=f"write {what} as JSON to PATH "
                             "(default with no PATH: stdout)")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="stream snapshots to a CheckpointStore rooted here")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="snapshot cadence in steps (default: the spec's "
                             "runtime.checkpoint_every)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the latest snapshot in --checkpoint-dir "
                             "instead of starting over")
    parser.add_argument("--keep", type=int, default=0, metavar="N",
                        help="snapshots retained per run (0 = all)")
    parser.add_argument("--retention", default=None, metavar="SPEC",
                        help="snapshot retention policy, e.g. "
                             "'keep=3,every=100,max-age=7d,max-bytes=1G'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the MLMD reproduction's simulation scenarios "
                    "from declarative specs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered scenarios")

    show = sub.add_parser("show", help="print one scenario spec as JSON")
    show.add_argument("scenario", help="registered scenario name")
    _add_override_args(show)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario", help="registered scenario name")
    _add_override_args(run)
    _add_json_arg(run, "the full RunResult")
    run.add_argument("--steps", type=int, default=None,
                     help="shorthand for --set runtime.num_steps=N")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the human-readable summary")
    _add_checkpoint_args(run)
    run.add_argument("--run-id", default="default", metavar="ID",
                     help="checkpoint-store key of this run (default: 'default')")

    batch = sub.add_parser(
        "batch",
        help="run several scenarios through the parallel ExecutionService",
    )
    batch.add_argument("scenarios", nargs="*",
                       help="registered scenario names (repeat a name to run "
                            "it twice)")
    batch.add_argument("--all", action="store_true",
                       help="run every registered scenario")
    batch.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker process count (0 = inline, default)")
    batch.add_argument("--backend", default="process",
                       choices=["process", "thread"],
                       help="worker pool backend (default process; thread "
                            "shares one thread-safe kernel workspace)")
    batch.add_argument("--max-retries", type=int, default=1, metavar="N",
                       help="retries per failed run before giving up (default 1)")
    _add_override_args(batch)
    _add_json_arg(batch, "all outcomes (an array)")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress the per-run summary table")
    _add_checkpoint_args(batch)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived scenario daemon (warm worker pool, durable "
             "queue, crash-resume on restart)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="P",
                       help=f"TCP port (default {DEFAULT_PORT}; 0 = pick a "
                            "free one)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="persistent worker process count (0 = inline, "
                            "default 1)")
    serve.add_argument("--backend", default="process",
                       choices=["process", "thread"],
                       help="worker pool backend (default process)")
    serve.add_argument("--batch-max", type=int, default=1, metavar="M",
                       help="coalesce up to M queued same-shape submissions "
                            "into one vectorized worker call (default 1 = "
                            "no batching)")
    serve.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                       help="state root: checkpoint store, submission journal "
                            "and persisted results (makes the daemon "
                            "restartable)")
    serve.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="default snapshot cadence for submissions that "
                            "do not name one")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="bound of the FIFO submission queue (default 64)")
    serve.add_argument("--max-retries", type=int, default=1, metavar="N",
                       help="per-run resume-from-snapshot retries (default 1)")
    serve.add_argument("--keep", type=int, default=0, metavar="N",
                       help="snapshots retained per run (0 = all)")
    serve.add_argument("--retention", default=None, metavar="SPEC",
                       help="retention policy for snapshots AND persisted "
                            "results (pruned on startup replay), e.g. "
                            "'keep=50,max-age=7d,max-bytes=1G'; every=K "
                            "terms apply to snapshot steps only")
    serve.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                       help="seconds a run's ownership lease outlives its "
                            "last checkpoint; governs how quickly another "
                            "daemon sharing the state root may take over a "
                            "crashed daemon's runs (default 60)")
    serve.add_argument("--steal-interval", type=float, default=None,
                       metavar="S",
                       help="enable fleet work stealing: scan the shared "
                            "journal every S seconds for orphaned runs "
                            "(dead/absent owners) and adopt them onto idle "
                            "worker slots (default: off)")
    serve.add_argument("--fleet-ttl", type=float, default=None, metavar="S",
                       help="seconds this daemon's fleet-membership record "
                            "stays live past its last heartbeat (default 15)")

    fleet = sub.add_parser(
        "fleet",
        help="multi-daemon fleet: router gateway, membership listing, "
             "per-member status",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_route = fleet_sub.add_parser(
        "route", help="run the fleet router: one address that load-balances "
                      "submissions across every daemon sharing a state root "
                      "and proxies status/result/events with failover")
    fleet_route.add_argument("--root", required=True, metavar="DIR",
                             help="the fleet's shared state root (the "
                                  "daemons' --checkpoint-dir)")
    fleet_route.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
    fleet_route.add_argument("--port", type=int, default=None, metavar="P",
                             help="TCP port (default: daemon default + 1; "
                                  "0 = pick a free one)")
    fleet_route.add_argument("--stats-ttl", type=float, default=1.0,
                             metavar="S",
                             help="seconds a member's queue-depth snapshot "
                                  "stays cached (default 1)")
    fleet_ls = fleet_sub.add_parser(
        "ls", help="list the fleet's membership records (live + stale)")
    fleet_ls.add_argument("root", metavar="DIR",
                          help="the fleet's shared state root")
    fleet_ls.add_argument("--json", dest="as_json", action="store_true",
                          help="print machine-readable JSON")
    fleet_status = fleet_sub.add_parser(
        "status", help="live fleet overview: membership plus per-member "
                       "queue depth (polls each member's /v1/stats)")
    fleet_status.add_argument("root", metavar="DIR",
                              help="the fleet's shared state root")
    fleet_status.add_argument("--json", dest="as_json", action="store_true",
                              help="print machine-readable JSON")

    store = sub.add_parser(
        "store",
        help="inspect and maintain checkpoint stores (ls / inspect / "
             "compact)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list the runs under a store root")
    store_ls.add_argument("root", help="checkpoint store root directory")
    store_ls.add_argument("scenario", nargs="?", default=None,
                          help="restrict to one scenario")
    store_ls.add_argument("--json", dest="as_json", action="store_true",
                          help="print machine-readable JSON")
    store_inspect = store_sub.add_parser(
        "inspect", help="show one run's manifest summary + integrity check")
    store_inspect.add_argument("root", help="checkpoint store root directory")
    store_inspect.add_argument("scenario", help="scenario name")
    store_inspect.add_argument("run_id", help="run id")
    store_compact = store_sub.add_parser(
        "compact", help="merge series segments, sweep unreferenced files, "
                        "optionally apply a retention policy")
    store_compact.add_argument("root", help="checkpoint store root directory")
    store_compact.add_argument("--scenario", default=None,
                               help="compact only this scenario's runs")
    store_compact.add_argument("--retention", default=None, metavar="SPEC",
                               help="also prune snapshots by this policy")

    analytics = sub.add_parser(
        "analytics",
        help="checks over result files: regress / bench / dashboard",
    )
    an_sub = analytics.add_subparsers(dest="analytics_command", required=True)
    an_regress = an_sub.add_parser(
        "regress", help="cross-run regression gate: exits 1 when any "
                        "conservation/cohort violation exists (CI-friendly)")
    an_regress.add_argument("paths", nargs="+", metavar="PATH",
                            help="RunResult JSON files (a bare result, a "
                                 "batch array, a serve outcome) or "
                                 "directories of them")
    an_regress.add_argument("scenario", help="scenario whose runs to check")
    an_regress.add_argument("--series", action="append", default=[],
                            metavar="NAME",
                            help="conservation check: this observable "
                                 "(or its per-record <name>.l2/.mean/.absmax) "
                                 "must stay flat within the tier "
                                 "(repeatable)")
    an_regress.add_argument("--cohort", action="append", default=[],
                            metavar="COL",
                            help="cohort check: this run summary "
                                 "(obs.<name>.mean/absmax/l2/final) must "
                                 "stay within the tier band of the cohort "
                                 "median (repeatable)")
    an_regress.add_argument("--tier", default="standard",
                            choices=["exact", "standard", "loose"],
                            help="tolerance tier (default standard)")
    an_regress.add_argument("--json", dest="as_json", action="store_true",
                            help="print violations as JSON")
    an_bench = an_sub.add_parser(
        "bench", help="repro-bench/1 metric trajectories over a bench "
                      "history")
    an_bench.add_argument("history", help="history.ndjson file (one "
                                          "repro-bench/1 document per line)")
    an_bench.add_argument("--bench", default=None,
                          help="restrict to one bench name")
    an_bench.add_argument("--metric", default=None,
                          help="restrict to one payload metric")
    an_bench.add_argument("--json", dest="as_json", action="store_true",
                          help="print trajectories as JSON")
    an_dash = an_sub.add_parser(
        "dashboard", help="stats snapshot: live /v1/stats from a daemon, or "
                          "an offline scan of a serve root")
    an_dash.add_argument("root", nargs="?", default=None,
                         help="serve state root to scan offline")
    an_dash.add_argument("--live", action="store_true",
                         help="query a running daemon's /v1/stats instead "
                              "of scanning disk")
    _add_client_args(an_dash)
    an_dash.add_argument("--json", dest="as_json", action="store_true",
                         help="print the raw stats snapshot as JSON")

    submit = sub.add_parser("submit", help="queue a run on a serve daemon")
    submit.add_argument("scenario", help="registered scenario name")
    _add_override_args(submit)
    _add_client_args(submit)
    submit.add_argument("--run-id", default=None, metavar="ID",
                        help="run id to request (default: daemon-assigned)")
    submit.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N", help="snapshot cadence for this run")
    submit.add_argument("--wait", action="store_true",
                        help="block until the run finishes and print its "
                             "summary")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up on --wait after S seconds")
    _add_json_arg(submit, "the RunResult (with --wait)")
    submit.add_argument("--quiet", action="store_true",
                        help="print only the run id")

    status = sub.add_parser("status", help="poll a serve daemon's runs")
    status.add_argument("run_id", nargs="?", default=None,
                        help="run id (default: list every run + health)")
    _add_client_args(status)
    _add_json_arg(status, "the status document")

    fetch = sub.add_parser("fetch", help="download one finished run's result")
    fetch.add_argument("run_id", help="run id to fetch")
    _add_client_args(fetch)
    fetch.add_argument("--wait", action="store_true",
                       help="poll until the run finishes instead of failing "
                            "while it is pending")
    fetch.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="give up on --wait after S seconds")
    _add_json_arg(fetch, "the RunResult")
    fetch.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    trace = sub.add_parser(
        "trace", help="render one run's telemetry span tree (queue wait, "
                      "worker execution, store saves, fleet hops)")
    trace.add_argument("run_id", help="run id whose trace to render")
    _add_client_args(trace)
    _add_json_arg(trace, "the raw span records")

    shutdown = sub.add_parser("shutdown", help="stop a serve daemon")
    _add_client_args(shutdown)
    shutdown.add_argument("--no-drain", action="store_true",
                          help="do not wait for in-flight runs (they resume "
                               "from their snapshots on the next daemon)")
    return parser


def _resolve_spec(name: str, overrides: List[str]) -> ScenarioSpec:
    spec = default_registry().get(name)
    assignments = parse_assignments(overrides)
    if assignments:
        spec = spec.with_overrides(assignments)
    return spec


def _cmd_list() -> int:
    registry = default_registry()
    rows = [(spec.name, spec.engine, spec.description) for spec in registry]
    width_name = max(len(r[0]) for r in rows)
    width_engine = max(len(r[1]) for r in rows)
    print(f"{len(rows)} registered scenarios:")
    for name, engine, description in rows:
        print(f"  {name:<{width_name}}  {engine:<{width_engine}}  {description}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.scenario, args.overrides)
    print(spec.to_json())
    return 0


def _print_run_summary(result: RunResult) -> None:
    print(f"scenario : {result.scenario}  (engine: {result.engine})")
    print(f"records  : {result.num_records} samples to t = {result.times[-1]:.4g}")
    executor_meta = result.metadata.get("executor") or {}
    if executor_meta.get("resumed_from_step") is not None:
        print(f"resumed  : from step {executor_meta['resumed_from_step']}")
    for key, value in result.summary().items():
        if key in ("scenario", "engine", "final_time"):
            continue
        print(f"  {key:<24} {value:.6g}")


def _write_json(text: str, path: str, quiet: bool) -> None:
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    if not quiet:
        print(f"wrote {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = list(args.overrides)
    if args.steps is not None:
        overrides.append(f"runtime.num_steps={args.steps}")
    spec = _resolve_spec(args.scenario, overrides)
    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    if args.resume:
        # Existence check only (steps() is a manifest lookup): checkpoints
        # are complete sessions and can be large — the executor parses the
        # real payload exactly once, on the resume path itself.
        if not RunStore(args.checkpoint_dir).steps(spec.name, args.run_id):
            raise ValueError(
                f"--resume: no checkpoint for scenario {spec.name!r} run "
                f"{args.run_id!r} under {args.checkpoint_dir!r}; drop "
                "--resume to start fresh"
            )

    # A single run is a one-spec batch through the inline executor, which
    # owns all the checkpoint-store / resume bookkeeping.
    service = ExecutionService(
        workers=0,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_retries=0,
        keep=args.keep,
        retention=args.retention,
    )
    outcome = service.run([spec], run_ids=[args.run_id], resume=args.resume)[0]
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    if not args.quiet and args.json_path != "-":
        _print_run_summary(outcome)
    if args.json_path:
        _write_json(outcome.to_json(), args.json_path, args.quiet)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    registry = default_registry()
    names = list(args.scenarios)
    if args.all:
        names.extend(n for n in registry.names() if n not in names)
    if not names:
        raise ValueError("batch needs scenario names (or --all)")
    assignments = parse_assignments(args.overrides)
    specs = []
    for name in names:
        spec = registry.get(name)
        if assignments:
            spec = spec.with_overrides(assignments)
        specs.append(spec)

    service = ExecutionService(
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_retries=args.max_retries,
        keep=args.keep,
        retention=args.retention,
        backend=args.backend,
    )
    outcomes = service.run(specs, resume=args.resume)

    failures = sum(1 for outcome in outcomes if not outcome.ok)
    if not args.quiet and args.json_path != "-":
        width = max(len(n) for n in names)
        for name, outcome in zip(names, outcomes):
            if outcome.ok:
                print(f"  {name:<{width}}  ok      "
                      f"{outcome.num_records} records to t = {outcome.times[-1]:.4g}")
            else:
                print(f"  {name:<{width}}  FAILED  {outcome.error} "
                      f"(attempts: {outcome.attempts})")
    if args.json_path:
        payload = json.dumps([outcome.to_dict() for outcome in outcomes])
        _write_json(payload, args.json_path, args.quiet)
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    server = ScenarioServer(
        root=args.checkpoint_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        checkpoint_every=args.checkpoint_every,
        max_retries=args.max_retries,
        keep=args.keep,
        retention=args.retention,
        steal_interval=args.steal_interval,
        batch_max=args.batch_max,
        backend=args.backend,
        **({"lease_ttl": args.lease_ttl} if args.lease_ttl is not None else {}),
        **({"fleet_ttl": args.fleet_ttl} if args.fleet_ttl is not None else {}),
    )
    server.start()
    # The flush matters: supervisors (and the test harness) parse this line
    # from a pipe to learn the bound port before the first submission.
    print(f"repro serve: listening on {server.host}:{server.port} "
          f"(workers: {server.pool.workers}, state: {server.root})",
          flush=True)
    server.serve_forever()  # installs SIGTERM/SIGINT drain, blocks until stopped
    return 0


def _client(args: argparse.Namespace) -> ServeClient:
    return ServeClient(host=args.host, port=args.port)


def _print_outcome(outcome, args) -> int:
    if not outcome.ok:
        print(f"error: run failed after {outcome.attempts} attempt(s): "
              f"{outcome.error}", file=sys.stderr)
        # --json is honoured on failure too (the RunFailure document), so
        # scripted callers always get a parseable artefact + exit code 1.
        if getattr(args, "json_path", None):
            _write_json(json.dumps(outcome.to_dict(), indent=2),
                        args.json_path, quiet=True)
        return 1
    # Bare --json streams to stdout, which must then be pure JSON: the human
    # summary would corrupt every `repro fetch --json | jq` pipeline.
    if not args.quiet and getattr(args, "json_path", None) != "-":
        _print_run_summary(outcome)
    if getattr(args, "json_path", None):
        _write_json(outcome.to_json(), args.json_path, args.quiet)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.scenario, args.overrides)
    client = _client(args)
    ack = client.submit(spec, run_id=args.run_id,
                        checkpoint_every=args.checkpoint_every)
    run_id = ack["run_id"]
    if args.quiet:
        print(run_id)
    else:
        print(f"submitted {args.scenario} as run {run_id} "
              f"(queue position {ack.get('position', '?')})")
    if not args.wait:
        return 0
    outcome = client.wait(run_id, timeout=args.timeout)
    return _print_outcome(outcome, args)


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.run_id is not None:
        record = client.status(args.run_id)
        payload = record
        if args.json_path is None:
            for key in ("run_id", "scenario", "engine", "status", "attempts",
                        "worker_pid", "resumed_from_step", "error"):
                if record.get(key) is not None:
                    print(f"  {key:<18} {record[key]}")
    else:
        health = client.health()
        runs = client.runs()
        payload = {"health": health, "runs": runs}
        if args.json_path is None:
            print(f"daemon at {args.host}:{args.port}: "
                  f"{health['queued']} queued, {health['running']} running, "
                  f"{health['done']} done, {health['failed']} failed "
                  f"(workers: {health['workers']}, "
                  f"uptime: {health['uptime_s']:.0f}s)")
            for record in runs:
                print(f"  {record['run_id']:<12} {record['scenario']:<22} "
                      f"{record['status']}")
    if args.json_path is not None:
        _write_json(json.dumps(payload, indent=2), args.json_path, quiet=True)
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.wait:
        outcome = client.wait(args.run_id, timeout=args.timeout)
    else:
        outcome = client.result(args.run_id)
    return _print_outcome(outcome, args)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import cli as store_cli

    if args.store_command == "ls":
        return store_cli.cmd_ls(args.root, scenario=args.scenario,
                                as_json=args.as_json)
    if args.store_command == "inspect":
        return store_cli.cmd_inspect(args.root, args.scenario, args.run_id)
    assert args.store_command == "compact"
    return store_cli.cmd_compact(args.root, scenario=args.scenario,
                                 retention=args.retention)


def _cmd_analytics(args: argparse.Namespace) -> int:
    from repro.analytics import cli as analytics_cli

    if args.analytics_command == "regress":
        return analytics_cli.cmd_regress(
            args.paths, args.scenario, series=args.series,
            tier=args.tier, cohort=args.cohort, as_json=args.as_json,
        )
    if args.analytics_command == "bench":
        return analytics_cli.cmd_bench(args.history, bench=args.bench,
                                       metric=args.metric,
                                       as_json=args.as_json)
    assert args.analytics_command == "dashboard"
    return analytics_cli.cmd_dashboard(
        serve_root=args.root,
        host=args.host if args.live else None,
        port=args.port if args.live else None,
        as_json=args.as_json,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import DEFAULT_ROUTER_PORT, FleetRegistry, FleetRouter

    if args.fleet_command == "route":
        router = FleetRouter(
            root=args.root,
            host=args.host,
            port=DEFAULT_ROUTER_PORT if args.port is None else args.port,
            stats_ttl=args.stats_ttl,
        )
        router.start()
        # Same contract as `repro serve`: supervisors parse this line from a
        # pipe to learn the bound port before the first request.
        print(f"repro fleet route: listening on {router.host}:{router.port} "
              f"(root: {router.root})", flush=True)
        router.serve_forever()
        return 0

    if args.fleet_command == "ls":
        members = FleetRegistry(args.root).members(include_stale=True)
        if args.as_json:
            print(json.dumps({"members": members}, indent=2))
            return 0
        if not members:
            print(f"no fleet members registered under {args.root}")
            return 0
        width = max(len(str(m.get("member_id", "?"))) for m in members)
        print(f"{len(members)} fleet member(s) under {args.root}:")
        for member in members:
            state = "stale" if member.get("stale") else "live"
            print(f"  {str(member.get('member_id', '?')):<{width}}  "
                  f"{member.get('host', '?')}:{member.get('port', '?')}  "
                  f"{state:<5}  workers: {member.get('workers', '?')}  "
                  f"pid: {member.get('pid', '?')}")
        return 0

    assert args.fleet_command == "status"
    # An unstarted router instance is just a fleet client: membership from
    # the registry, queue depth from each live member's /v1/stats.
    overview = FleetRouter(root=args.root).fleet_overview()
    if args.as_json:
        print(json.dumps(overview, indent=2))
        return 0
    members = overview["members"]
    if not members:
        print(f"no fleet members registered under {args.root}")
        return 0
    width = max(len(str(m.get("member_id", "?"))) for m in members)
    print(f"{len(members)} fleet member(s) under {args.root}:")
    for member in members:
        if member.get("stale"):
            state = "stale"
        elif not member.get("reachable"):
            state = "unreachable"
        else:
            state = "live"
        depth = member.get("queue_depth")
        depth_text = "-" if depth is None else f"{depth:g}"
        print(f"  {str(member.get('member_id', '?')):<{width}}  "
              f"{member.get('host', '?')}:{member.get('port', '?')}  "
              f"{state:<11}  depth: {depth_text}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import telemetry

    payload = _client(args).trace(args.run_id)
    if args.json_path is not None:
        _write_json(json.dumps(payload, indent=2), args.json_path, quiet=True)
        return 0
    spans = payload.get("spans") or []
    print(f"run {payload.get('run_id')} "
          f"[{payload.get('scenario', '?')}]: {len(spans)} span(s)")
    print(telemetry.render_tree(spans))
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    ack = _client(args).shutdown(drain=not args.no_drain)
    print(f"daemon at {args.host}:{args.port} stopping "
          f"({'draining in-flight runs' if ack.get('draining') else 'immediate'})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "list": lambda: _cmd_list(),
        "show": lambda: _cmd_show(args),
        "batch": lambda: _cmd_batch(args),
        "run": lambda: _cmd_run(args),
        "serve": lambda: _cmd_serve(args),
        "submit": lambda: _cmd_submit(args),
        "status": lambda: _cmd_status(args),
        "fetch": lambda: _cmd_fetch(args),
        "trace": lambda: _cmd_trace(args),
        "shutdown": lambda: _cmd_shutdown(args),
        "fleet": lambda: _cmd_fleet(args),
        "store": lambda: _cmd_store(args),
        "analytics": lambda: _cmd_analytics(args),
    }
    try:
        return commands[args.command]()
    except (KeyError, ValueError, CheckpointError) as exc:
        # str(KeyError) is the repr of its message; unwrap for clean output.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (ServeError, ServeUnavailable, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
