"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    Enumerate every reproducible artifact id.
``repro run fig2a [--fast] [--out DIR]``
    Reproduce one artifact (or a whole group like ``fig2``) and print
    the series and shape-check verdicts; non-zero exit if a check fails.
``repro all [--fast]``
    The full reproduction sweep.
``repro chaos [sweep] [--fast] [--dropout F] [--outliers F]``
    Fault-injection sweep: model degradation under monitor faults plus
    a placement-resilience run with flaky migrations.  ``--seed N``
    pins the placement seed and ``--plan-out PLAN.json`` captures the
    concrete fault schedule as a replayable plan.
``repro chaos fuzz [--seed N] [--runs N] [--out-dir DIR]``
    Deterministic chaos-fuzz campaign: sample fault plans across every
    fault surface, execute them through the sim/serve/worker stacks,
    check the invariant oracles, shrink any violation to a minimal
    replayable plan, and write a ``resilience.json`` scorecard.
``repro chaos replay PLAN.json``
    Re-execute a captured or fuzzed fault plan bit-identically and
    re-check the oracles; exit 1 if any invariant fails.
``repro chaos shrink PLAN.json [--out FILE]``
    Delta-debug a failing plan down to a minimal plan that still
    violates the same oracle(s).
``repro lint [paths ...]``
    Determinism/correctness static analysis (REPxxx rules) over the
    source tree; nonzero exit on any violation.
``repro cache stats|clear [--cache-dir DIR]``
    Inspect or empty the content-addressed result cache.
``repro runs status|resume|gc DIR``
    Inspect, continue, or clean a crash-safe run directory.
``repro fleet [--pms N] [--vms N] [--clients N] [--shards N] [--fast]``
    Datacenter-scale VOA-vs-VOU experiment over the sharded fleet
    simulator with streaming per-cell aggregation; artifacts are
    byte-identical at any ``--shards`` value and serial vs ``--jobs``.
``repro obs summary|export|spans [--obs-dir DIR]``
    Inspect an observability directory written by ``--obs-dir``:
    ``summary`` prints per-source span/error/wall totals plus counter
    totals (``--require sim,executor`` exits 1 if a source is absent),
    ``export`` re-emits the validated OpenMetrics exposition, and
    ``spans`` lists recorded spans (``--source``, ``--limit``).

``repro run`` and ``repro chaos`` accept ``--sanitize`` to attach the
runtime determinism sanitizer (event tie-break assertions, per-stream
RNG draw accounting, NaN guards on training inputs).  ``repro run``,
``repro all``, ``repro report`` and ``repro fleet`` accept ``--jobs N``
(parallel cell
execution over the warm process pool; 0 = all CPUs), ``--chunk N``
(cells per worker task; 0 = cost-model default) and ``--cache-dir DIR``
(content-addressed result cache) -- all preserve byte-identical
output -- plus the
crash-safety options: ``--run-dir DIR`` records a checkpointed run
manifest, ``--resume DIR`` restores completed cells from one, and
``--cell-deadline`` / ``--cell-attempts`` tune the supervisor.
``--obs-dir DIR`` attaches the observability layer (metrics + spans)
and exports it there after the run.  It only observes: the run steps
the same quanta and monitor ticks as a plain run, and its output is
byte-identical.  Wall-time benchmarking is not a subcommand; it lives
in ``python3 perfbench/run.py``.

Exit codes for the experiment commands: 0 when everything succeeded
(including cells that needed retries -- those print a warning
summary), 1 on shape-check failures, 2 on usage errors, 3 when cells
failed permanently despite supervision (re-run with ``--resume`` after
fixing the cause).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments import runner
from repro.experiments.base import ExperimentResult
from repro.lint import cli as lint_cli
from repro.sim import sanitize

#: Default cache location of ``repro cache`` when ``--cache-dir`` is
#: not given (matches what most runs pass to ``--cache-dir``).
DEFAULT_CACHE_DIR = Path(".repro-cache")

#: Default directory of ``repro obs`` when ``--obs-dir`` is not given.
DEFAULT_OBS_DIR = Path(".repro-obs")


def _write_out(results: List[ExperimentResult], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        (out_dir / f"{res.experiment_id}.txt").write_text(res.render() + "\n")
        if res.series:
            # Long-format CSV so differently-shaped series (sweeps, CDF
            # curves) coexist in one file per artifact.
            lines = ["series,x,y"]
            for s in res.series:
                for x, y in zip(s.x, s.y):
                    lines.append(f"{s.label},{x:.9g},{y:.9g}")
            (out_dir / f"{res.experiment_id}.csv").write_text(
                "\n".join(lines) + "\n"
            )


def _report(results: List[ExperimentResult], out: Optional[Path]) -> int:
    for res in results:
        print(res.render())
        print()
    if out is not None:
        _write_out(results, out)
    failed = [r for r in results if not r.passed]
    if failed:
        ids = ", ".join(r.experiment_id for r in failed)
        print(f"FAILED shape checks in: {ids}", file=sys.stderr)
        return 1
    print(f"All shape checks passed ({len(results)} artifact(s)).")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Profiling and Understanding "
            "Virtualization Overhead in Cloud' (ICPP 2015)"
        ),
        epilog=(
            "common workflows: 'repro run fig2 --fast' (one artifact), "
            "'repro all' (full sweep), 'repro validate' (model fit "
            "quality), 'repro chaos' (fault injection), 'repro lint src' "
            "(determinism static analysis; see 'repro lint --list-rules'). "
            "Add --sanitize to run/chaos for runtime determinism checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all reproducible artifact ids")

    run_p = sub.add_parser("run", help="reproduce one artifact or group")
    run_p.add_argument("id", help="artifact id (fig2a) or group id (fig2)")
    run_p.add_argument(
        "--fast",
        action="store_true",
        help="shrink durations/trials for a quick smoke run",
    )
    run_p.add_argument(
        "--out", type=Path, default=None, help="directory to write reports"
    )
    run_p.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime determinism sanitizer (tie-break "
        "assertions, RNG draw accounting, NaN guards)",
    )
    _add_perf_options(run_p)

    all_p = sub.add_parser("all", help="reproduce every table and figure")
    all_p.add_argument("--fast", action="store_true")
    all_p.add_argument("--out", type=Path, default=None)
    _add_perf_options(all_p)

    report_p = sub.add_parser(
        "report", help="run everything and write EXPERIMENTS.md"
    )
    report_p.add_argument("--fast", action="store_true")
    report_p.add_argument(
        "--out", type=Path, default=Path("EXPERIMENTS.md"),
        help="output markdown file (default: EXPERIMENTS.md)",
    )
    _add_perf_options(report_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_p.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry/hit counts; clear: delete every entry",
    )
    cache_p.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )

    runs_p = sub.add_parser(
        "runs",
        help="inspect, continue, or clean a crash-safe run directory "
        "(--run-dir)",
    )
    runs_p.add_argument(
        "action", choices=("status", "resume", "gc"),
        help="status: cell ledger summary; resume: re-issue the "
        "recorded command with --resume; gc: drop orphaned/stale "
        "checkpoints",
    )
    runs_p.add_argument(
        "dir", type=Path, help="run directory written by --run-dir"
    )

    fleet_p = sub.add_parser(
        "fleet",
        help="datacenter-scale VOA-vs-VOU sweep over the sharded fleet "
        "simulator (streaming aggregation, shard-count-invariant output)",
    )
    fleet_p.add_argument(
        "--pms", type=int, default=None, metavar="N",
        help="physical machines in the fleet (default 1000)",
    )
    fleet_p.add_argument(
        "--vms", type=int, default=None, metavar="N",
        help="virtual machines to deploy (default 10000)",
    )
    fleet_p.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="peak open-loop client population (default 100000)",
    )
    fleet_p.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="simulated seconds per trial (default 300)",
    )
    fleet_p.add_argument(
        "--epoch", type=float, default=None, metavar="S",
        help="cross-shard barrier epoch length (default 10)",
    )
    fleet_p.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="event-queue shards the PMs are partitioned over; any "
        "value produces byte-identical output (default 1)",
    )
    fleet_p.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="seeds per strategy (default 2)",
    )
    fleet_p.add_argument(
        "--seed", type=int, default=2015,
        help="master seed of trial 0 (default 2015)",
    )
    fleet_p.add_argument(
        "--fast", action="store_true",
        help="smoke scale: 24 PMs, 240 VMs, 20k clients, one trial",
    )
    fleet_p.add_argument(
        "--out", type=Path, default=None,
        help="directory to write reports",
    )
    fleet_p.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime determinism sanitizer",
    )
    _add_perf_options(fleet_p)

    validate_p = sub.add_parser(
        "validate",
        help="train the overhead model and print fit quality + "
        "cross-validated RMSE",
    )
    validate_p.add_argument("--fast", action="store_true")

    chaos_p = sub.add_parser(
        "chaos",
        help="fault injection: sweep (default), seed-driven fuzzing with "
        "invariant oracles, plan replay, and failing-plan shrinking",
    )
    chaos_p.add_argument(
        "action",
        nargs="?",
        default="sweep",
        choices=("sweep", "fuzz", "replay", "shrink"),
        help="sweep: degradation + resilience experiments (default); "
        "fuzz: randomized fault campaigns judged by invariant oracles; "
        "replay PLAN.json: re-execute a plan bit-identically; "
        "shrink PLAN.json: minimize a failing plan",
    )
    chaos_p.add_argument(
        "plan", nargs="?", type=Path, default=None,
        help="fault plan file (replay/shrink)",
    )
    chaos_p.add_argument("--fast", action="store_true")
    chaos_p.add_argument(
        "--dropout", type=float, default=None,
        help="probe a single monitor-dropout probability instead of the "
        "default sweep",
    )
    chaos_p.add_argument(
        "--outliers", type=float, default=None,
        help="outlier-corruption probability for the single probed level "
        "(default 0)",
    )
    chaos_p.add_argument("--out", type=Path, default=None)
    chaos_p.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime determinism sanitizer",
    )
    chaos_p.add_argument(
        "--seed", type=int, default=None,
        help="sweep: placement seed of the chaosb scenario; "
        "fuzz: campaign master seed (default 2015)",
    )
    chaos_p.add_argument(
        "--plan-out", type=Path, default=None,
        help="write the concrete fault schedule as a replayable plan",
    )
    chaos_p.add_argument(
        "--runs", type=int, default=4,
        help="fuzz: scenarios per campaign (default 4)",
    )
    chaos_p.add_argument(
        "--out-dir", type=Path, default=Path(".repro-chaos"),
        help="fuzz: campaign artifact directory (plans/, repros/, "
        "resilience.json; default .repro-chaos)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="online overhead-prediction service: crash-safe ingest, "
        "drift-aware refitting, versioned model registry",
    )
    serve_p.add_argument(
        "action", choices=("run", "query", "status", "rollback"),
        help="run: replay a deterministic client swarm against the "
        "service; query: answer one placement query from the promoted "
        "registry; status: stream/registry/stats digest; rollback: "
        "revert one PM to its previous promoted version",
    )
    serve_p.add_argument(
        "--state-dir", type=Path, required=True, metavar="DIR",
        help="service state directory (WAL + model registry); a "
        "SIGKILL'd run resumes from it byte-identically",
    )
    serve_p.add_argument(
        "--pms", type=int, default=3, metavar="N",
        help="fleet size of the synthetic trace (default 3)",
    )
    serve_p.add_argument(
        "--ticks", type=int, default=240, metavar="N",
        help="trace length in sim seconds (default 240)",
    )
    serve_p.add_argument(
        "--queries-per-tick", type=int, default=2, metavar="N",
        help="placement queries issued per tick (default 2)",
    )
    serve_p.add_argument(
        "--seed", type=int, default=0,
        help="master seed of the named trace/query streams",
    )
    serve_p.add_argument(
        "--drift-at", type=int, default=0, metavar="TICK",
        help="tick of the planted-coefficient regime shift (0 = none)",
    )
    serve_p.add_argument(
        "--drift-scale", type=float, default=1.6,
        help="coefficient multiplier applied at the shift (default 1.6)",
    )
    serve_p.add_argument(
        "--stop-after-tick", type=int, default=None, metavar="TICK",
        help="abandon the drive after TICK without draining (models a "
        "crash deterministically; re-run to resume)",
    )
    serve_p.add_argument(
        "--fault-loss", type=float, default=0.0, metavar="P",
        help="per-sample delivery-loss burst probability",
    )
    serve_p.add_argument(
        "--fault-dup", type=float, default=0.0, metavar="P",
        help="per-sample duplicated-delivery probability",
    )
    serve_p.add_argument(
        "--fault-reorder", type=float, default=0.0, metavar="P",
        help="per-sample reordered (delayed) delivery probability",
    )
    serve_p.add_argument(
        "--fault-stuck", type=float, default=0.0, metavar="P",
        help="per-sample stuck-counter burst probability",
    )
    serve_p.add_argument(
        "--fault-corrupt", type=float, default=0.0, metavar="P",
        help="per-sample NaN/outlier corruption burst probability "
        "(exercises quarantine)",
    )
    serve_p.add_argument(
        "--min-fit-samples", type=int, default=None, metavar="N",
        help="candidate maturity before promotion (default 24; pinned "
        "to the state dir on first open)",
    )
    serve_p.add_argument(
        "--staleness-s", type=float, default=None, metavar="S",
        help="dark-stream threshold for degraded answers (default 30; "
        "pinned to the state dir on first open)",
    )
    serve_p.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="bounded per-PM ingest queue (default 64; pinned to the "
        "state dir on first open)",
    )
    serve_p.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="supervised attempts for 'run' with exponential backoff "
        "between them (default 3)",
    )
    serve_p.add_argument(
        "--pm", default=None, metavar="PM",
        help="PM stream for 'query'/'rollback' (query defaults to "
        "every known PM)",
    )
    serve_p.add_argument(
        "--vm-util", default="0.3,0.3,0.1,0.1", metavar="C,M,I,B",
        help="query utilization vector cpu,mem,io,bw",
    )
    serve_p.add_argument(
        "--at", type=float, default=None, metavar="T",
        help="sim time of the query (default: the recovered service "
        "clock)",
    )
    serve_p.add_argument(
        "--obs-dir", type=Path, default=None, metavar="DIR",
        help="collect service metrics/spans and export them here "
        "(inspect with 'repro obs summary --require serve')",
    )

    obs_p = sub.add_parser(
        "obs",
        help="inspect an observability export written by --obs-dir",
    )
    obs_p.add_argument(
        "action", choices=("summary", "export", "spans"),
        help="summary: validate + digest; export: print the "
        "OpenMetrics text; spans: print recorded spans",
    )
    obs_p.add_argument(
        "--obs-dir", type=Path, default=DEFAULT_OBS_DIR,
        help=f"observability directory (default: {DEFAULT_OBS_DIR})",
    )
    obs_p.add_argument(
        "--require", default=None, metavar="SOURCES",
        help="comma-separated span sources that must be present "
        "(summary exits 1 when one is missing)",
    )
    obs_p.add_argument(
        "--source", default=None, metavar="SRC",
        help="restrict 'spans' output to one source",
    )
    obs_p.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="most recent spans shown by 'spans' (default 20)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism/correctness static analysis (REPxxx rules)",
    )
    lint_cli.configure_parser(lint_p)
    return parser


def _add_perf_options(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run experiment cells over N worker processes (0 = all "
        "CPUs); output is byte-identical to serial",
    )
    sub_parser.add_argument(
        "--chunk", type=int, default=None, metavar="N",
        help="cells dispatched to a worker per pool task (0 = "
        "deterministic cost-model default); larger chunks amortize "
        "dispatch overhead, output stays byte-identical",
    )
    sub_parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="serve previously computed cells from this "
        "content-addressed cache (and populate it)",
    )
    sub_parser.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="record a crash-safe run manifest here: every planned "
        "cell is ledgered and every completed cell checkpointed",
    )
    sub_parser.add_argument(
        "--resume", type=Path, default=None, metavar="DIR",
        help="resume an interrupted run: restore verified checkpoints "
        "from DIR and execute only pending/failed cells (implies "
        "--run-dir DIR)",
    )
    sub_parser.add_argument(
        "--cell-deadline", type=float, default=None, metavar="S",
        help="seconds before a cell's worker counts as hung and is "
        "retried (default 600; 0 disables the watchdog)",
    )
    sub_parser.add_argument(
        "--cell-attempts", type=int, default=None, metavar="N",
        help="total attempts per cell before it fails permanently "
        "(default 3)",
    )
    sub_parser.add_argument(
        "--obs-dir", type=Path, default=None, metavar="DIR",
        help="collect metrics and spans for this run and export them "
        "here (metrics.om, spans.jsonl, summary.json); output stays "
        "byte-identical either way -- inspect with 'repro obs'",
    )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early.
        return 0


def _sanitizer_summary() -> None:
    counts = sanitize.aggregate_draw_counts()
    print(
        f"sanitizer: {sanitize.total_pops()} event pops vetted, "
        f"{sum(counts.values())} RNG draws over {len(counts)} stream(s)"
    )


def _main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    if getattr(args, "sanitize", False):
        sanitize.set_default(True)
        sanitize.reset_collector()
    try:
        return _with_perf_defaults(args, raw_argv)
    finally:
        if getattr(args, "sanitize", False):
            sanitize.set_default(False)


#: Exit code of the experiment commands when cells failed permanently.
EXIT_CELLS_FAILED = 3


def _supervisor_config(args: argparse.Namespace):
    """Build the supervisor config from CLI knobs (None = defaults)."""
    from repro.perf.supervisor import SupervisorConfig

    overrides = {}
    deadline = getattr(args, "cell_deadline", None)
    if deadline is not None:
        overrides["deadline_s"] = None if deadline <= 0 else deadline
    attempts = getattr(args, "cell_attempts", None)
    if attempts is not None:
        if attempts < 1:
            raise ValueError("--cell-attempts must be >= 1")
        overrides["max_attempts"] = attempts
    return SupervisorConfig(**overrides) if overrides else None


def _with_perf_defaults(args: argparse.Namespace, raw_argv: List[str]) -> int:
    """Install the perf/crash-safety defaults for the dispatch, then reset."""
    jobs = getattr(args, "jobs", None)
    chunk = getattr(args, "chunk", None)
    cache_dir = getattr(args, "cache_dir", None)
    resume_dir = getattr(args, "resume", None)
    run_dir = getattr(args, "run_dir", None) or resume_dir
    obs_dir = getattr(args, "obs_dir", None)
    if args.command not in ("run", "all", "report", "fleet") or (
        jobs is None and chunk is None and cache_dir is None
        and run_dir is None and obs_dir is None
        and getattr(args, "cell_deadline", None) is None
        and getattr(args, "cell_attempts", None) is None
    ):
        # Only the experiment commands fan out through the executor;
        # cache has its own dispatch.
        return _dispatch(args)
    from repro.perf.cache import ResultCache
    from repro.perf.executor import execution_defaults
    from repro.perf.manifest import RunManifest
    from repro.perf.supervisor import (
        CellExecutionError,
        reset_stats,
        stats,
    )

    try:
        supervisor = _supervisor_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    manifest = None
    if run_dir is not None:
        manifest = RunManifest(run_dir)
        manifest.open_run(raw_argv, resumed=resume_dir is not None)
        args._manifest = manifest
    collector = None
    if obs_dir is not None:
        from repro.obs import runtime as obs_runtime

        collector = obs_runtime.install(obs_runtime.ObsCollector())
        obs_runtime.set_default(True)
    reset_stats()
    failed_cells = None
    try:
        with execution_defaults(
            jobs=jobs,
            chunk=chunk,
            cache=cache,
            manifest=manifest,
            resume=resume_dir is not None,
            supervisor=supervisor,
        ):
            try:
                code = _dispatch(args)
            except CellExecutionError as exc:
                failed_cells = exc
                code = EXIT_CELLS_FAILED
    finally:
        # The warm pool's explicit end-of-invocation shutdown (the
        # atexit hook is only the backstop for API users).
        from repro.perf import pool as warm_pool

        warm_pool.shutdown_pool()
        if collector is not None:
            obs_runtime.set_default(False)
            obs_runtime.uninstall()
    if collector is not None:
        from repro.obs.export import write_obs_dir

        obs_summary = write_obs_dir(collector, obs_dir)
        print(
            f"observability: wrote {obs_dir} "
            f"({obs_summary['spans']} span(s), "
            f"{obs_summary['series']} series; "
            f"sources: {', '.join(obs_summary['span_sources']) or '-'})",
            file=sys.stderr,
        )
    supervision = stats()
    if supervision.retries or supervision.failed:
        print(supervision.summary(), file=sys.stderr)
    if failed_cells is not None:
        print(f"error: {failed_cells}", file=sys.stderr)
        if manifest is not None:
            print(
                f"hint: fix the cause, then 'repro runs resume "
                f"{run_dir}' to re-execute only the failed cells",
                file=sys.stderr,
            )
    if cache is not None:
        cache.flush_stats()
        print(cache.stats().render(), file=sys.stderr)
    if manifest is not None:
        print(
            f"run manifest: {run_dir} "
            f"({manifest.restored} restored, {manifest.executed} executed)",
            file=sys.stderr,
        )
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for artifact in runner.ALL_IDS:
            print(artifact)
        return 0
    if args.command == "lint":
        return lint_cli.run_from_args(args)
    if args.command == "run":
        try:
            if args.id in runner.GROUP_IDS:
                results = runner.run_group(args.id, fast=args.fast)
            else:
                results = [runner.run(args.id, fast=args.fast)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.sanitize:
            _sanitizer_summary()
        return _report(results, args.out)
    if args.command == "report":
        from repro.experiments.report import generate_experiments_md

        results = runner.run_all(fast=args.fast)
        args.out.write_text(
            generate_experiments_md(
                results, fast=args.fast, provenance=_provenance(args)
            )
            + "\n"
        )
        failed = [r.experiment_id for r in results if not r.passed]
        print(f"wrote {args.out} ({len(results)} artifacts)")
        if failed:
            print(f"shape-check failures: {', '.join(failed)}", file=sys.stderr)
            return 1
        return 0
    if args.command == "validate":
        return _validate(fast=args.fast)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "cache":
        return _cache(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "obs":
        return _obs_cmd(args)
    if args.command == "runs":
        return _runs(args)
    if args.command == "fleet":
        return _fleet(args)
    assert args.command == "all"
    return _report(runner.run_all(fast=args.fast), args.out)


def _provenance(args: argparse.Namespace) -> Optional[List[str]]:
    """Report provenance lines -- only for resumed runs.

    Non-resumed reports get ``None`` so their output stays byte-identical
    to a harness without the crash-safety layer at all.
    """
    manifest = getattr(args, "_manifest", None)
    if manifest is None or getattr(args, "resume", None) is None:
        return None
    return [
        f"Run provenance: resumed from run directory `{manifest.root}` "
        f"({manifest.restored} cell(s) restored from verified "
        f"checkpoints, {manifest.executed} executed in this invocation).",
    ]


def _strip_run_flags(command: List[str]) -> List[str]:
    """Drop ``--run-dir``/``--resume`` (and values) from a recorded command."""
    out: List[str] = []
    skip = False
    for token in command:
        if skip:
            skip = False
            continue
        if token in ("--run-dir", "--resume"):
            skip = True
            continue
        if token.startswith(("--run-dir=", "--resume=")):
            continue
        out.append(token)
    return out


def _runs(args: argparse.Namespace) -> int:
    from repro.perf.manifest import RunManifest

    manifest = RunManifest(args.dir)
    if args.action == "status":
        print(manifest.status().render())
        return 0
    if args.action == "gc":
        removed = manifest.gc()
        print(
            f"gc {args.dir}: removed {removed['orphaned']} orphaned and "
            f"{removed['stale']} stale checkpoint(s) "
            f"({removed['bytes']} bytes)"
        )
        return 0
    assert args.action == "resume"
    status = manifest.status()
    if not status.command:
        print(
            f"error: {args.dir} has no recorded command to resume "
            "(was it created with --run-dir?)",
            file=sys.stderr,
        )
        return 2
    if status.complete:
        print(f"nothing to resume: every cell in {args.dir} is done")
        return 0
    command = _strip_run_flags(status.command)
    command += ["--resume", str(args.dir)]
    print(f"resuming: repro {' '.join(command)}", file=sys.stderr)
    return _main(command)


def _cache(args: argparse.Namespace) -> int:
    from repro.perf.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached cell(s) from {args.cache_dir}")
        return 0
    assert args.action == "stats"
    print(cache.stats().render())
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.serve import PredictionService, ServiceConfig

    overrides = {
        key: value
        for key, value in (
            ("queue_capacity", args.queue_capacity),
            ("min_fit_samples", args.min_fit_samples),
            ("staleness_s", args.staleness_s),
        )
        if value is not None
    }
    try:
        # None lets an existing state dir answer from its pinned config;
        # explicit knobs only matter on the open that creates the dir.
        service_config = ServiceConfig(**overrides) if overrides else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "run":
        return _serve_run(args, service_config)
    if not args.state_dir.is_dir():
        # Read-only actions must not conjure (and pin) a state dir.
        print(
            f"error: no service state at {args.state_dir}", file=sys.stderr
        )
        return 2
    service = PredictionService(args.state_dir, config=service_config)
    try:
        if args.action == "status":
            print(service.status_report())
            return 0
        if args.action == "rollback":
            return _serve_rollback(args, service)
        assert args.action == "query"
        return _serve_query(args, service)
    finally:
        service.wal.close()


def _serve_run(args: argparse.Namespace, service_config) -> int:
    from repro.faults.service import ServiceFaultConfig
    from repro.perf.supervisor import SupervisorConfig, _backoff_sleep
    from repro.serve import SwarmConfig, run_swarm

    try:
        faults = ServiceFaultConfig(
            loss_prob=args.fault_loss,
            dup_prob=args.fault_dup,
            reorder_prob=args.fault_reorder,
            stuck_prob=args.fault_stuck,
            corrupt_prob=args.fault_corrupt,
        )
        swarm_config = SwarmConfig(
            pms=args.pms,
            ticks=args.ticks,
            queries_per_tick=args.queries_per_tick,
            seed=args.seed,
            drift_at=args.drift_at,
            drift_scale=args.drift_scale,
            faults=faults if faults.faulty() else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    collector = None
    if args.obs_dir is not None:
        from repro.obs import runtime as obs_runtime

        collector = obs_runtime.install(obs_runtime.ObsCollector())
        obs_runtime.set_default(True)
    # Supervised drive: a transient failure (filesystem hiccup, OOM
    # kill of a child) retries with the PR-4 backoff schedule -- the WAL
    # makes every retry a resume, so attempts converge, never diverge.
    supervisor = SupervisorConfig(max_attempts=max(1, args.retries))
    attempt = 0
    try:
        while True:
            try:
                report = run_swarm(
                    args.state_dir,
                    swarm_config,
                    service_config=service_config,
                    stop_after_tick=args.stop_after_tick,
                )
                break
            except OSError as exc:
                attempt += 1
                if attempt >= supervisor.max_attempts:
                    print(
                        f"error: swarm run failed after {attempt} "
                        f"attempt(s): {exc}",
                        file=sys.stderr,
                    )
                    return 1
                delay = supervisor.backoff_s(attempt + 1)
                print(
                    f"serve: attempt {attempt} failed ({exc}); "
                    f"resuming from WAL in {delay:.1f}s",
                    file=sys.stderr,
                )
                _backoff_sleep(delay)
    finally:
        if collector is not None:
            from repro.obs import runtime as obs_runtime

            obs_runtime.set_default(False)
            obs_runtime.uninstall()
    if collector is not None:
        from repro.obs.export import write_obs_dir

        obs_summary = write_obs_dir(collector, args.obs_dir)
        print(
            f"observability: wrote {args.obs_dir} "
            f"({obs_summary['spans']} span(s), "
            f"{obs_summary['series']} series; "
            f"sources: {', '.join(obs_summary['span_sources']) or '-'})",
            file=sys.stderr,
        )
    print(report.render())
    return 0


def _serve_query(args: argparse.Namespace, service) -> int:
    from repro.monitor.metrics import ResourceVector

    try:
        parts = [float(v) for v in args.vm_util.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 components, got {len(parts)}")
        vm_util = ResourceVector(*parts)
    except ValueError as exc:
        print(f"error: --vm-util: {exc}", file=sys.stderr)
        return 2
    at = args.at if args.at is not None else service.now
    pms = [args.pm] if args.pm else sorted(
        set(service.registry.pms()) | set(service.queue_depths())
    )
    if not pms:
        print("error: empty service state (nothing to query)", file=sys.stderr)
        return 2
    for pm in pms:
        print(service.query(pm, vm_util, now=at).render())
    return 0


def _serve_rollback(args: argparse.Namespace, service) -> int:
    from repro.serve import RegistryError

    if not args.pm:
        print("error: rollback requires --pm", file=sys.stderr)
        return 2
    try:
        target = service.rollback(args.pm, now=service.now)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.pm}: rolled back to v{target.version} "
          f"(promoted at tick {target.tick}, {target.n_samples} samples)")
    return 0


def _obs_cmd(args: argparse.Namespace) -> int:
    from repro.obs import Span
    from repro.obs.export import METRICS_FILE, ObsExportError, load_obs_dir

    try:
        _metrics, spans, summary = load_obs_dir(args.obs_dir)
    except ObsExportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "export":
        # Re-emit the (just validated) OpenMetrics exposition verbatim
        # so it can be piped straight into a scrape endpoint or file.
        sys.stdout.write((args.obs_dir / METRICS_FILE).read_text())
        return 0
    if args.action == "spans":
        rows = spans
        if args.source:
            rows = [r for r in rows if r["source"] == args.source]
        for row in rows[-args.limit:]:
            print(Span.from_dict(row).render())
        print(
            f"{len(rows)} span(s)"
            + (f" from source '{args.source}'" if args.source else "")
            + (f", showing last {args.limit}" if len(rows) > args.limit else ""),
            file=sys.stderr,
        )
        return 0
    assert args.action == "summary"
    from repro.obs.export import render_summary_text

    print(render_summary_text(summary))
    if args.require:
        wanted = [s.strip() for s in args.require.split(",") if s.strip()]
        missing = sorted(set(wanted) - set(summary["span_sources"]))
        if missing:
            print(
                f"error: required span source(s) missing from "
                f"{args.obs_dir}: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
    return 0


#: ``repro fleet --fast`` smoke scale (CI-sized; same code paths).
FLEET_FAST = {
    "pms": 24,
    "vms": 240,
    "clients": 20_000,
    "duration_s": 120.0,
    "trials": 1,
}


def _fleet(args: argparse.Namespace) -> int:
    from repro.experiments.fleet import run_fleet_experiment

    kwargs = dict(FLEET_FAST) if args.fast else {}
    for key, value in (
        ("pms", args.pms),
        ("vms", args.vms),
        ("clients", args.clients),
        ("duration_s", args.duration),
        ("epoch_s", args.epoch),
        ("trials", args.trials),
    ):
        if value is not None:
            kwargs[key] = value
    try:
        results = run_fleet_experiment(
            shards=args.shards, seed=args.seed, **kwargs
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sanitize:
        _sanitizer_summary()
    return _report(results, args.out)


def _chaos(args: argparse.Namespace) -> int:
    if args.action == "fuzz":
        return _chaos_fuzz(args)
    if args.action == "replay":
        return _chaos_replay(args)
    if args.action == "shrink":
        return _chaos_shrink(args)
    return _chaos_sweep(args)


def _chaos_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import chaos
    from repro.faults.plan import dump_plan

    kwargs = runner._fast_kwargs("chaos", args.fast)
    if args.dropout is not None or args.outliers is not None:
        level = (args.dropout or 0.0, args.outliers or 0.0)
        for name, prob in zip(("--dropout", "--outliers"), level):
            if not 0.0 <= prob < 1.0:
                print(
                    f"error: {name} must be a probability in [0, 1), "
                    f"got {prob}",
                    file=sys.stderr,
                )
                return 2
        # Keep the clean level so degradation is always measured
        # against the fault-free baseline.
        kwargs["levels"] = ((0.0, 0.0), level)
    if args.seed is not None:
        kwargs["placement_seed"] = args.seed
    capture: dict = {}
    if args.plan_out is not None:
        kwargs["capture"] = capture
    results = chaos.run_chaos(**kwargs)
    if args.sanitize:
        _sanitizer_summary()
    if args.plan_out is not None and "plan" in capture:
        dump_plan(capture["plan"], args.plan_out)
        print(f"replayable fault plan written to {args.plan_out}")
    return _report(results, args.out)


def _chaos_fuzz(args: argparse.Namespace) -> int:
    from repro.faults.fuzz import FuzzConfig, run_campaign

    try:
        cfg = FuzzConfig(
            seed=args.seed if args.seed is not None else 2015,
            runs=args.runs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scorecard = run_campaign(cfg, args.out_dir)
    print(
        f"chaos fuzz: seed={scorecard['seed']} "
        f"runs={scorecard['runs']} -> {args.out_dir}"
    )
    oracles = scorecard["oracles"]
    for name in sorted(oracles):
        tally = oracles[name]
        if not tally["checked"]:
            continue
        print(
            f"  {name:<24} checked={tally['checked']:<3} "
            f"passed={tally['passed']:<3} failed={tally['failed']}"
        )
    coverage = scorecard["coverage"]
    print(
        "  coverage: "
        + " ".join(f"{k}={coverage[k]}" for k in sorted(coverage))
    )
    for violation in scorecard["violations"]:
        names = ", ".join(f["oracle"] for f in violation["failed"])
        print(
            f"  VIOLATION run {violation['run']}: {names} "
            f"-> {violation['min_plan']} "
            f"({violation['shrink_executions']} shrink execution(s))",
            file=sys.stderr,
        )
    if scorecard["all_passed"]:
        print("  all invariants held")
        return 0
    return 1


def _chaos_replay(args: argparse.Namespace) -> int:
    from repro.experiments import chaos
    from repro.faults.oracles import failures
    from repro.faults.plan import (
        DRIVER_CHAOSB,
        PlanError,
        dump_plan,
        load_plan,
    )

    if args.plan is None:
        print("error: replay needs a plan file", file=sys.stderr)
        return 2
    try:
        plan = load_plan(args.plan)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.plan_out is not None:
        dump_plan(plan, args.plan_out)
    if plan.driver == DRIVER_CHAOSB:
        result = chaos.run_chaosb(plan=plan)
        return _report([result], args.out)
    from repro.faults.fuzz import execute_plan

    workdir = args.out_dir / "replay-work"
    try:
        _ctx, verdicts = execute_plan(plan, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"replay {args.plan}: surfaces={', '.join(plan.surfaces())}")
    for verdict in verdicts:
        mark = "pass" if verdict.passed else "FAIL"
        print(f"  [{mark}] {verdict.name}: {verdict.detail}")
    return 1 if failures(verdicts) else 0


def _chaos_shrink(args: argparse.Namespace) -> int:
    from repro.faults.fuzz import _make_judge, default_model
    from repro.faults.plan import PlanError, dump_plan, load_plan
    from repro.faults.shrink import shrink_plan

    if args.plan is None:
        print("error: shrink needs a plan file", file=sys.stderr)
        return 2
    try:
        plan = load_plan(args.plan)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = (
        default_model(plan.placement.train_duration)
        if plan.placement is not None else None
    )
    workdir = args.out_dir / "shrink-work"
    try:
        judge = _make_judge(model, workdir)
        failing = judge(plan)
        if not failing:
            print(
                f"{args.plan}: every invariant holds -- nothing to shrink",
                file=sys.stderr,
            )
            return 2
        result = shrink_plan(plan, failing, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_path = args.out or Path(f"{args.plan}.min.json")
    dump_plan(result.min_plan, out_path)
    print(
        f"shrunk {args.plan} -> {out_path} "
        f"({result.executions} execution(s), "
        f"{len(result.steps)} reduction(s): "
        f"{', '.join(result.steps) or 'already minimal'})"
    )
    print(f"  still failing: {', '.join(sorted(set(failing)))}")
    return 0


def _validate(*, fast: bool) -> int:
    from repro.models import (
        MultiVMOverheadModel,
        TrainingConfig,
        cross_validate_multi,
        fit_quality,
        gather_training_samples,
        render_quality_table,
    )

    cfg = (
        TrainingConfig(vm_counts=(1, 2, 4), duration=20.0, warmup=3.0)
        if fast
        else TrainingConfig()
    )
    print("Gathering the micro-benchmark training sweep...")
    samples = gather_training_samples(cfg)
    model = MultiVMOverheadModel.fit(samples)
    from repro.models import describe_multi_vm

    print()
    print(describe_multi_vm(model))
    print(f"\nIn-sample fit quality ({len(samples)} observations):")
    print(render_quality_table(fit_quality(model, samples)))
    print("\n5-fold cross-validated RMSE per target:")
    for target, rmse in sorted(cross_validate_multi(samples).items()):
        print(f"  {target:<10} {rmse:8.4f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
