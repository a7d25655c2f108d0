"""Deterministic fault-schedule fuzzing across every fault surface.

``repro chaos fuzz`` samples randomized-but-reproducible
:class:`~repro.faults.plan.FaultPlan` scenarios -- machine faults into
the resilient placement loop, delivery faults into the serve ingest
path, SIGKILL/stall faults into the supervised executor -- executes
each one, and judges the outcome against the invariant oracles of
:mod:`repro.faults.oracles`.  Violations are minimized by
:mod:`repro.faults.shrink` into replayable repro plans, and the whole
campaign is summarized in a canonical ``resilience.json`` scorecard.

Everything derives from the campaign seed through named RNG streams
(run ``i`` owns registry seed ``seed * 1_000_003 + i``, decisions come
from its ``fuzz.plan`` stream), no wall clock is read and scenario
work directories are deleted after judging, so the same seed always
produces byte-identical plans, repros and scorecard.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.oracles import (
    ORACLE_NAMES,
    OracleVerdict,
    PlacementOutcome,
    RunContext,
    ServeOutcome,
    WorkersOutcome,
    check_all,
    failures,
)
from repro.faults.plan import (
    DRIVER_FUZZ,
    PLANTED_VM_LEAK,
    FaultPlan,
    PlacementPlan,
    ServePlan,
    WorkerPlan,
    canonical_json,
    dump_plan,
)
from repro.faults.schedule import build_schedule
from repro.faults.service import ServiceFaultConfig
from repro.faults.workers import (
    WORKER_KILL,
    WORKER_STALL,
    FaultableCell,
    plan_worker_faults,
)
from repro.obs import runtime as _obs
from repro.perf import pool as warmpool
from repro.perf import supervisor as _supervisor
from repro.perf.cells import MicrobenchCell
from repro.perf.executor import run_cells
from repro.perf.supervisor import SupervisorConfig
from repro.placement.migration import HotspotDetector, MigrationPlanner
from repro.placement.resilient import (
    MigrationExecutor,
    PmCircuitBreaker,
    ResilientControlLoop,
    RetryPolicy,
)
from repro.serve.service import PredictionService
from repro.serve.swarm import SwarmConfig, run_swarm
from repro.serve.wal import RECORD_SAMPLE, SampleWAL
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.suite import make_benchmark
from repro.xen.specs import VMSpec

#: Scorecard schema tag.
SCORECARD_SCHEMA = "repro-resilience/1"
SCORECARD_NAME = "resilience.json"

#: Loop constants shared with the chaosb experiment (one operating
#: point for both hand-run and fuzzed placement scenarios).
LOOP_INTERVAL_S = 2.0
RETRY_MAX_ATTEMPTS = 4
RETRY_BACKOFF_S = 2.0
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 20.0
DETECTOR_K = 2
DETECTOR_N = 4
DETECTOR_FRAC = 0.6
PLANNER_FRAC = 0.6


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of one fuzz campaign."""

    seed: int = 2015
    runs: int = 4
    #: Per-run probability that a surface is driven at all.
    placement_prob: float = 0.85
    serve_prob: float = 0.6
    worker_prob: float = 0.25
    #: Execute each placement surface twice and compare (the
    #: replay-determinism oracle); the shrinker turns this off.
    check_determinism: bool = True
    #: Training-sweep length behind the shared placement model.
    train_duration: float = 20.0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        for name in ("placement_prob", "serve_prob", "worker_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.train_duration <= 0:
            raise ValueError("train_duration must be positive")


def _run_seed(campaign_seed: int, index: int) -> int:
    """Registry seed of campaign run ``index`` (mirrors RngRegistry.spawn)."""
    return campaign_seed * 1_000_003 + index


def placement_names(pp: PlacementPlan) -> Tuple[List[str], List[str]]:
    """The PM / VM name sets a placement plan's cluster uses."""
    pms = [f"pm{i + 1}" for i in range(pp.pm_count)]
    vms = [f"hot{i}" for i in range(pp.hot_vms)]
    vms += [f"bg{i}" for i in range(pp.bg_vms)]
    return pms, vms


# --------------------------------------------------------------------------
# Plan sampling.
# --------------------------------------------------------------------------


def _zero_inflated(stream, zero_prob: float, low: float, high: float) -> float:
    """0 with probability ``zero_prob``, else uniform in [low, high]."""
    if float(stream.random()) < zero_prob:
        return 0.0
    return float(stream.uniform(low, high))


def _null_placement(seed: int, train_duration: float) -> PlacementPlan:
    return PlacementPlan(
        seed=seed,
        duration_s=40.0,
        train_duration=train_duration,
        migration_failure_prob=0.0,
        pm_count=3,
        hot_vms=4,
        bg_vms=2,
        config=FaultConfig(),
        events=(),
    )


def _sample_placement(
    stream, reg: RngRegistry, train_duration: float
) -> PlacementPlan:
    seed = int(stream.integers(1, 2**31))
    duration = float(stream.choice((30.0, 40.0, 50.0)))
    pm_count = int(stream.integers(2, 5))
    hot_vms = 4
    bg_vms = max(pm_count - 1, 1)
    config = FaultConfig(
        pm_crash_rate=_zero_inflated(stream, 0.35, 1.0 / 120.0, 1.0 / 40.0),
        pm_reboot_s=float(stream.uniform(5.0, 15.0)),
        vm_stall_rate=_zero_inflated(stream, 0.35, 1.0 / 150.0, 1.0 / 50.0),
        vm_stall_s=float(stream.uniform(2.0, 6.0)),
        vm_crash_rate=_zero_inflated(stream, 0.6, 1.0 / 200.0, 1.0 / 80.0),
        vm_restart_s=float(stream.uniform(4.0, 10.0)),
        nic_degrade_rate=_zero_inflated(stream, 0.35, 1.0 / 100.0, 1.0 / 30.0),
        nic_degrade_s=float(stream.uniform(4.0, 12.0)),
    )
    plan = PlacementPlan(
        seed=seed,
        duration_s=duration,
        train_duration=train_duration,
        migration_failure_prob=float(stream.choice((0.0, 0.15, 0.3))),
        pm_count=pm_count,
        hot_vms=hot_vms,
        bg_vms=bg_vms,
        config=config,
        events=(),
    )
    pm_names, vm_names = placement_names(plan)
    events = tuple(
        build_schedule(
            config, reg, horizon=duration,
            pm_names=pm_names, vm_names=vm_names,
        )
    )
    return PlacementPlan(
        seed=plan.seed,
        duration_s=plan.duration_s,
        train_duration=plan.train_duration,
        migration_failure_prob=plan.migration_failure_prob,
        pm_count=plan.pm_count,
        hot_vms=plan.hot_vms,
        bg_vms=plan.bg_vms,
        config=plan.config,
        events=events,
    )


def _sample_serve(stream) -> ServePlan:
    ticks = int(stream.choice((120, 160, 200)))
    drift_at = ticks // 2 if float(stream.random()) < 0.5 else 0
    crash_at = (
        max(1, ticks // 3) if float(stream.random()) < 0.4 else None
    )
    faults = ServiceFaultConfig(
        loss_prob=_zero_inflated(stream, 0.4, 0.01, 0.08),
        dup_prob=_zero_inflated(stream, 0.4, 0.01, 0.08),
        reorder_prob=_zero_inflated(stream, 0.4, 0.01, 0.08),
        stuck_prob=_zero_inflated(stream, 0.6, 0.002, 0.01),
        corrupt_prob=_zero_inflated(stream, 0.4, 0.01, 0.06),
    )
    return ServePlan(
        seed=int(stream.integers(1, 2**31)),
        pms=int(stream.integers(2, 4)),
        ticks=ticks,
        queries_per_tick=2,
        drift_at=drift_at,
        drift_scale=1.6,
        crash_at_tick=crash_at,
        faults=faults,
    )


def _sample_workers(stream) -> WorkerPlan:
    return WorkerPlan(
        seed=int(stream.integers(1, 2**31)),
        n_cells=int(stream.integers(4, 7)),
        kill_rate=float(stream.choice((0.0, 0.2, 0.4))),
        stall_rate=float(stream.choice((0.0, 0.25))),
        stall_s=0.2,
        jobs=2,
    )


def sample_plan(cfg: FuzzConfig, index: int) -> FaultPlan:
    """Draw campaign run ``index``'s plan -- a pure function of (seed, i).

    Run 0 is pinned to the null placement-only plan so every campaign,
    however small, exercises the zero-fault byte-identity oracle.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    seed = _run_seed(cfg.seed, index)
    if index == 0:
        return FaultPlan(
            seed=seed,
            driver=DRIVER_FUZZ,
            placement=_null_placement(seed, cfg.train_duration),
        )
    reg = RngRegistry(seed)
    stream = reg("fuzz.plan")
    placement_on = float(stream.random()) < cfg.placement_prob
    serve_on = float(stream.random()) < cfg.serve_prob
    workers_on = float(stream.random()) < cfg.worker_prob
    if not (placement_on or serve_on or workers_on):
        placement_on = True
    return FaultPlan(
        seed=seed,
        driver=DRIVER_FUZZ,
        placement=(
            _sample_placement(stream, reg, cfg.train_duration)
            if placement_on else None
        ),
        serve=_sample_serve(stream) if serve_on else None,
        workers=_sample_workers(stream) if workers_on else None,
    )


# --------------------------------------------------------------------------
# Scenario execution.
# --------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dir_digest(root: Path) -> str:
    """Content digest of a state directory (relative paths + bytes)."""
    h = hashlib.sha256()
    if root.is_dir():
        for path in sorted(root.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(root).as_posix().encode("utf-8"))
                h.update(b"\0")
                h.update(path.read_bytes())
                h.update(b"\0")
    return h.hexdigest()


def default_model(train_duration: float):
    """The multi-VM model behind every fuzzed placement loop (memoized)."""
    from repro.experiments.prediction import trained_models

    _single, multi = trained_models(duration=train_duration)
    return multi


def _run_placement(
    pp: PlacementPlan,
    model,
    planted: Optional[str],
    *,
    with_injector: bool = True,
) -> PlacementOutcome:
    """Drive one resilient-placement scenario and record its outcome."""
    sim = Simulator(seed=pp.seed, sanitize=True)
    cluster = Cluster(sim)
    pm_names, _vm_names = placement_names(pp)
    for name in pm_names:
        cluster.create_pm(name)
    for i in range(pp.hot_vms):
        vm = cluster.place_vm(
            VMSpec(name=f"hot{i}", mem_mb=256), pm_names[0]
        )
        make_benchmark("cpu", 95.0).attach(vm)
    spread = pm_names[1:] or pm_names
    for i in range(pp.bg_vms):
        vm = cluster.place_vm(
            VMSpec(name=f"bg{i}", mem_mb=256), spread[i % len(spread)]
        )
        make_benchmark("cpu", 10.0).attach(vm)
    guests_before = sum(len(pm.vms) for pm in cluster.pms.values())
    cluster.start()

    injector = None
    if with_injector:
        injector = FaultInjector(
            cluster, pp.config,
            horizon=pp.duration_s, schedule=list(pp.events),
        )
        injector.arm()
    breaker = PmCircuitBreaker(
        failure_threshold=BREAKER_THRESHOLD, cooldown_s=BREAKER_COOLDOWN_S
    )
    executor = MigrationExecutor(
        cluster,
        policy=RetryPolicy(
            max_attempts=RETRY_MAX_ATTEMPTS, backoff_s=RETRY_BACKOFF_S
        ),
        breaker=breaker,
        failure_prob=pp.migration_failure_prob,
    )
    loop = ResilientControlLoop(
        cluster,
        model,
        interval=LOOP_INTERVAL_S,
        detector=HotspotDetector(
            model, k=DETECTOR_K, n=DETECTOR_N, threshold_frac=DETECTOR_FRAC
        ),
        planner=MigrationPlanner(model, target_frac=PLANNER_FRAC),
        executor=executor,
    )
    loop.start()

    if planted == PLANTED_VM_LEAK:
        def _leak(_event) -> None:
            victims = sorted(vm.name for vm in cluster.all_vms())
            if not victims:
                return
            try:
                pm = cluster.pm_of(victims[0])
            except KeyError:
                return
            # The planted bug: a guest vanishes without a migration --
            # exactly what vm-conservation must catch.
            pm.remove_vm(victims[0])

        sim.at(pp.duration_s / 2.0, _leak)

    sim.run_until(pp.duration_s)

    stats = {
        "submitted": executor.stats.submitted,
        "succeeded": executor.stats.succeeded,
        "rollbacks": executor.stats.rollbacks,
        "retries": executor.stats.retries,
        "abandoned": executor.stats.abandoned,
        "vetoed": executor.stats.vetoed,
    }
    final_placement = {
        name: sorted(cluster.pms[name].vms)
        for name in sorted(cluster.pms)
    }
    attempts = [
        [a.time, a.vm, a.src, a.dst, a.attempt, a.ok, a.reason]
        for a in executor.log
    ]
    transitions = tuple(breaker.transitions)
    draw_counts: Dict[str, int] = (
        sim.sanitizer.snapshot() if sim.sanitizer is not None else {}
    )
    digest = _sha256(canonical_json({
        "guests_before": guests_before,
        "final_placement": final_placement,
        "stats": stats,
        "pending": executor.pending,
        "attempts": attempts,
        "transitions": [list(t) for t in transitions],
        "rounds": loop.rounds,
        "hot_rounds": loop.hot_rounds,
        "missing_observations": loop.missing_observations,
        "applied": (
            [
                [ev.time, ev.kind, ev.target, ev.duration]
                for ev in injector.applied
            ]
            if injector is not None else []
        ),
    }))
    return PlacementOutcome(
        horizon=pp.duration_s,
        guests_before=guests_before,
        guests_after=sum(len(pm.vms) for pm in cluster.pms.values()),
        stats=stats,
        pending=executor.pending,
        applied_events=len(injector.applied) if injector is not None else 0,
        skipped_events=len(injector.skipped) if injector is not None else 0,
        breaker_transitions=transitions,
        breaker_opened=breaker.opened,
        breaker_cooldown_s=breaker.cooldown_s,
        rounds=loop.rounds,
        missing_observations=loop.missing_observations,
        events=pp.events,
        digest=digest,
        draw_counts=draw_counts,
    )


def _run_serve(sp: ServePlan, workdir: Path) -> ServeOutcome:
    """Drive one serve-ingest scenario and audit its durable state."""
    swarm_cfg = SwarmConfig(
        pms=sp.pms,
        ticks=sp.ticks,
        samples_per_tick=1,
        queries_per_tick=sp.queries_per_tick,
        seed=sp.seed,
        drift_at=sp.drift_at,
        drift_scale=sp.drift_scale,
        faults=sp.faults if sp.faults.faulty() else None,
    )
    clean = workdir / "clean"
    answers: List[Tuple[str, str, bool, Optional[int], bool]] = []

    def _collect(answer) -> None:
        answers.append((
            answer.pm,
            answer.status,
            answer.degraded,
            answer.version,
            answer.predictions is not None,
        ))

    report = run_swarm(clean, swarm_cfg, on_answer=_collect)
    clean_digest = _dir_digest(clean)

    # WAL replay idempotency: reopening the state dir twice must leave
    # its bytes and its rendered status untouched.
    reopen_digests: List[str] = []
    reopen_status: List[str] = []
    promoted: Dict[str, Tuple[int, ...]] = {}
    outlier_limit = 0.0
    for _attempt in range(2):
        service = PredictionService(clean)
        reopen_status.append(service.status_report())
        outlier_limit = service.config.outlier_limit
        promoted = {
            pm: tuple(mv.version for mv in service.registry.history(pm))
            for pm in swarm_cfg.pm_names()
        }
        service.wal.close()
        reopen_digests.append(_dir_digest(clean))

    # No silently-valid samples: everything the WAL accepted must have
    # passed the validity bound (corrupted deliveries become strikes).
    wal_bad: List[str] = []
    wal_samples = 0
    for record in SampleWAL(clean).iter_records():
        if record.kind != RECORD_SAMPLE:
            continue
        wal_samples += 1
        values = list(record.x) + [v for _k, v in record.y]
        for value in values:
            if not math.isfinite(value) or abs(value) > outlier_limit:
                wal_bad.append(
                    f"{record.pm} seq={record.seq}: accepted value {value!r}"
                )
                break

    resumed_digest: Optional[str] = None
    if sp.crash_at_tick is not None:
        resumed = workdir / "resumed"
        run_swarm(resumed, swarm_cfg, stop_after_tick=sp.crash_at_tick)
        run_swarm(resumed, swarm_cfg)
        resumed_digest = _dir_digest(resumed)

    return ServeOutcome(
        report=report.as_dict(),
        answers=tuple(answers),
        promoted=promoted,
        clean_digest=clean_digest,
        reopen_digests=(reopen_digests[0], reopen_digests[1]),
        reopen_status=(reopen_status[0], reopen_status[1]),
        wal_bad_samples=tuple(wal_bad),
        wal_samples=wal_samples,
        resumed_digest=resumed_digest,
        outlier_limit=outlier_limit,
    )


def _run_workers(wp: WorkerPlan, workdir: Path) -> WorkersOutcome:
    """Drive one supervised-executor scenario against a clean reference."""
    planned = plan_worker_faults(
        wp.n_cells,
        seed=wp.seed,
        kill_rate=wp.kill_rate,
        stall_rate=wp.stall_rate,
        stall_s=wp.stall_s,
    )
    by_index = {fault.index: fault for fault in planned}
    inners = [
        MicrobenchCell(
            kind="cpu", n_vms=1, level=25.0, index=i, duration=2.0,
            seed=wp.seed % 1_000_000 + i,
        )
        for i in range(wp.n_cells)
    ]
    expected = tuple(cell.run()[0] for cell in inners)
    marker_dir = workdir / "markers"
    cells = [
        FaultableCell(
            inner=inner,
            marker_dir=str(marker_dir),
            fault=(
                by_index[i].kind if i in by_index else None
            ),
            stall_s=wp.stall_s,
            tag=f"fuzz{i}",
        )
        for i, inner in enumerate(inners)
    ]
    _supervisor.reset_stats()
    try:
        got = run_cells(
            cells,
            jobs=wp.jobs,
            supervisor=SupervisorConfig(deadline_s=60.0, max_attempts=3),
        )
    finally:
        stats = _supervisor.stats()
        warmpool.shutdown_pool()
    markers = (
        len(sorted(marker_dir.glob("*.tripped")))
        if marker_dir.is_dir() else 0
    )
    kinds = sorted(fault.kind for fault in planned)
    return WorkersOutcome(
        expected=expected,
        got=tuple(got),
        planned=tuple((fault.index, fault.kind) for fault in planned),
        markers=markers,
        retries=stats.retries,
        kills=kinds.count(WORKER_KILL),
        stalls=kinds.count(WORKER_STALL),
    )


def execute_plan(
    plan: FaultPlan,
    *,
    workdir: Path,
    model=None,
    check_determinism: bool = True,
) -> Tuple[RunContext, List[OracleVerdict]]:
    """Execute one plan across its surfaces and judge every oracle."""
    workdir = Path(workdir)
    ctx = RunContext(plan=plan)
    if plan.placement is not None:
        if model is None:
            model = default_model(plan.placement.train_duration)
        ctx.placement = _run_placement(plan.placement, model, plan.planted)
        if check_determinism:
            ctx.placement_repeat = _run_placement(
                plan.placement, model, plan.planted
            )
        if plan.is_null():
            ctx.placement_bare_digest = _run_placement(
                plan.placement, model, plan.planted, with_injector=False
            ).digest
    if plan.serve is not None:
        ctx.serve = _run_serve(plan.serve, workdir / "serve")
    if plan.workers is not None:
        ctx.workers = _run_workers(plan.workers, workdir / "workers")
    return ctx, check_all(ctx)


# --------------------------------------------------------------------------
# Campaign.
# --------------------------------------------------------------------------


def plan_coverage(plan: FaultPlan) -> List[str]:
    """The fault classes one plan actually drives (scorecard buckets)."""
    classes: Set[str] = set()
    pp = plan.placement
    if pp is not None:
        for ev in pp.events:
            classes.add(f"machine:{ev.kind}")
        if pp.migration_failure_prob > 0.0:
            classes.add("migration:mid-flight")
    sp = plan.serve
    if sp is not None:
        for attr in ("loss", "dup", "reorder", "stuck", "corrupt"):
            if getattr(sp.faults, f"{attr}_prob") > 0.0:
                classes.add(f"delivery:{attr}")
        if sp.crash_at_tick is not None:
            classes.add("serve:crash-resume")
        if sp.drift_at > 0:
            classes.add("serve:drift")
    wp = plan.workers
    if wp is not None:
        if wp.kill_rate > 0.0:
            classes.add(f"worker:{WORKER_KILL}")
        if wp.stall_rate > 0.0:
            classes.add(f"worker:{WORKER_STALL}")
    if plan.planted is not None:
        classes.add(f"planted:{plan.planted}")
    if plan.is_null():
        classes.add("null")
    return sorted(classes)


def run_campaign(cfg: FuzzConfig, out_dir: Path) -> Dict[str, object]:
    """Run one fuzz campaign; write plans, repros and the scorecard.

    Returns the scorecard dict (also written canonically to
    ``<out_dir>/resilience.json``).  Work directories are scenario-
    scoped and deleted after judging, so ``out_dir`` ends up holding
    only byte-reproducible artifacts.
    """
    from repro.faults.shrink import shrink_plan

    out_dir = Path(out_dir)
    plans_dir = out_dir / "plans"
    repros_dir = out_dir / "repros"
    work_dir = out_dir / "work"
    plans_dir.mkdir(parents=True, exist_ok=True)
    model = default_model(cfg.train_duration)

    tallies = {
        name: {"checked": 0, "passed": 0, "failed": 0}
        for name in ORACLE_NAMES
    }
    coverage: Dict[str, int] = {}
    violations: List[Dict[str, object]] = []

    for index in range(cfg.runs):
        plan = sample_plan(cfg, index)
        plan_name = f"run-{index:04d}.json"
        dump_plan(plan, plans_dir / plan_name)
        for klass in plan_coverage(plan):
            coverage[klass] = coverage.get(klass, 0) + 1
        run_work = work_dir / f"run-{index:04d}"
        _obs.inc("chaos_fuzz_runs_total")
        with _obs.span("chaos.fuzz.run", "chaos", run=index):
            _ctx, verdicts = execute_plan(
                plan,
                workdir=run_work,
                model=model,
                check_determinism=cfg.check_determinism,
            )
        shutil.rmtree(run_work, ignore_errors=True)
        for verdict in verdicts:
            tally = tallies[verdict.name]
            tally["checked"] += 1
            tally["passed" if verdict.passed else "failed"] += 1
        failed = failures(verdicts)
        if failed:
            for verdict in failed:
                _obs.inc(
                    "chaos_fuzz_violations_total", oracle=verdict.name
                )
            shrink_work = work_dir / f"shrink-{index:04d}"
            result = shrink_plan(
                plan,
                [v.name for v in failed],
                _make_judge(model, shrink_work),
            )
            shutil.rmtree(shrink_work, ignore_errors=True)
            repro_name = f"run-{index:04d}.min.json"
            repros_dir.mkdir(parents=True, exist_ok=True)
            dump_plan(result.min_plan, repros_dir / repro_name)
            violations.append({
                "run": index,
                "plan": f"plans/{plan_name}",
                "failed": [
                    {"oracle": v.name, "detail": v.detail} for v in failed
                ],
                "min_plan": f"repros/{repro_name}",
                "shrink_executions": result.executions,
                "shrink_steps": result.steps,
            })

    shutil.rmtree(work_dir, ignore_errors=True)
    scorecard: Dict[str, object] = {
        "schema": SCORECARD_SCHEMA,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "oracles": {name: tallies[name] for name in sorted(tallies)},
        "coverage": {k: coverage[k] for k in sorted(coverage)},
        "violations": violations,
        "all_passed": not violations,
    }
    (out_dir / SCORECARD_NAME).write_text(
        canonical_json(scorecard), encoding="utf-8"
    )
    _obs.set_gauge("chaos_fuzz_violations", len(violations))
    return scorecard


def _make_judge(model, work_root: Path):
    """A shrinker judge: execute a candidate, return failing oracle names.

    Determinism re-checking is off during shrinking (the shrinker
    preserves whichever originally-failing oracle it is chasing, and
    double-executing every candidate would double the budget).
    """
    counter = [0]

    def _judge(candidate: FaultPlan) -> List[str]:
        counter[0] += 1
        workdir = work_root / f"cand-{counter[0]:05d}"
        try:
            _ctx, verdicts = execute_plan(
                candidate,
                workdir=workdir,
                model=model,
                check_determinism=False,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return [v.name for v in failures(verdicts)]

    return _judge
