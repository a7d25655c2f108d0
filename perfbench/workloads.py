"""The four benchmark workloads: the runs users of ``repro`` wait for.

Each workload turns a seed into fixed inputs and runs one *pass* over
them through the program's public entry points, serially and in this
process.  A pass returns a :class:`PassResult`: operations attempted
and failed, a digest of the rendered outputs, the correctness problems
found, and any workload-specific measurements.

The program is imported by :func:`load_program` only.  Importing
``repro.models``, ``repro.serve`` or ``repro.placement`` first in a
fresh interpreter raises ImportError (the cycle models -> monitor ->
cluster.fleet -> placement.placer -> models.multi_vm, see NOTES.md);
importing the experiment runner first resolves every package in an
order that works.
"""

from __future__ import annotations

import hashlib
import importlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Modules imported, in this order, before anything is timed.
PROGRAM_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.fleet",
    "repro.obs.export",
    "repro.serve",
)


def load_program() -> None:
    """Import the program in an order that avoids its import cycle."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


@dataclass
class PassResult:
    """What one pass over a workload's inputs produced."""

    attempted: int
    failed: int
    digest: str
    #: Correctness-gate violations (empty when the pass is correct).
    problems: List[str] = field(default_factory=list)
    #: What the failed operations were (shape checks that did not hold).
    failures: List[str] = field(default_factory=list)
    #: Per-layer measurements the pass takes anyway, by metric name.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of each timed call, by call name (serve only).
    calls: Dict[str, List[float]] = field(default_factory=dict)


#: Per-layer metrics only some workloads' passes take (``extra``, and the
#: serve call latencies ``run.py`` computes from ``calls``).  On the
#: other workloads they read 0.
PASS_METRICS = (
    "perf.retries", "perf.cells_failed", "obs.spans", "obs.metric_series",
    "serve.ingest_per_s", "serve.reopen_s", "serve.accept_ratio",
    "serve.promotions", "serve.drift_alarms", "serve.wal_records",
    "serve.wal_bytes", "serve.query_us.p50", "serve.query_us.p99",
    "serve.query_samples", "serve.deliver_us.p50", "serve.deliver_us.p999",
    "serve.tick_ms.p50", "serve.tick_ms.p90",
)


def render_results(results) -> str:
    """The text ``repro all`` / ``repro fleet`` print for ``results``."""
    parts = [res.render() + "\n\n" for res in results]
    if all(res.passed for res in results):
        parts.append(f"All shape checks passed ({len(results)} artifact(s)).\n")
    return "".join(parts)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _missing_artifacts(results, expected_ids: Sequence[str]) -> List[str]:
    """Every expected artifact present, once and in order."""
    got = [res.experiment_id for res in results]
    if got != list(expected_ids):
        return [f"artifacts {got} != expected {list(expected_ids)}"]
    return []


def _failed_checks(results) -> List[str]:
    return [
        f"{res.experiment_id}: {check.render()}"
        for res in results for check in res.failed_checks()
    ]


# --------------------------------------------------------------------------
# sweep / sweep_obs: ``repro all --fast`` in-process.
# --------------------------------------------------------------------------

#: Seconds per artifact of the microbenchmark-style groups at --fast.
FAST_DURATION_S = 12.0
#: Training sweep length of the overhead models at --fast.
FAST_TRAIN_S = 20.0


def sweep_groups(seed: int) -> Dict[str, Callable[[], list]]:
    """Every ``repro all --fast`` group as a call with seeded inputs.

    The keyword arguments are the fast-mode table of
    :mod:`repro.experiments.runner`; every entry point that takes a seed
    gets its own default plus ``seed``, so seed 0 reproduces ``repro
    all --fast`` byte for byte.  The overhead models are trained inside
    the pass (fig7 pays for it, later groups reuse the memo), as they
    are in a real run.
    """
    from repro.experiments import (
        chaos, extras, fig2, fig5, fig6, fig10, fig34, fig789, tables,
    )
    from repro.experiments import prediction

    d = FAST_DURATION_S

    def models():
        return prediction.trained_models(
            duration=FAST_TRAIN_S, seed=2015 + seed
        )

    def fig789_group(fn):
        def call():
            single, multi = models()
            return fn(
                single_model=single, multi_model=multi,
                client_counts=(300, 700), duration=60.0, seed=99 + seed,
            )
        return call

    return {
        "table1": lambda: [tables.run_table1()],
        "table2": lambda: [tables.run_table2()],
        "table3": lambda: [tables.run_table3()],
        "fig2": lambda: fig2.run_fig2(duration=d, seed=42 + seed),
        "fig3": lambda: fig34.run_fig3(duration=d, seed=42 + seed),
        "fig4": lambda: fig34.run_fig4(duration=d, seed=42 + seed),
        "fig5": lambda: fig5.run_fig5(duration=d, seed=42 + seed),
        "fig6": lambda: [fig6.run_fig6(duration=d, seed=42 + seed)],
        "fig7": fig789_group(fig789.run_fig7),
        "fig8": fig789_group(fig789.run_fig8),
        "fig9": fig789_group(fig789.run_fig9),
        "fig10": lambda: fig10.run_fig10(
            model=models()[1], trials=3, duration_s=40.0, profile_s=25.0,
            seed=2015 + seed,
        ),
        "memconst": lambda: [extras.run_memconst(duration=d, seed=42 + seed)],
        "toolover": lambda: [extras.run_toolover(duration=d, seed=42 + seed)],
        "pmconsist": lambda: [
            extras.run_pmconsist(duration=d, seed=42 + seed)
        ],
        "purity": lambda: [extras.run_purity(seed=42 + seed)],
        "chaos": lambda: chaos.run_chaos(
            duration=15.0, kinds=("cpu", "bw"),
            levels=((0.0, 0.0), (0.05, 0.02), (0.10, 0.05)),
            model=models()[1], duration_s=60.0,
            seed=2015 + seed, eval_seed=4051 + seed,
            placement_seed=2023 + seed,
        ),
    }


def expected_artifacts(groups: Sequence[str]) -> List[str]:
    """The artifact ids ``groups`` produce, in ``repro all`` order."""
    from repro.experiments import runner

    return [a for a in runner.ALL_IDS if a.rstrip("abcde") in groups]


def sweep_pass(
    seed: int, *, obs_dir: Optional[Path] = None, group_span=None
) -> PassResult:
    """One ``repro all --fast`` (optionally with ``--obs-dir``) pass over
    every ``runner.GROUP_IDS`` group.

    ``group_span(gid)``, when given, is a context manager wrapped around
    each group (the traced run's per-group spans).
    """
    from repro.experiments import prediction, runner
    from repro.obs import export
    from repro.obs import runtime as obs_runtime
    from repro.perf.supervisor import CellExecutionError, reset_stats

    calls = sweep_groups(seed)
    unknown = [g for g in runner.GROUP_IDS if g not in calls]
    if unknown:
        raise RuntimeError(
            f"experiment groups {unknown} have no benchmark inputs; "
            "add them to perfbench/workloads.py"
        )
    groups = list(runner.GROUP_IDS)
    prediction.clear_model_memo()
    stats = reset_stats()
    collector = None
    if obs_dir is not None:
        collector = obs_runtime.install(obs_runtime.ObsCollector())
        obs_runtime.set_default(True)
    results = []
    problems: List[str] = []
    try:
        for gid in groups:
            try:
                if group_span is None:
                    results.extend(calls[gid]())
                else:
                    with group_span(gid):
                        results.extend(calls[gid]())
            except CellExecutionError as exc:
                problems.append(f"{gid}: {exc}")
    finally:
        if collector is not None:
            obs_runtime.set_default(False)
            obs_runtime.uninstall()
    extra: Dict[str, float] = {}
    if collector is not None:
        summary = export.write_obs_dir(collector, obs_dir)
        extra["obs.spans"] = float(summary["spans"])
        extra["obs.metric_series"] = float(summary["series"])
    extra["perf.retries"] = float(stats.retries)
    return _experiment_pass(
        results, expected_artifacts(groups), stats, problems, extra
    )


def _experiment_pass(results, expected_ids, stats, problems, extra):
    """Operations are the shape checks evaluated plus the cells executed;
    failures are the checks that did not hold plus the cells that failed
    permanently.  A missing artifact makes the pass incorrect."""
    failures = _failed_checks(results) + [
        f"cell {label}: {error}" for label, error in stats.failed
    ]
    extra["perf.cells_failed"] = float(len(stats.failed))
    cells = stats.attempts - stats.retries
    return PassResult(
        attempted=sum(len(res.checks) for res in results) + cells,
        failed=len(failures),
        digest=digest_text(render_results(results)),
        problems=problems + _missing_artifacts(results, expected_ids),
        failures=failures,
        extra=extra,
    )


# --------------------------------------------------------------------------
# fleet: ``repro fleet --trials 1`` at the default datacenter scale.
# --------------------------------------------------------------------------

#: One trial per strategy at the ROADMAP's 1000-PM scale.
FLEET_SCALE = dict(
    pms=1000, vms=10_000, clients=100_000, duration_s=300.0, epoch_s=10.0,
)
#: The same code paths at ``repro fleet --fast`` size (tests).
FLEET_TINY = dict(
    pms=24, vms=240, clients=20_000, duration_s=120.0, epoch_s=10.0,
)


def fleet_pass(seed: int) -> PassResult:
    """One VOA and one VOU trial through ``run_fleet_experiment``."""
    from repro.experiments.fleet import run_fleet_experiment
    from repro.perf.supervisor import CellExecutionError, reset_stats

    stats = reset_stats()
    problems: List[str] = []
    results = []
    try:
        results = run_fleet_experiment(
            trials=1, seed=2015 + seed, **FLEET_SCALE
        )
    except CellExecutionError as exc:
        problems.append(f"fleet: {exc}")
    return _experiment_pass(
        results, ["fleeta", "fleetb"], stats, problems,
        {"perf.retries": float(stats.retries)},
    )


# --------------------------------------------------------------------------
# serve: one closed-loop caller driving the prediction service.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeScale:
    """Shape of the generated serve trace."""

    pms: int
    ticks: int
    queries_per_tick: int
    #: Tick of the planted-coefficient regime shift.
    drift_at: int


SERVE_SCALE = ServeScale(pms=64, ticks=300, queries_per_tick=32, drift_at=150)
#: The same code paths at a few seconds' size (tests).
SERVE_TINY = ServeScale(pms=4, ticks=200, queries_per_tick=4, drift_at=100)
#: Factor of the regime shift on every planted weight.
DRIFT_SCALE = 2.0
#: Standard deviation of the noise on every planted target.
NOISE = 0.005


@dataclass
class ServeTrace:
    """Pre-generated inputs: samples per tick and queries per tick."""

    scale: ServeScale
    pm_names: List[str]
    #: samples[tick][pm index] = (x, y)
    samples: List[List[tuple]]
    #: queries[tick] = [(pm, vm_util), ...]
    queries: List[List[tuple]]
    probe: tuple


def make_serve_trace(seed: int) -> ServeTrace:
    """Monitor streams with planted linear coefficients, plus queries, of
    shape :data:`SERVE_SCALE`.

    Each PM's targets are ``intercept + w . x`` with per-PM planted
    ``w``; at ``drift_at`` every PM's weights are scaled by
    :data:`DRIFT_SCALE`, which the service's drift detector must catch.
    """
    from repro.models.samples import TARGETS
    from repro.monitor.metrics import ResourceVector

    scale = SERVE_SCALE
    rng = np.random.default_rng([20150, seed])
    names = [f"pm{i:02d}" for i in range(scale.pms)]
    intercept = rng.uniform(0.005, 0.05, size=(scale.pms, len(TARGETS)))
    weights = rng.uniform(0.05, 0.4, size=(scale.pms, len(TARGETS), 4))
    samples = []
    for tick in range(scale.ticks):
        w = weights * (DRIFT_SCALE if tick >= scale.drift_at else 1.0)
        x = rng.uniform(0.05, 0.9, size=(scale.pms, 4))
        y = intercept + np.einsum("ptk,pk->pt", w, x)
        y += NOISE * rng.standard_normal(size=y.shape)
        samples.append([
            (tuple(float(v) for v in x[p]),
             {t: float(y[p, j]) for j, t in enumerate(TARGETS)})
            for p in range(scale.pms)
        ])
    queries = []
    for tick in range(scale.ticks):
        util = rng.uniform(0.05, 0.9, size=(scale.queries_per_tick, 4))
        queries.append([
            (names[(tick * scale.queries_per_tick + q) % scale.pms],
             ResourceVector(*(float(v) for v in util[q])))
            for q in range(scale.queries_per_tick)
        ])
    probe = (names[0], ResourceVector(0.5, 0.3, 0.2, 0.4))
    return ServeTrace(scale, names, samples, queries, probe)


def serve_pass(trace: ServeTrace, state_dir: Path) -> PassResult:
    """Drive a fresh service through ``trace``, then close and reopen it.

    Every ``deliver``, ``tick``, ``query`` and ``flush`` call is timed;
    the caller waits for each reply before the next call.
    """
    from repro.serve import PredictionService

    if state_dir.exists():
        shutil.rmtree(state_dir)
    clock = time.perf_counter
    deliver_s: List[float] = []
    tick_s: List[float] = []
    query_s: List[float] = []
    verdicts: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    service = PredictionService(state_dir)
    for tick, (row, queries) in enumerate(zip(trace.samples, trace.queries)):
        for pm, (x, y) in zip(trace.pm_names, row):
            t0 = clock()
            # One sample per PM per tick: the tick is the sequence number.
            verdict = service.deliver(pm, tick, tick, x, y)
            deliver_s.append(clock() - t0)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        t0 = clock()
        service.tick(tick)
        tick_s.append(clock() - t0)
        for pm, util in queries:
            t0 = clock()
            answer = service.query(pm, util, now=tick)
            query_s.append(clock() - t0)
            statuses[answer.status] = statuses.get(answer.status, 0) + 1
    last = float(trace.scale.ticks - 1)
    t0 = clock()
    service.flush()
    flush_s = clock() - t0
    before = service.query(*trace.probe, now=last)
    stats = service.stats
    wal_bytes = service.wal.byte_size()
    problems: List[str] = []
    if stats.accepted != stats.delivered:
        problems.append(
            f"accepted {stats.accepted} != delivered {stats.delivered} "
            "on a clean trace"
        )
    if service.registry.max_version != stats.promotions:
        problems.append(
            f"registry versions {service.registry.max_version} != "
            f"promotions {stats.promotions}"
        )
    reopen_failed = 0
    t0 = clock()
    try:
        reopened = PredictionService(state_dir)
        after = reopened.query(*trace.probe, now=last)
    except Exception as exc:  # a reopen that raises is a failed operation
        reopen_failed = 1
        problems.append(f"reopen raised {type(exc).__name__}: {exc}")
        after = None
    reopen_s = clock() - t0
    if after is not None:
        reopened.wal.close()
        if (after.version, after.predictions) != (
            before.version, before.predictions
        ):
            problems.append(
                f"reopened probe answered v{after.version} "
                f"{after.predictions}, before close v{before.version} "
                f"{before.predictions}"
            )
    shutil.rmtree(state_dir)
    delivered = sum(verdicts.values())
    failures = [
        f"{n} deliveries {verdict}"
        for verdict, n in sorted(verdicts.items()) if verdict != "accepted"
    ] + [
        f"{statuses[status]} queries {status}"
        for status in ("unavailable", "degraded") if statuses.get(status)
    ]
    failed = (
        delivered - verdicts.get("accepted", 0)
        + statuses.get("unavailable", 0) + statuses.get("degraded", 0)
        + reopen_failed
    )
    ingest_s = sum(deliver_s) + sum(tick_s) + flush_s
    answers = repr((before.version, before.predictions, verdicts, statuses,
                    stats.promotions, stats.drift_alarms))
    return PassResult(
        attempted=delivered + len(query_s) + 1,
        failed=failed,
        digest=digest_text(answers),
        problems=problems,
        failures=failures,
        extra={
            "serve.ingest_per_s": stats.accepted / ingest_s,
            "serve.reopen_s": reopen_s,
            "serve.accept_ratio": stats.accepted / max(1, delivered),
            "serve.promotions": float(stats.promotions),
            "serve.drift_alarms": float(stats.drift_alarms),
            "serve.wal_records": float(service.wal.appended),
            "serve.wal_bytes": float(wal_bytes),
        },
        calls={"deliver": deliver_s, "tick": tick_s, "query": query_s},
    )
