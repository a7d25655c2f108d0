"""Parallel cell executor: deterministic fan-out over processes.

``run_cells`` executes a list of :class:`~repro.perf.cells.Cell`
descriptors and returns their values **in cell order, never completion
order** -- with every cell seeded independently (a property the serial
loops already had), parallel output is byte-identical to serial by
construction.  ``jobs=1`` runs inline in the calling process (the
serial path, zero overhead); ``jobs>1`` fans out one cell per task
over the **warm** process pool of :mod:`repro.perf.pool` -- spun up
before the cache probe so worker start-up overlaps probing, and kept
alive across sweep phases.  The sanitize/obs flags travel with every
task, so one pool serves plain, sanitized and observed fan-outs alike.

Sanitizer accounting survives the fan-out: each worker runs its cell
under the parent's sanitize default, harvests that cell's per-stream
RNG draw counts and event-pop tally, and ships them home, where they
are merged into the parent's collector -- so ``repro run --sanitize
--jobs 4`` reports exactly the counts of a serial sanitized run.

Execution is *supervised*: pool fan-out routes through
:mod:`repro.perf.supervisor` (per-cell deadlines, bounded retries with
deterministic backoff, crashed-worker recovery, serial degradation),
and -- when a :class:`~repro.perf.manifest.RunManifest` is installed
(``--run-dir``) -- every planned cell is recorded to an append-only
ledger and every completed cell is checkpointed, so an interrupted run
resumed with ``--resume`` re-executes only what is missing.  Cells that
exhaust their attempts raise
:class:`~repro.perf.supervisor.CellExecutionError` *after* every other
cell has completed and been checkpointed, so a partial failure never
discards sibling work.

The module also owns the process-wide execution defaults (``--jobs``,
``--cache-dir``, ``--run-dir``/``--resume``, supervisor knobs) so the
CLI can configure fan-out without threading parameters through every
experiment signature -- the same pattern :mod:`repro.sim.sanitize`
uses for its ``--sanitize`` default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs import runtime as obs
from repro.perf import pool as warmpool
from repro.perf.cache import ResultCache
from repro.perf.cells import Cell
from repro.perf.manifest import RunManifest
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisorConfig,
    run_supervised,
)
from repro.sim import sanitize


@dataclass
class CellOutcome:
    """Everything one executed cell produced.

    ``draw_counts`` / ``pops`` carry the sanitizer accounting of the
    cell's own simulators (empty when the cell ran unsanitized); they
    let the parent process report aggregate counts identical to a
    serial run, and let a cache hit replay the accounting of the run
    that produced it.  ``obs`` travels the same way: when observability
    is enabled the cell runs under a scoped collector and ships its
    metrics/spans snapshot home for the parent to merge (``None`` when
    observability was off).
    """

    value: Any
    events: int = 0
    draw_counts: Dict[str, int] = field(default_factory=dict)
    pops: int = 0
    obs: Optional[Dict[str, Any]] = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None`` -> default, ``<=0`` -> CPUs."""
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# --------------------------------------------------------------------------
# Process-wide execution defaults (wired up by the CLI).
# --------------------------------------------------------------------------

_default_jobs = 1
_default_cache: Optional[ResultCache] = None
_default_manifest: Optional[RunManifest] = None
_default_resume = False
_default_supervisor: Optional[SupervisorConfig] = None


def default_jobs() -> int:
    """Worker count used when callers do not pass ``jobs`` explicitly."""
    return _default_jobs


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide worker count (``repro ... --jobs N``)."""
    global _default_jobs
    _default_jobs = int(jobs)


def default_cache() -> Optional[ResultCache]:
    """Cache used when callers do not pass one explicitly."""
    return _default_cache


def set_default_cache(cache: Optional[ResultCache]) -> None:
    """Install (or clear) the process-wide result cache."""
    global _default_cache
    _default_cache = cache


def default_manifest() -> Optional[RunManifest]:
    """Run manifest cells are recorded to (``--run-dir``), or ``None``."""
    return _default_manifest


def set_default_manifest(manifest: Optional[RunManifest]) -> None:
    """Install (or clear) the process-wide run manifest."""
    global _default_manifest
    _default_manifest = manifest


def default_resume() -> bool:
    """True when completed cells are restored from checkpoints."""
    return _default_resume


def set_default_resume(resume: bool) -> None:
    """Enable/disable checkpoint restoration (``--resume``)."""
    global _default_resume
    _default_resume = bool(resume)


def default_supervisor() -> SupervisorConfig:
    """Supervision knobs used by :func:`run_cells`."""
    return _default_supervisor or SupervisorConfig()


def set_default_supervisor(config: Optional[SupervisorConfig]) -> None:
    """Install (or clear) the process-wide supervisor configuration."""
    global _default_supervisor
    _default_supervisor = config


@contextmanager
def execution_defaults(
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    manifest: Optional[RunManifest] = None,
    resume: Optional[bool] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Iterator[None]:
    """Temporarily install execution defaults (CLI / test scoping)."""
    prev = (
        _default_jobs, _default_cache, _default_manifest,
        _default_resume, _default_supervisor,
    )
    if jobs is not None:
        set_default_jobs(jobs)
    if cache is not None:
        set_default_cache(cache)
    if manifest is not None:
        set_default_manifest(manifest)
    if resume is not None:
        set_default_resume(resume)
    if supervisor is not None:
        set_default_supervisor(supervisor)
    try:
        yield
    finally:
        set_default_jobs(prev[0])
        set_default_cache(prev[1])
        set_default_manifest(prev[2])
        set_default_resume(prev[3])
        set_default_supervisor(prev[4])


# --------------------------------------------------------------------------
# Execution.
# --------------------------------------------------------------------------


def _sanitized_execute(cell: Cell) -> CellOutcome:
    """Run one cell, harvesting its sanitizer accounting as a delta.

    Works in both the inline path and inside a pool worker: the delta
    of the process-wide collector across the run is exactly this cell's
    accounting, because cells execute one at a time per process.
    """
    before_counts = sanitize.aggregate_draw_counts()
    before_pops = sanitize.total_pops()
    value, events = cell.run()
    after_counts = sanitize.aggregate_draw_counts()
    draw_counts = {
        name: count - before_counts.get(name, 0)
        for name, count in after_counts.items()
        if count - before_counts.get(name, 0)
    }
    return CellOutcome(
        value=value,
        events=events,
        draw_counts=draw_counts,
        pops=sanitize.total_pops() - before_pops,
    )


def _plain_execute(cell: Cell) -> CellOutcome:
    """Run one cell without observability scoping."""
    if sanitize.default_enabled():
        return _sanitized_execute(cell)
    value, events = cell.run()
    return CellOutcome(value=value, events=events)


def _execute_cell(cell: Cell) -> CellOutcome:
    """Run one cell in the current process.

    With observability enabled the cell runs under its own scoped
    collector -- in a pool worker *and* inline -- so every outcome
    carries exactly its cell's snapshot and the parent merges them
    identically on both paths (and on cache/checkpoint replays).
    """
    if not obs.default_enabled():
        return _plain_execute(cell)
    previous = obs.installed()
    child = obs.install(obs.ObsCollector())
    try:
        with obs.span(
            "executor.cell", "executor", cell=cell.label(), group=cell.group
        ):
            outcome = _plain_execute(cell)
    finally:
        if previous is not None:
            obs.install(previous)
        else:
            obs.uninstall()
    outcome.obs = child.snapshot()
    return outcome


def _pool_worker(
    cell: Cell, sanitize_enabled: bool, obs_enabled: bool = False
) -> CellOutcome:
    """Top-level worker entry point (must be picklable by name)."""
    previous = sanitize.default_enabled()
    previous_obs = obs.default_enabled()
    sanitize.set_default(sanitize_enabled)
    obs.set_default(obs_enabled)
    try:
        return _execute_cell(cell)
    finally:
        sanitize.set_default(previous)
        obs.set_default(previous_obs)


def _merge_accounting(outcome: CellOutcome) -> None:
    """Fold a remote/cached cell's sanitizer accounting into this process.

    Registers a synthetic hook set carrying the cell's draw counts and
    pop tally, so ``aggregate_draw_counts`` / ``total_pops`` report the
    same totals a serial in-process run would have.
    """
    if not sanitize.default_enabled():
        return
    if not outcome.draw_counts and not outcome.pops:
        return
    hooks = sanitize.SanitizerHooks()
    hooks.draw_counts.update(outcome.draw_counts)
    hooks.pops = outcome.pops
    sanitize.register_hooks(hooks)


def _merge_obs(outcome: CellOutcome) -> None:
    """Fold a cell's observability snapshot into the parent collector.

    Cache hits and checkpoint restores replay the snapshot of the run
    that produced them, exactly as sanitizer accounting replays.
    """
    collector = obs.installed()
    snap = getattr(outcome, "obs", None)
    if collector is None or not snap:
        return
    collector.merge_snapshot(snap)


#: Marks an outcome slot whose value was handed to ``consume`` and
#: released -- distinct from ``None`` (still missing).
_CONSUMED = object()


def run_cells(
    cells: Sequence[Cell],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    phase: Optional[str] = None,
    manifest: Optional[RunManifest] = None,
    resume: Optional[bool] = None,
    supervisor: Optional[SupervisorConfig] = None,
    consume: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Execute ``cells`` and return their values in input order.

    Parameters
    ----------
    cells:
        The work items.  Each must be independently executable -- no
        cell may observe another's side effects.
    jobs:
        Worker processes; ``None`` uses :func:`default_jobs`, ``<= 0``
        uses the machine's CPU count, ``1`` runs inline.
    cache:
        Optional :class:`ResultCache`; ``None`` uses the process-wide
        default (``--cache-dir``), which may itself be absent.
    phase:
        Label of the run's ``executor.*`` obs counters and span;
        defaults to the first cell's ``group``.
    manifest:
        Optional :class:`~repro.perf.manifest.RunManifest`; ``None``
        uses the process-wide default (``--run-dir``).  When set, every
        cell is planned in the ledger and every completed cell is
        checkpointed before this function returns or raises.
    resume:
        When true (or the ``--resume`` default is installed), cells
        with a verified checkpoint in ``manifest`` are restored instead
        of executed.
    supervisor:
        Supervision knobs; ``None`` uses the process-wide default.
    consume:
        Incremental-consume (streaming) mode: ``consume(index, value)``
        is invoked for every cell **in strict cell order** as soon as
        the ordered prefix completes, and the outcome's slot is
        released immediately afterwards -- the fan-out never holds more
        than the out-of-order completion window in memory, which is
        what lets a fleet sweep aggregate thousands of cell summaries
        with bounded RSS.  Checkpointing, caching and sanitizer/obs
        accounting are unchanged (a resumed run re-consumes restored
        cells, so aggregators rebuild exactly).  The return value is
        then an empty list.  If a cell fails permanently, cells after
        it are *not* consumed (their order slot never fills) and
        :class:`CellExecutionError` is raised as usual.

    Raises
    ------
    CellExecutionError
        When one or more cells fail permanently despite retries.  All
        surviving cells have completed (and been checkpointed /
        cached) first, so a subsequent ``--resume`` run re-executes
        only the failed cells.
    """
    if not cells:
        return []
    jobs = resolve_jobs(jobs)
    if cache is None:
        cache = default_cache()
    if manifest is None:
        manifest = default_manifest()
    if resume is None:
        resume = default_resume()
    config = supervisor or default_supervisor()
    phase_name = phase or cells[0].group

    if jobs > 1 and len(cells) > 1:
        # Spin the warm pool up now so worker start-up overlaps the
        # cache/checkpoint probe below (probe first, submit only the
        # misses into the already-running pool).
        warmpool.prestart(jobs)

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    hits = 0
    if manifest is not None:
        manifest.plan(cells)
        if resume:
            for i, cell in enumerate(cells):
                restored = manifest.load(cell)
                if restored is not None:
                    outcomes[i] = restored
                    _merge_accounting(restored)
                    _merge_obs(restored)
    if cache is not None:
        for i, cell in enumerate(cells):
            if outcomes[i] is not None:
                continue
            cached = cache.get(cell)
            if cached is not None:
                outcomes[i] = cached
                _merge_accounting(cached)
                _merge_obs(cached)
                hits += 1
    missing = [i for i, out in enumerate(outcomes) if out is None]
    attempts: Dict[int, int] = {}
    if cache is not None:
        obs.inc("repro_executor_cache_hits_total", hits, phase=phase_name)
        obs.inc(
            "repro_executor_cache_misses_total", len(missing),
            phase=phase_name,
        )
    obs.inc("repro_executor_cells_total", len(cells), phase=phase_name)

    consumed_through = 0

    def drain() -> None:
        """Hand the completed ordered prefix to ``consume``, freeing
        each outcome slot as it goes (streaming mode only)."""
        nonlocal consumed_through
        while consumed_through < len(cells):
            outcome = outcomes[consumed_through]
            if outcome is None:
                return
            consume(consumed_through, outcome.value)
            outcomes[consumed_through] = _CONSUMED  # type: ignore[call-overload]
            consumed_through += 1

    def complete(i: int, outcome: CellOutcome, from_pool: bool) -> None:
        outcomes[i] = outcome
        if from_pool:
            _merge_accounting(outcome)
        _merge_obs(outcome)
        if cache is not None:
            cache.put(cells[i], outcome)
        if manifest is not None:
            # The supervisor charges the attempt before running it, so
            # the live count already includes the one that succeeded.
            manifest.record_done(
                cells[i], outcome, attempts=attempts.get(i, 0) or 1
            )
        if consume is not None:
            drain()

    if consume is not None:
        # Cache/checkpoint hits may already form a consumable prefix.
        drain()

    with obs.span(
        "executor.run_cells", "executor",
        phase=phase_name, cells=len(cells), missing=len(missing),
    ):
        failures = run_supervised(
            [(i, cells[i]) for i in missing],
            jobs=jobs if len(missing) > 1 else 1,
            worker=_pool_worker,
            worker_args=(sanitize.default_enabled(), obs.default_enabled()),
            execute_inline=_execute_cell,
            complete=complete,
            config=config,
            attempts_out=attempts,
        )

    if manifest is not None:
        for i, cell, error in failures:
            manifest.record_failed(
                cell, attempts=attempts.get(i, 0), error=error
            )
    if failures:
        raise CellExecutionError(
            [(cell.label(), error) for _, cell, error in failures]
        )
    if consume is not None:
        return []
    return [o.value for o in outcomes]  # type: ignore[union-attr]
