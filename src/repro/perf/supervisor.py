"""Supervised pool execution: deadlines, bounded retries, degradation.

The plain executor trusts its workers; this module does not.  It wraps
the process-pool fan-out of :func:`repro.perf.executor.run_cells` with

* **per-cell deadlines** -- a worker that wedges (infinite loop, stuck
  I/O) trips a timeout watchdog, the pool is torn down (hung workers
  terminated), and the cell is retried;
* **bounded retries with deterministic backoff** -- a cell whose
  execution raises or times out is re-run up to
  :attr:`SupervisorConfig.max_attempts` times, waiting
  ``backoff_base_s * 2**(attempt-1)`` seconds between attempts (a fixed
  schedule, never jittered: supervision timing must not introduce a
  random stream);
* **crashed-worker detection** -- a SIGKILLed/OOM'd worker surfaces as
  ``BrokenProcessPool``; unfinished cells are requeued into a fresh
  pool, up to :attr:`SupervisorConfig.max_pool_rebuilds` rebuilds;
* **graceful degradation to serial** -- when the pool keeps breaking,
  the remaining cells run inline in the supervising process, which can
  always make progress;
* **chunked dispatch** -- with ``chunk > 1`` consecutive cells ship to
  a worker as one task (amortizing submit/pickle/result overhead);
  a chunk's deadline scales with its size, and a failed or timed-out
  chunk is split and retried as singletons so the culprit cell is
  isolated under its own unscaled deadline;
* **warm-pool reuse** -- a caller-provided ``pool_factory`` supplies
  the (shared, warm) pool instead of building one per wave; on clean
  completion the pool is left running for the next fan-out, on
  breakage its workers are terminated and ``pool_discard`` invalidates
  the handle so the rebuild path constructs a fresh one.

None of this changes *what* a cell computes: a cell is a pure function
of (code, configuration, seed), so a retry -- in a fresh worker or
inline -- produces byte-identical output, and the executor still merges
outcomes in cell order.  Supervision changes only whether a transient
failure costs the whole run.

Wall-clock reads (deadline arithmetic, backoff sleeps) are confined to
the two funnel helpers below, each carrying a justified
``noqa[REP002]`` -- the same precedent as
:func:`repro.obs.runtime.wall_now`, and enforced by the REP011 lint
rule for this file.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import runtime as _obs
from repro.perf.cells import Cell


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervised executor (``--cell-deadline`` etc.)."""

    #: Seconds to wait on one cell's result before declaring the worker
    #: hung; ``None`` disables the watchdog.
    deadline_s: Optional[float] = 600.0
    #: Total attempts per cell (first run + retries).
    max_attempts: int = 3
    #: Backoff before attempt ``k`` is ``backoff_base_s * 2**(k-2)``
    #: seconds (nothing before the first attempt).
    backoff_base_s: float = 0.05
    #: Fresh pools built after breakage before degrading to serial.
    max_pool_rebuilds: int = 2
    #: Degrade to inline execution when the pool is unrecoverable.
    serial_fallback: bool = True

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before attempt number ``attempt`` (2-based)."""
        if attempt <= 1 or self.backoff_base_s <= 0:
            return 0.0
        return self.backoff_base_s * (2.0 ** (attempt - 2))


@dataclass
class SupervisionStats:
    """What supervision had to do during one CLI invocation.

    The CLI reads this to pick an exit code: permanent failures are
    fatal (nonzero), recovered retries are a warning (zero + summary).
    """

    #: Cell executions started (including retries).
    attempts: int = 0
    #: Attempts beyond the first, per cell label.
    retries: int = 0
    #: Labels of cells that failed at least once but eventually passed.
    recovered: List[str] = field(default_factory=list)
    #: (label, error) of cells that exhausted their attempts.
    failed: List[Tuple[str, str]] = field(default_factory=list)
    #: Deadline expiries observed.
    timeouts: int = 0
    #: Fresh pools built after breakage.
    pool_rebuilds: int = 0
    #: 1 when the run degraded to inline execution.
    serial_fallbacks: int = 0

    def merge(self, other: "SupervisionStats") -> None:
        self.attempts += other.attempts
        self.retries += other.retries
        self.recovered.extend(other.recovered)
        self.failed.extend(other.failed)
        self.timeouts += other.timeouts
        self.pool_rebuilds += other.pool_rebuilds
        self.serial_fallbacks += other.serial_fallbacks

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (embedded in BENCH records and summaries)."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "recovered": sorted(self.recovered),
            "failed": [[label, error] for label, error in self.failed],
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def summary(self) -> str:
        """One-line digest for the CLI's stderr warning."""
        parts = [
            f"{self.attempts} attempt(s)",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.recovered:
            parts.append(
                f"recovered: {', '.join(sorted(set(self.recovered)))}"
            )
        if self.timeouts:
            parts.append(f"{self.timeouts} deadline expiries")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild(s)")
        if self.serial_fallbacks:
            parts.append("degraded to serial execution")
        if self.failed:
            parts.append(
                "failed: " + ", ".join(label for label, _ in self.failed)
            )
        return "supervisor: " + "; ".join(parts)


class CellExecutionError(RuntimeError):
    """One or more cells failed permanently despite supervision."""

    def __init__(self, failures: List[Tuple[str, str]]) -> None:
        self.failures = list(failures)
        labels = ", ".join(label for label, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed permanently: {labels}"
        )


# --------------------------------------------------------------------------
# Process-wide stats collector (reset by the CLI per invocation).
# --------------------------------------------------------------------------

_stats = SupervisionStats()


def stats() -> SupervisionStats:
    """The stats accumulated since the last :func:`reset_stats`."""
    return _stats


def reset_stats() -> SupervisionStats:
    """Start a fresh collection window; return the new collector."""
    global _stats
    _stats = SupervisionStats()
    return _stats


# --------------------------------------------------------------------------
# Wall-clock funnels (the only sanctioned readers in this module).
# --------------------------------------------------------------------------


def _clock() -> float:
    """Monotonic seconds for deadline arithmetic."""
    return time.monotonic()  # repro: noqa[REP002] supervision deadlines measure real worker liveness, never simulated time


def _backoff_sleep(seconds: float) -> None:
    """Wait out one deterministic backoff interval."""
    if seconds > 0:
        time.sleep(seconds)  # repro: noqa[REP002] retry backoff paces real process restarts, never simulated time


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcefully reclaim a pool whose workers may be hung.

    ``shutdown(wait=False)`` alone leaves a wedged worker running
    forever; terminating the worker processes is the only way to
    reclaim them.  ``_processes`` is stdlib-private, so failure to
    reach it degrades to a plain shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError, AttributeError):
            continue
    pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------
# The supervised fan-out.
# --------------------------------------------------------------------------

#: ``complete(index, outcome, from_pool)`` -- the executor's merge hook.
CompleteFn = Callable[[int, Any, bool], None]

#: One unit of pool dispatch: a run of consecutive ``(index, cell)``s.
Group = List[Tuple[int, Cell]]


def _chunked(pending: List[Tuple[int, Cell]], size: int) -> List[Group]:
    """Group consecutive work items into dispatch units of ``size``."""
    if size <= 1:
        return [[item] for item in pending]
    return [pending[k:k + size] for k in range(0, len(pending), size)]


def _group_label(group: Group) -> str:
    if len(group) == 1:
        return group[0][1].label()
    return f"chunk[{len(group)}@{group[0][1].label()}]"


def run_supervised(
    pending: List[Tuple[int, Cell]],
    *,
    jobs: int,
    worker: Callable[..., Any],
    worker_args: Tuple[Any, ...],
    execute_inline: Callable[[Cell], Any],
    complete: CompleteFn,
    config: Optional[SupervisorConfig] = None,
    attempts_out: Optional[Dict[int, int]] = None,
    chunk: int = 1,
    chunk_worker: Optional[Callable[..., Any]] = None,
    pool_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
    pool_discard: Optional[Callable[[ProcessPoolExecutor], None]] = None,
) -> List[Tuple[int, Cell, str]]:
    """Execute ``pending`` cells under supervision; return failures.

    ``worker`` is the picklable pool entry point, invoked as
    ``worker(cell, *worker_args)``; ``execute_inline`` runs a cell in
    the supervising process (serial path / degraded mode).  Completed
    cells are reported through ``complete`` in completion order -- the
    caller owns ordering, checkpointing and accounting.  Returns the
    ``(index, cell, error)`` triples of cells that exhausted their
    attempts; the caller decides whether that is fatal.

    With ``chunk > 1`` and a ``chunk_worker``, runs of ``chunk``
    consecutive cells are submitted as one task --
    ``chunk_worker(cells_tuple)`` must return one outcome per cell, in
    order.  ``pool_factory(workers)``, when given, supplies the pool
    (the warm-pool path); a pool it supplied is left running on clean
    completion and reported through ``pool_discard`` after breakage.
    """
    config = config or SupervisorConfig()
    baseline = (
        _stats.attempts, _stats.retries, _stats.timeouts,
        _stats.pool_rebuilds, _stats.serial_fallbacks,
        len(_stats.recovered), len(_stats.failed),
    )
    try:
        return _run_supervised(
            pending,
            jobs=jobs,
            worker=worker,
            worker_args=worker_args,
            execute_inline=execute_inline,
            complete=complete,
            config=config,
            attempts_out=attempts_out,
            chunk=chunk,
            chunk_worker=chunk_worker,
            pool_factory=pool_factory,
            pool_discard=pool_discard,
        )
    finally:
        _publish_obs_counters(baseline)


def _publish_obs_counters(baseline: Tuple[int, ...]) -> None:
    """Mirror this fan-out's SupervisionStats deltas into obs counters."""
    if _obs.installed() is None:
        return
    current = (
        _stats.attempts, _stats.retries, _stats.timeouts,
        _stats.pool_rebuilds, _stats.serial_fallbacks,
        len(_stats.recovered), len(_stats.failed),
    )
    names = (
        "repro_supervisor_attempts_total",
        "repro_supervisor_retries_total",
        "repro_supervisor_timeouts_total",
        "repro_supervisor_pool_rebuilds_total",
        "repro_supervisor_serial_fallbacks_total",
        "repro_supervisor_recovered_total",
        "repro_supervisor_failed_total",
    )
    for name, before, after in zip(names, baseline, current):
        _obs.inc(name, max(0, after - before))


def _run_supervised(
    pending: List[Tuple[int, Cell]],
    *,
    jobs: int,
    worker: Callable[..., Any],
    worker_args: Tuple[Any, ...],
    execute_inline: Callable[[Cell], Any],
    complete: CompleteFn,
    config: SupervisorConfig,
    attempts_out: Optional[Dict[int, int]] = None,
    chunk: int = 1,
    chunk_worker: Optional[Callable[..., Any]] = None,
    pool_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
    pool_discard: Optional[Callable[[ProcessPoolExecutor], None]] = None,
) -> List[Tuple[int, Cell, str]]:
    # ``attempts_out`` (when given) is maintained *live*, so the
    # caller's completion hook can record the attempt count that
    # produced each outcome.
    attempts: Dict[int, int] = (
        attempts_out if attempts_out is not None else {}
    )
    attempts.update({i: 0 for i, _ in pending})
    ever_failed: Dict[int, bool] = {i: False for i, _ in pending}
    timed_out: Dict[int, bool] = {i: False for i, _ in pending}
    failures: List[Tuple[int, Cell, str]] = []
    if chunk_worker is None:
        chunk = 1
    queue: List[Group] = _chunked(list(pending), chunk)
    rebuilds = 0
    serial = jobs <= 1

    def _giveup(i: int, cell: Cell, error: str) -> None:
        failures.append((i, cell, error))
        _stats.failed.append((cell.label(), error))

    def _succeed(i: int, cell: Cell, outcome: Any, from_pool: bool) -> None:
        if ever_failed[i]:
            _stats.recovered.append(cell.label())
        complete(i, outcome, from_pool)

    def _charge(i: int) -> None:
        attempts[i] += 1
        _stats.attempts += 1
        if attempts[i] > 1:
            _stats.retries += 1

    def _uncharge(i: int) -> None:
        attempts[i] -= 1
        _stats.attempts -= 1
        if attempts[i] > 0:
            _stats.retries -= 1

    def _run_inline(i: int, cell: Cell) -> None:
        while True:
            _backoff_sleep(config.backoff_s(attempts[i] + 1))
            _charge(i)
            try:
                with _obs.span(
                    "supervisor.attempt", "supervisor",
                    cell=cell.label(), attempt=attempts[i],
                ):
                    outcome = execute_inline(cell)
            except Exception as exc:
                ever_failed[i] = True
                if attempts[i] >= config.max_attempts:
                    _giveup(i, cell, f"{type(exc).__name__}: {exc}")
                    return
                continue
            _succeed(i, cell, outcome, from_pool=False)
            return

    def _fail_group(group: Group, error: str, requeue: List[Group]) -> None:
        """Retry policy after one failed group attempt.

        A singleton is requeued as-is; a failed chunk is split and its
        members retried as singletons, isolating the culprit cell.
        """
        for i, cell in group:
            ever_failed[i] = True
            if attempts[i] >= config.max_attempts:
                _giveup(i, cell, error)
            else:
                requeue.append([(i, cell)])

    def _succeed_group(
        group: Group, outcome: Any, requeue: List[Group]
    ) -> None:
        if len(group) == 1:
            i, cell = group[0]
            _succeed(i, cell, outcome, from_pool=True)
            return
        results = (
            list(outcome) if isinstance(outcome, (list, tuple)) else None
        )
        if results is None or len(results) != len(group):
            _fail_group(
                group,
                f"chunk worker returned "
                f"{type(outcome).__name__} instead of "
                f"{len(group)} outcomes",
                requeue,
            )
            return
        for (i, cell), value in zip(group, results):
            _succeed(i, cell, value, from_pool=True)

    while queue:
        if serial:
            for group in queue:
                for i, cell in group:
                    _run_inline(i, cell)
            queue = []
            break

        requeue: List[Group] = []
        owns_pool = pool_factory is None
        pool = (
            ProcessPoolExecutor(max_workers=min(jobs, len(queue)))
            if owns_pool
            else pool_factory(min(jobs, len(queue)))
        )
        pool_broken = False
        try:
            futures = []
            for qpos, group in enumerate(queue):
                _backoff_sleep(config.backoff_s(attempts[group[0][0]] + 1))
                for i, _ in group:
                    _charge(i)
                try:
                    if len(group) == 1:
                        future = pool.submit(
                            worker, group[0][1], *worker_args
                        )
                    else:
                        # Chunk context rides the pool initializer, not
                        # the task payload (pre-pickled once per pool).
                        future = pool.submit(
                            chunk_worker, tuple(c for _, c in group)
                        )
                except BrokenExecutor:
                    # The pool died before accepting work; nothing from
                    # here on was attempted.
                    for i, _ in group:
                        _uncharge(i)
                    pool_broken = True
                    requeue.extend(queue[qpos:])
                    break
                futures.append((group, future))
            for group, future in futures:
                if pool_broken:
                    # The pool died under us: anything unfinished was
                    # never really attempted -- uncharge and requeue.
                    if future.done() and not future.cancelled():
                        exc = future.exception()
                        if exc is None:
                            _succeed_group(group, future.result(), requeue)
                            continue
                    for i, _ in group:
                        _uncharge(i)
                    requeue.append(group)
                    continue
                deadline = config.deadline_s
                if deadline is not None:
                    # A chunk gets proportionally more wall time; its
                    # members retry as singletons under the unscaled
                    # deadline when it expires.
                    deadline *= len(group)
                try:
                    with _obs.span(
                        "supervisor.attempt", "supervisor",
                        cell=_group_label(group),
                        attempt=attempts[group[0][0]],
                    ):
                        outcome = future.result(timeout=deadline)
                except FutureTimeoutError:
                    _stats.timeouts += 1
                    pool_broken = True
                    _terminate_workers(pool)
                    if len(group) == 1:
                        timed_out[group[0][0]] = True
                        _fail_group(
                            group,
                            f"deadline of {config.deadline_s}s expired",
                            requeue,
                        )
                    else:
                        _fail_group(
                            group,
                            f"chunk deadline of {deadline}s expired",
                            requeue,
                        )
                except BrokenExecutor as exc:
                    # A worker died (SIGKILL/OOM/crash); this group may
                    # or may not have been the victim -- charge it (it
                    # was in flight) and requeue the rest uncharged.
                    pool_broken = True
                    _fail_group(group, f"worker died: {exc}", requeue)
                except Exception as exc:
                    # The cell itself raised inside a healthy worker.
                    _fail_group(
                        group, f"{type(exc).__name__}: {exc}", requeue
                    )
                else:
                    _succeed_group(group, outcome, requeue)
        finally:
            if pool_broken:
                _terminate_workers(pool)
                if not owns_pool and pool_discard is not None:
                    pool_discard(pool)
            elif owns_pool:
                pool.shutdown(wait=True)

        queue = requeue
        if queue and pool_broken:
            rebuilds += 1
            _stats.pool_rebuilds += 1
            if rebuilds > config.max_pool_rebuilds:
                if not config.serial_fallback:
                    for group in queue:
                        for i, cell in group:
                            _giveup(i, cell, "process pool unrecoverable")
                    queue = []
                else:
                    _stats.serial_fallbacks += 1
                    serial = True
                    # A cell that already tripped the watchdog would
                    # hang the supervising process itself inline.
                    kept: List[Group] = []
                    for group in queue:
                        live = [
                            (i, c) for i, c in group if not timed_out[i]
                        ]
                        for i, cell in group:
                            if timed_out[i]:
                                _giveup(
                                    i, cell,
                                    "deadline expired; not retried inline",
                                )
                        if live:
                            kept.append(live)
                    queue = kept

    return failures
