"""The warm process pool shared across sweep phases.

Building a ``ProcessPoolExecutor`` is the single largest fixed cost of
a parallel sweep: every worker is a fresh interpreter fork that must
re-import the simulation stack before it can run its first cell.  A
pool built per fan-out would pay that cost once per ``run_cells`` call,
a dozen times in a ``repro all`` run with a dozen sweeps.

This module keeps **one** module-level pool warm across fan-outs,
keyed by worker count alone: a request for the same count reuses the
running workers, a request for a different count tears the old pool
down first.  The pool carries no per-run context -- the sanitize and
observability flags travel with every task as arguments of
:func:`repro.perf.executor._pool_worker`, so a sanitized or observed
fan-out reuses the workers of a plain one.

Lifecycle:

* :func:`prestart` builds the pool *and spawns its workers* eagerly,
  so worker start-up overlaps the executor's cache/checkpoint probe;
* :func:`get_pool` returns the warm pool (building it on demand);
* :func:`discard` drops the handle after the supervisor terminated a
  broken pool's workers -- the next :func:`get_pool` builds fresh,
  which is exactly the supervisor's rebuild path;
* :func:`shutdown_pool` is the explicit clean shutdown (end of a CLI
  invocation / fuzz campaign), with an ``atexit`` backstop for API users.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.obs import runtime as obs

_pool: Optional[ProcessPoolExecutor] = None
_workers: Optional[int] = None

#: Executors dropped via :func:`discard` whose ``shutdown`` has not run
#: yet -- :func:`shutdown_pool` reaps them so a discarded pool's
#: manager thread cannot outlive the invocation.
_discarded: list = []


def get_pool(max_workers: int) -> ProcessPoolExecutor:
    """The warm pool of ``max_workers`` workers.

    Reuses the running pool when the worker count matches; otherwise
    the old pool is shut down and a fresh one built.
    """
    global _pool, _workers
    if _pool is not None and _workers == max_workers:
        return _pool
    shutdown_pool()
    _pool = ProcessPoolExecutor(max_workers=max_workers)
    _workers = max_workers
    return _pool


def _warmup() -> None:
    """No-op warm-up task; submitting it forces the workers to spawn."""
    return None


def prestart(max_workers: int) -> ProcessPoolExecutor:
    """Build the pool and spawn its workers now, ahead of first submit.

    ``ProcessPoolExecutor`` spawns workers lazily on first submit, so we
    submit a no-op: under the fork start method that launches the whole
    worker set *and* the executor's manager thread, letting interpreter
    start-up overlap whatever the caller does next (the executor calls
    this before its cache probe).  Going through ``submit`` rather than
    the private spawn hooks matters twice over -- the manager thread is
    what makes a later :func:`shutdown_pool` actually reap the workers,
    and forking behind a live manager thread (a reused warm pool) is
    the stdlib's documented deadlock.  Best effort: the warm-up result
    is never awaited and a failed submit leaves the pool cold but
    usable.
    """
    pool = get_pool(max_workers)
    try:
        pool.submit(_warmup)
    except RuntimeError:
        # Shut-down or broken pool (BrokenExecutor is a RuntimeError):
        # leave it cold, the supervisor's rebuild path handles the rest.
        pass
    return pool


def discard(pool: Optional[ProcessPoolExecutor] = None) -> None:
    """Drop the warm handle for a pool whose workers were terminated.

    Called by the supervisor after it tore down a broken pool
    (:func:`repro.perf.supervisor._terminate_workers` already reclaimed
    the processes); the next :func:`get_pool` builds fresh.
    The discarded executor is remembered so :func:`shutdown_pool` can
    still run its ``shutdown`` (releasing the manager thread) even
    though it is no longer the warm handle.  A ``pool`` argument that
    is not the current handle only joins that reap list.
    """
    global _pool, _workers
    target = pool if pool is not None else _pool
    if target is not None and not any(p is target for p in _discarded):
        _discarded.append(target)
    if pool is not None and pool is not _pool:
        return
    _pool = None
    _workers = None


def _shutdown_one(pool: ProcessPoolExecutor, *, wait: bool) -> None:
    """Best-effort ``shutdown``: a broken pool must not abort teardown."""
    try:
        pool.shutdown(wait=wait, cancel_futures=True)
    except Exception as exc:
        # A pool whose workers were killed mid-task can raise from its
        # own teardown; shutdown is idempotent cleanup, never fatal --
        # but the churn is worth a counter on supervision dashboards.
        obs.inc(
            "repro_pool_shutdown_errors_total", error=type(exc).__name__
        )


def shutdown_pool() -> None:
    """Explicitly shut the warm pool down (end of invocation / campaign).

    Idempotent and safe to double-fire: the explicit CLI shutdown and
    the ``atexit`` backstop may both run, and either may race a pool
    that is already broken or was :func:`discard`-ed.  Discarded
    executors are reaped without waiting (their workers are gone).
    """
    global _pool, _workers
    pool, _pool, _workers = _pool, None, None
    stale, _discarded[:] = list(_discarded), []
    for executor in stale:
        _shutdown_one(executor, wait=False)
    if pool is not None and not any(p is pool for p in stale):
        _shutdown_one(pool, wait=True)


atexit.register(shutdown_pool)
