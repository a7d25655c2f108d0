"""The warm process pool shared across sweep phases.

Building a ``ProcessPoolExecutor`` is the single largest fixed cost of
a parallel sweep: every worker is a fresh interpreter fork that must
re-import the simulation stack before it can run its first cell.  The
plain executor paid that cost once *per fan-out*; a ``repro all`` run
with a dozen sweeps paid it a dozen times.

This module keeps **one** module-level pool warm across fan-outs.  The
pool is keyed by a *context signature* -- the worker count plus a
digest of the pre-pickled shared context (the sanitize/observability
defaults every worker needs) -- so a request with the same signature
reuses the running workers and a request with a different one tears
the old pool down first.  The shared context itself is pickled **once**
and shipped to each worker through the pool initializer, not with
every task.

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
import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional, Tuple

from repro.obs import runtime as obs

_pool: Optional[ProcessPoolExecutor] = None
_signature: Optional[Tuple[int, str]] = None

#: Executors dropped via :func:`discard` whose ``shutdown`` has not run
#: yet -- :func:`shutdown_pool` reaps them so a discarded pool's
#: manager thread cannot outlive the invocation.
_discarded: list = []

#: Worker-side shared context, set once per worker by the initializer.
_worker_context: Optional[Tuple[Any, ...]] = None


def _init_worker(blob: bytes) -> None:
    """Pool initializer: unpack the pre-pickled shared context."""
    global _worker_context
    _worker_context = pickle.loads(blob)


def worker_context() -> Optional[Tuple[Any, ...]]:
    """The shared context inside a pool worker (``None`` elsewhere)."""
    return _worker_context


def context_blob(context: Tuple[Any, ...]) -> bytes:
    """Pickle the shared context once, for the initializer and the key."""
    return pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)


def _sig(max_workers: int, blob: bytes) -> Tuple[int, str]:
    return (max_workers, hashlib.sha256(blob).hexdigest())


def get_pool(
    max_workers: int, context: Tuple[Any, ...]
) -> ProcessPoolExecutor:
    """The warm pool for ``(max_workers, context)``.

    Reuses the running pool when the signature matches; otherwise the
    old pool is shut down and a fresh one built with ``context``
    pre-pickled into its initializer.
    """
    global _pool, _signature
    blob = context_blob(context)
    sig = _sig(max_workers, blob)
    if _pool is not None and _signature == sig:
        return _pool
    shutdown_pool()
    _pool = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(blob,),
    )
    _signature = sig
    return _pool


def _warmup() -> None:
    """No-op warm-up task; submitting it forces the workers to spawn."""
    return None


def prestart(
    max_workers: int, context: Tuple[Any, ...]
) -> ProcessPoolExecutor:
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
    pool = get_pool(max_workers, context)
    try:
        pool.submit(_warmup)
    except RuntimeError:
        # Shut-down or broken pool (BrokenExecutor is a RuntimeError):
        # leave it cold, the supervisor's rebuild path handles the rest.
        pass
    return pool


def discard(pool: Optional[ProcessPoolExecutor] = None) -> None:
    """Drop the warm handle for a pool whose workers were terminated.

    Called by the executor after the supervisor tore down a broken
    pool (:func:`repro.perf.supervisor._terminate_workers` already
    reclaimed the processes); the next :func:`get_pool` builds fresh.
    The discarded executor is remembered so :func:`shutdown_pool` can
    still run its ``shutdown`` (releasing the manager thread) even
    though it is no longer the warm handle.  A ``pool`` argument that
    is not the current handle only joins that reap list.
    """
    global _pool, _signature
    target = pool if pool is not None else _pool
    if target is not None and not any(p is target for p in _discarded):
        _discarded.append(target)
    if pool is not None and pool is not _pool:
        return
    _pool = None
    _signature = None


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
    global _pool, _signature
    pool, _pool, _signature = _pool, None, None
    stale, _discarded[:] = list(_discarded), []
    for executor in stale:
        _shutdown_one(executor, wait=False)
    if pool is not None and not any(p is pool for p in stale):
        _shutdown_one(pool, wait=True)


atexit.register(shutdown_pool)
