"""The warm pool: reuse, rebuild, shutdown, reaping, and its contract.

One pool, keyed by worker count alone, serves every fan-out of a run:
the sanitize/obs flags travel with each task, so a sanitized or
observed fan-out reuses the workers of a plain one and still reports
exactly the accounting of a serial run.
"""

from __future__ import annotations

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.registry import KIND_COUNTER
from repro.perf import pool as warm_pool
from repro.perf.cells import MicrobenchCell
from repro.perf.executor import run_cells
from repro.sim import sanitize


@pytest.fixture(autouse=True)
def clean_pool():
    warm_pool.shutdown_pool()
    yield
    warm_pool.shutdown_pool()


def _answer() -> int:
    return 42


def _cells():
    return [
        MicrobenchCell(
            kind="bw", n_vms=1, level=level, index=i,
            duration=6.0, seed=42,
        )
        for i, level in enumerate((16.0, 32.0, 64.0, 96.0))
    ]


def _counter_values(collector):
    out = {}
    for name, kind, _help, children in collector.metrics.families():
        if kind == KIND_COUNTER:
            for key, child in children:
                out[(name, key)] = child.value
    return out


class TestWarmPool:
    def test_pool_reused_for_same_worker_count(self):
        first = warm_pool.get_pool(2)
        assert warm_pool.get_pool(2) is first

    def test_pool_rebuilt_when_worker_count_changes(self):
        first = warm_pool.get_pool(2)
        second = warm_pool.get_pool(3)
        assert second is not first

    def test_discard_forces_fresh_pool(self):
        first = warm_pool.get_pool(2)
        warm_pool.discard(first)
        second = warm_pool.get_pool(2)
        assert second is not first

    def test_discard_ignores_stale_handle(self):
        current = warm_pool.get_pool(2)
        warm_pool.discard(object())  # not the live pool: must be a no-op
        assert warm_pool.get_pool(2) is current

    def test_shutdown_clears_handle(self):
        first = warm_pool.get_pool(2)
        warm_pool.shutdown_pool()
        second = warm_pool.get_pool(2)
        assert second is not first

    def test_prestart_is_best_effort_and_reuses(self):
        pool = warm_pool.prestart(2)
        assert warm_pool.get_pool(2) is pool


class TestOnePoolServesEveryContext:
    def test_sanitized_fan_out_reuses_plain_pool(self):
        cells = _cells()
        with sanitize.sanitized():
            serial_values = run_cells(cells, jobs=1)
            serial_counts = sanitize.aggregate_draw_counts()
            serial_pops = sanitize.total_pops()
        plain_values = run_cells(cells, jobs=2)
        pool = warm_pool.get_pool(2)
        with sanitize.sanitized():
            values = run_cells(cells, jobs=2)
            counts = sanitize.aggregate_draw_counts()
            pops = sanitize.total_pops()
        assert warm_pool.get_pool(2) is pool
        assert plain_values == serial_values
        assert values == serial_values
        assert serial_counts  # the cells draw from named streams
        assert counts == serial_counts
        assert pops == serial_pops

    def test_observed_fan_out_reuses_plain_pool(self):
        cells = _cells()
        with obs_runtime.collecting() as serial:
            serial_values = run_cells(cells, jobs=1)
        run_cells(cells, jobs=2)
        pool = warm_pool.get_pool(2)
        with obs_runtime.collecting() as pooled:
            values = run_cells(cells, jobs=2)
        assert warm_pool.get_pool(2) is pool
        assert values == serial_values
        counters = _counter_values(serial)
        assert counters[("repro_sim_events_total", ())] > 0
        assert _counter_values(pooled) == counters


class TestShutdownIdempotence:
    def test_double_shutdown_is_harmless(self):
        # The explicit CLI shutdown and the atexit backstop both fire.
        warm_pool.get_pool(1)
        warm_pool.shutdown_pool()
        warm_pool.shutdown_pool()

    def test_shutdown_without_pool_is_noop(self):
        warm_pool.shutdown_pool()
        warm_pool.shutdown_pool()

    def test_shutdown_survives_broken_pool_teardown(self):
        pool = warm_pool.get_pool(1)
        original = pool.shutdown

        def exploding_shutdown(*args, **kwargs):
            raise OSError("broken pool")

        pool.shutdown = exploding_shutdown  # instance attr shadows method
        try:
            warm_pool.shutdown_pool()  # must not raise
        finally:
            del pool.shutdown
            original(wait=True, cancel_futures=True)


class TestDiscardedPoolReaping:
    def test_discarded_pool_is_reaped_by_shutdown(self):
        pool = warm_pool.get_pool(1)
        assert pool.submit(_answer).result() == 42
        warm_pool.discard(pool)
        warm_pool.shutdown_pool()
        # The discarded executor must have been shut down too -- before
        # the fix it was only dropped, leaking its manager thread.
        with pytest.raises(RuntimeError):
            pool.submit(_answer)

    def test_handleless_discard_still_reaps_current(self):
        pool = warm_pool.get_pool(1)
        warm_pool.discard()
        warm_pool.discard(pool)  # re-discard of the same pool: no-op
        warm_pool.shutdown_pool()
        with pytest.raises(RuntimeError):
            pool.submit(_answer)

    def test_discard_then_get_pool_builds_fresh(self):
        first = warm_pool.get_pool(1)
        warm_pool.discard(first)
        second = warm_pool.get_pool(1)
        assert second is not first
        assert second.submit(_answer).result() == 42
        # The replaced pool is reaped when the fresh one shuts down.
        warm_pool.shutdown_pool()
        with pytest.raises(RuntimeError):
            first.submit(_answer)
