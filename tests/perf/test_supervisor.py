"""Supervised execution: worker death, hangs, retries, degradation.

The worker faults are injected deterministically through
:mod:`repro.faults.workers` (SIGKILL / stall on first attempt, marker
file makes retries clean), so every recovery path is exercised with a
real process pool and the recovered output can be compared
byte-for-byte against a clean run.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import pytest

from repro.faults.workers import WORKER_KILL, WORKER_STALL, FaultableCell
from repro.perf import pool as warmpool
from repro.perf.cells import Cell, MicrobenchCell
from repro.perf.executor import run_cells
from repro.perf.manifest import RunManifest
from repro.perf.supervisor import (
    CellExecutionError,
    SupervisorConfig,
    reset_stats,
    run_supervised,
    stats,
)
from repro.sim import sanitize

#: Fast supervision knobs: tests must not wait out real backoffs.
QUICK = SupervisorConfig(deadline_s=30.0, backoff_base_s=0.0)


def _cell(level: float = 25.0, **overrides) -> MicrobenchCell:
    kwargs = dict(
        kind="cpu", n_vms=1, level=level, index=0, duration=4.0, seed=42
    )
    kwargs.update(overrides)
    return MicrobenchCell(**kwargs)


def _cells(n: int = 3):
    return [_cell(10.0 + 20.0 * i, index=i) for i in range(n)]


@dataclass(frozen=True, eq=False)
class BoomCell(Cell):
    """A cell that fails permanently (every attempt raises)."""

    ident: int = 0

    group = "boom"

    def config(self) -> Dict[str, Any]:
        return {"cell": "boom", "ident": self.ident}

    def run(self) -> Tuple[Any, int]:
        raise RuntimeError("boom")

    def label(self) -> str:
        return f"boom[{self.ident}]"


class ScriptedPool:
    """A stand-in executor whose submits follow a script, in-process.

    ``"ok"`` runs the worker and returns its finished future;
    ``"died"`` returns a future its worker's death already failed;
    ``"broken"`` raises from ``submit`` itself, as a pool does once it
    has noticed a dead worker.
    """

    def __init__(self, script: List[str]) -> None:
        self.script = list(script)

    def submit(self, fn, *args) -> Future:
        step = self.script.pop(0)
        if step == "broken":
            raise BrokenProcessPool("the pool is not usable anymore")
        future: Future = Future()
        if step == "died":
            future.set_exception(BrokenProcessPool("worker terminated"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        return None


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_stats()
    yield
    reset_stats()


class TestConfig:
    def test_backoff_schedule_is_deterministic_doubling(self):
        cfg = SupervisorConfig(backoff_base_s=0.1)
        assert cfg.backoff_s(1) == 0.0
        assert cfg.backoff_s(2) == pytest.approx(0.1)
        assert cfg.backoff_s(3) == pytest.approx(0.2)
        assert cfg.backoff_s(4) == pytest.approx(0.4)

    def test_zero_base_disables_backoff(self):
        assert SupervisorConfig(backoff_base_s=0.0).backoff_s(5) == 0.0


class TestCrashedWorker:
    def test_killed_worker_is_retried_and_output_identical(self, tmp_path):
        clean = run_cells(_cells(), jobs=1)
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_KILL if i == 1 else None,
            )
            for i, cell in enumerate(_cells())
        ]
        values = run_cells(faulted, jobs=2, supervisor=QUICK)
        assert values == clean
        s = stats()
        assert s.retries >= 1
        assert s.pool_rebuilds >= 1
        assert s.recovered
        assert s.failed == []

    def test_death_seen_by_submit_costs_the_failed_cell_an_attempt(
        self, monkeypatch
    ):
        # Cell 0's worker dies; the pool reports it to the submit of
        # cell 1, before any result is read.  The rebuilt pool is clean.
        pools = [ScriptedPool(["died", "broken"]), ScriptedPool(["ok", "ok"])]
        monkeypatch.setattr(warmpool, "get_pool", lambda jobs: pools.pop(0))
        monkeypatch.setattr(warmpool, "discard", lambda pool=None: None)
        cells = _cells(2)
        done: Dict[int, Any] = {}

        def complete(i: int, outcome: Any, from_pool: bool) -> None:
            done[i] = outcome

        failures = run_supervised(
            list(enumerate(cells)),
            jobs=2,
            worker=lambda cell: cell.label(),
            worker_args=(),
            execute_inline=lambda cell: cell.label(),
            complete=complete,
            config=QUICK,
        )
        assert failures == []
        assert done == {i: cell.label() for i, cell in enumerate(cells)}
        s = stats()
        # Cell 0 ran twice, cell 1 once (its refused submit is no attempt).
        assert s.attempts == 3
        assert s.retries == 1
        assert s.pool_rebuilds == 1
        assert s.recovered == [cells[0].label()]

    def test_hung_worker_trips_deadline_and_is_retried(self, tmp_path):
        clean = run_cells(_cells(2), jobs=1)
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_STALL if i == 0 else None,
                stall_s=30.0,
            )
            for i, cell in enumerate(_cells(2))
        ]
        config = SupervisorConfig(deadline_s=1.5, backoff_base_s=0.0)
        values = run_cells(faulted, jobs=2, supervisor=config)
        assert values == clean
        s = stats()
        assert s.timeouts >= 1
        assert s.failed == []

    def test_degrades_to_serial_when_pool_unrecoverable(self, tmp_path):
        clean = run_cells(_cells(2), jobs=1)
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path),
                fault=WORKER_KILL if i == 0 else None,
            )
            for i, cell in enumerate(_cells(2))
        ]
        config = SupervisorConfig(
            deadline_s=30.0, backoff_base_s=0.0, max_pool_rebuilds=0
        )
        values = run_cells(faulted, jobs=2, supervisor=config)
        assert values == clean
        assert stats().serial_fallbacks == 1


class TestPermanentFailure:
    def test_failing_cell_raises_after_siblings_checkpoint(self, tmp_path):
        manifest = RunManifest(tmp_path)
        cells = [_cell(10.0), BoomCell(), _cell(20.0, index=1)]
        with pytest.raises(CellExecutionError) as exc:
            run_cells(cells, jobs=1, manifest=manifest, supervisor=QUICK)
        assert [label for label, _ in exc.value.failures] == ["boom[0]"]
        counts = manifest.status().counts()
        assert counts["done"] == 2
        assert counts["failed"] == 1
        s = stats()
        assert s.failed and s.failed[0][0] == "boom[0]"
        # Every attempt was charged: first run + retries.
        assert s.attempts >= QUICK.max_attempts

    def test_failure_is_bounded_by_max_attempts(self):
        config = SupervisorConfig(backoff_base_s=0.0, max_attempts=2)
        with pytest.raises(CellExecutionError):
            run_cells([BoomCell()], jobs=1, supervisor=config)
        assert stats().attempts == 2

    def test_timed_out_cell_is_not_retried_inline(self, tmp_path):
        faulted = FaultableCell(
            inner=_cell(),
            marker_dir=str(tmp_path),
            fault=WORKER_STALL,
            stall_s=30.0,
        )
        config = SupervisorConfig(
            deadline_s=1.0, backoff_base_s=0.0, max_pool_rebuilds=0
        )
        # jobs must exceed 1 so the stall happens in a pool worker; with
        # rebuilds exhausted the cell must fail rather than hang the
        # supervising process inline.
        with pytest.raises(CellExecutionError) as exc:
            run_cells([faulted, _cell(99.0, index=7)],
                      jobs=2, supervisor=config)
        assert any(
            "not retried inline" in error
            for _, error in exc.value.failures
        )


class TestKillAndResume:
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        cells = _cells(4)
        with sanitize.sanitized():
            baseline = run_cells(cells, jobs=2, supervisor=QUICK)
            baseline_counts = sanitize.aggregate_draw_counts()
            baseline_pops = sanitize.total_pops()
        # "Interrupted": only half the sweep completed before the kill.
        interrupted = RunManifest(tmp_path / "run")
        with sanitize.sanitized():
            run_cells(cells[:2], jobs=2, manifest=interrupted,
                      supervisor=QUICK)
        assert interrupted.executed == 2
        # Resume the full sweep: restored + fresh must equal baseline,
        # including the sanitizer's per-stream accounting.
        resumed_manifest = RunManifest(tmp_path / "run")
        with sanitize.sanitized():
            resumed = run_cells(
                cells, jobs=2, manifest=resumed_manifest, resume=True,
                supervisor=QUICK,
            )
            resumed_counts = sanitize.aggregate_draw_counts()
            resumed_pops = sanitize.total_pops()
        assert resumed == baseline
        assert resumed_manifest.restored == 2
        assert resumed_manifest.executed == 2
        assert resumed_counts == baseline_counts
        assert resumed_pops == baseline_pops

    def test_recovery_after_kill_with_manifest(self, tmp_path):
        cells = _cells(2)
        clean = run_cells(cells, jobs=1)
        manifest = RunManifest(tmp_path / "run")
        faulted = [
            FaultableCell(
                inner=cell,
                marker_dir=str(tmp_path / "markers"),
                fault=WORKER_KILL if i == 0 else None,
            )
            for i, cell in enumerate(cells)
        ]
        values = run_cells(
            faulted, jobs=2, manifest=manifest, supervisor=QUICK
        )
        assert values == clean
        assert manifest.status().complete
