"""Worker-fault planning and the FaultableCell wrapper."""

from __future__ import annotations

import pytest

from repro.faults.workers import (
    WORKER_KILL,
    WORKER_STALL,
    FaultableCell,
    WorkerFault,
    plan_worker_faults,
)
from repro.perf.cells import MicrobenchCell


def _cell(**overrides) -> MicrobenchCell:
    kwargs = dict(
        kind="cpu", n_vms=1, level=25.0, index=0, duration=4.0, seed=42
    )
    kwargs.update(overrides)
    return MicrobenchCell(**kwargs)


class TestWorkerFault:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WorkerFault(index=0, kind="meteor")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            WorkerFault(index=-1, kind=WORKER_KILL)


class TestPlanning:
    def test_plan_is_deterministic_per_seed(self):
        a = plan_worker_faults(50, seed=7, kill_rate=0.2, stall_rate=0.2)
        b = plan_worker_faults(50, seed=7, kill_rate=0.2, stall_rate=0.2)
        assert a == b
        assert a != plan_worker_faults(
            50, seed=8, kill_rate=0.2, stall_rate=0.2
        )

    def test_kinds_draw_from_independent_streams(self):
        # Adding stalls must not move which cells get killed.
        kills_only = plan_worker_faults(80, seed=3, kill_rate=0.15)
        both = plan_worker_faults(
            80, seed=3, kill_rate=0.15, stall_rate=0.15
        )
        killed = {f.index for f in kills_only if f.kind == WORKER_KILL}
        killed_both = {f.index for f in both if f.kind == WORKER_KILL}
        assert killed <= killed_both  # kill overrides stall, never drops
        assert killed == {
            i for i in killed_both if i in killed
        }

    def test_zero_rates_draw_nothing(self):
        assert plan_worker_faults(100, seed=1) == []

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            plan_worker_faults(10, seed=1, kill_rate=1.5)
        with pytest.raises(ValueError):
            plan_worker_faults(-1, seed=1)

    def test_stall_seconds_attached_to_stalls_only(self):
        plan = plan_worker_faults(
            60, seed=5, kill_rate=0.1, stall_rate=0.3, stall_s=4.5
        )
        assert plan  # rates high enough to draw victims
        for fault in plan:
            if fault.kind == WORKER_STALL:
                assert fault.stall_s == 4.5
            else:
                assert fault.stall_s == 0.0


class TestFaultableCell:
    def test_config_wraps_inner_and_fault(self, tmp_path):
        cell = FaultableCell(
            inner=_cell(), marker_dir=str(tmp_path), fault=WORKER_STALL
        )
        cfg = cell.config()
        assert cfg["cell"] == "faultable"
        assert cfg["fault"] == WORKER_STALL
        assert cfg["inner"] == _cell().config()

    def test_label_names_the_fault(self, tmp_path):
        clean = FaultableCell(inner=_cell(), marker_dir=str(tmp_path))
        stalled = FaultableCell(
            inner=_cell(), marker_dir=str(tmp_path), fault=WORKER_STALL
        )
        assert clean.label() == _cell().label()
        assert stalled.label().endswith("+stall")

    def test_clean_passthrough_matches_inner(self, tmp_path):
        cell = FaultableCell(inner=_cell(), marker_dir=str(tmp_path))
        assert cell.run() == _cell().run()

    def test_stall_fires_once_then_runs_clean(self, tmp_path):
        cell = FaultableCell(
            inner=_cell(),
            marker_dir=str(tmp_path),
            fault=WORKER_STALL,
            stall_s=0.01,
        )
        first = cell.run()  # arms the marker, stalls briefly
        assert list(tmp_path.glob("*.tripped"))
        second = cell.run()  # marker present: no stall, same output
        assert second == first

    def test_tag_distinguishes_marker_identity(self, tmp_path):
        a = FaultableCell(
            inner=_cell(), marker_dir=str(tmp_path),
            fault=WORKER_STALL, stall_s=0.01, tag="a",
        )
        b = FaultableCell(
            inner=_cell(), marker_dir=str(tmp_path),
            fault=WORKER_STALL, stall_s=0.01, tag="b",
        )
        a.run()
        b.run()
        assert len(list(tmp_path.glob("*.tripped"))) == 2


class TestPoolDispatch:
    """Once-marker semantics on the warm pool: a faulted cell must fire
    exactly once even though the supervisor retries it (and requeues
    the cells its dead worker took down with it)."""

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        from repro.perf import pool as warmpool

        yield
        warmpool.shutdown_pool()

    def _run_pooled(self, tmp_path, fault_index, fault_kind, **fault_kw):
        from repro.perf import supervisor as _supervisor
        from repro.perf.executor import run_cells
        from repro.perf.supervisor import SupervisorConfig

        inners = [_cell(index=i, duration=2.0) for i in range(4)]
        expected = [cell.run()[0] for cell in inners]
        cells = [
            FaultableCell(
                inner=inner,
                marker_dir=str(tmp_path),
                fault=fault_kind if i == fault_index else None,
                tag=f"pooled{i}",
                **fault_kw,
            )
            for i, inner in enumerate(inners)
        ]
        _supervisor.reset_stats()
        got = run_cells(
            cells,
            jobs=2,
            supervisor=SupervisorConfig(deadline_s=60.0, max_attempts=3),
        )
        return expected, got, _supervisor.stats()

    def test_kill_fires_once_and_results_match(self, tmp_path):
        expected, got, stats = self._run_pooled(tmp_path, 1, WORKER_KILL)
        # The killed cell died with its worker; on retry the marker
        # suppresses a second kill, and every output equals the clean
        # reference.
        assert got == expected
        assert len(list(tmp_path.glob("*.tripped"))) == 1
        assert stats.retries >= 1

    def test_stall_fires_once_and_results_match(self, tmp_path):
        expected, got, _stats = self._run_pooled(
            tmp_path, 2, WORKER_STALL, stall_s=0.05
        )
        assert got == expected
        assert len(list(tmp_path.glob("*.tripped"))) == 1
