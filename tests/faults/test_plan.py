"""Replayable fault-plan codec: validation, round-trip, canonical bytes."""

from __future__ import annotations

import pytest

from repro.faults.config import FaultConfig
from repro.faults.plan import (
    DRIVER_CHAOSB,
    PLANTED_VM_LEAK,
    FaultPlan,
    PlacementPlan,
    PlanError,
    ServePlan,
    WorkerPlan,
    dump_plan,
    load_plan,
)
from repro.faults.schedule import FaultEvent
from repro.faults.service import ServiceFaultConfig


def _placement(**overrides) -> PlacementPlan:
    kwargs = dict(
        seed=7,
        duration_s=40.0,
        train_duration=20.0,
        migration_failure_prob=0.15,
        pm_count=3,
        hot_vms=4,
        bg_vms=2,
        config=FaultConfig(pm_crash_rate=0.01, pm_reboot_s=8.0),
        events=(
            FaultEvent(5.0, "pm_crash", "pm2", 8.0),
            FaultEvent(12.0, "vm_stall", "hot1", 3.0),
        ),
    )
    kwargs.update(overrides)
    return PlacementPlan(**kwargs)


def _serve(**overrides) -> ServePlan:
    kwargs = dict(
        seed=11,
        pms=2,
        ticks=120,
        queries_per_tick=2,
        drift_at=60,
        drift_scale=1.6,
        crash_at_tick=40,
        faults=ServiceFaultConfig(loss_prob=0.05, corrupt_prob=0.02),
    )
    kwargs.update(overrides)
    return ServePlan(**kwargs)


def _workers(**overrides) -> WorkerPlan:
    kwargs = dict(
        seed=13, n_cells=5, kill_rate=0.2, stall_rate=0.25,
        stall_s=0.2, jobs=2,
    )
    kwargs.update(overrides)
    return WorkerPlan(**kwargs)


def _full_plan() -> FaultPlan:
    return FaultPlan(
        seed=99, placement=_placement(), serve=_serve(), workers=_workers()
    )


class TestValidation:
    def test_placement_rejects_bad_shapes(self):
        with pytest.raises(PlanError):
            _placement(duration_s=0.0)
        with pytest.raises(PlanError):
            _placement(pm_count=1)
        with pytest.raises(PlanError):
            _placement(hot_vms=0)
        with pytest.raises(PlanError):
            _placement(migration_failure_prob=1.0)

    def test_placement_rejects_event_beyond_horizon(self):
        with pytest.raises(PlanError):
            _placement(
                events=(FaultEvent(41.0, "pm_crash", "pm1", 2.0),)
            )

    def test_serve_crash_tick_must_be_interior(self):
        with pytest.raises(PlanError):
            _serve(crash_at_tick=0)
        with pytest.raises(PlanError):
            _serve(crash_at_tick=119)
        assert _serve(crash_at_tick=None).crash_at_tick is None

    def test_worker_kills_need_parallel_jobs(self):
        with pytest.raises(PlanError):
            _workers(jobs=1, kill_rate=0.2)
        assert _workers(jobs=1, kill_rate=0.0).jobs == 1

    def test_plan_needs_a_surface(self):
        with pytest.raises(PlanError):
            FaultPlan(seed=1)

    def test_planted_needs_placement(self):
        with pytest.raises(PlanError):
            FaultPlan(seed=1, planted=PLANTED_VM_LEAK, serve=_serve())
        with pytest.raises(PlanError):
            FaultPlan(seed=1, planted="meteor", placement=_placement())

    def test_unknown_driver_rejected(self):
        with pytest.raises(PlanError):
            FaultPlan(seed=1, driver="cron", placement=_placement())


class TestNullness:
    def test_null_plan(self):
        plan = FaultPlan(
            seed=1,
            placement=_placement(
                events=(), migration_failure_prob=0.0, config=FaultConfig()
            ),
        )
        assert plan.is_null()
        assert plan.surfaces() == ("placement",)

    def test_planted_plan_is_never_null(self):
        plan = FaultPlan(
            seed=1,
            planted=PLANTED_VM_LEAK,
            placement=_placement(events=(), migration_failure_prob=0.0),
        )
        assert not plan.is_null()

    def test_any_faulty_surface_breaks_nullness(self):
        assert not _full_plan().is_null()


class TestCodec:
    def test_round_trip_preserves_plan(self):
        plan = _full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_canonical_bytes_stable(self, tmp_path):
        plan = _full_plan()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_plan(plan, a)
        dump_plan(load_plan(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_driver_survives_round_trip(self):
        plan = FaultPlan(
            seed=3, driver=DRIVER_CHAOSB, placement=_placement()
        )
        assert FaultPlan.from_dict(plan.to_dict()).driver == DRIVER_CHAOSB

    def test_schema_mismatch_rejected(self):
        body = _full_plan().to_dict()
        body["schema"] = "repro-fault-plan/0"
        with pytest.raises(PlanError):
            FaultPlan.from_dict(body)

    def test_malformed_body_wrapped_as_plan_error(self):
        body = _full_plan().to_dict()
        del body["placement"]["seed"]
        with pytest.raises(PlanError):
            FaultPlan.from_dict(body)

    def test_load_plan_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlanError):
            load_plan(bad)
        with pytest.raises(PlanError):
            load_plan(tmp_path / "missing.json")
