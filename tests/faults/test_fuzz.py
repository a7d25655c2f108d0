"""Chaos fuzzer: plan sampling, oracles, shrinking and the campaign."""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.config import FaultConfig
from repro.faults.fuzz import (
    SCORECARD_NAME,
    FuzzConfig,
    _make_judge,
    default_model,
    execute_plan,
    plan_coverage,
    run_campaign,
    sample_plan,
)
from repro.faults.oracles import (
    ORACLE_NAMES,
    PlacementOutcome,
    RunContext,
    WorkersOutcome,
    check_all,
    failures,
)
from repro.faults.plan import (
    PLANTED_VM_LEAK,
    FaultPlan,
    PlacementPlan,
    WorkerPlan,
)
from repro.faults.schedule import FaultEvent
from repro.faults.shrink import candidates, shrink_plan
from repro.perf import pool as warmpool


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    warmpool.shutdown_pool()


def _placement(**overrides) -> PlacementPlan:
    kwargs = dict(
        seed=5,
        duration_s=30.0,
        train_duration=20.0,
        migration_failure_prob=0.0,
        pm_count=3,
        hot_vms=4,
        bg_vms=2,
        config=FaultConfig(),
        events=(),
    )
    kwargs.update(overrides)
    return PlacementPlan(**kwargs)


def _placement_outcome(**overrides) -> PlacementOutcome:
    kwargs = dict(
        horizon=30.0,
        guests_before=6,
        guests_after=6,
        stats={
            "submitted": 4, "succeeded": 3, "rollbacks": 1,
            "retries": 1, "abandoned": 1, "vetoed": 0,
        },
        pending=0,
        applied_events=0,
        skipped_events=0,
        breaker_transitions=(),
        breaker_opened=0,
        breaker_cooldown_s=20.0,
        rounds=15,
        missing_observations=0,
        events=(),
        digest="d" * 64,
        draw_counts={"profile-clients": 10},
    )
    kwargs.update(overrides)
    return PlacementOutcome(**kwargs)


def _ctx(**overrides) -> RunContext:
    kwargs = dict(plan=FaultPlan(seed=1, placement=_placement()))
    kwargs.update(overrides)
    return RunContext(**kwargs)


class TestSamplePlan:
    def test_pure_function_of_seed_and_index(self):
        cfg = FuzzConfig(seed=7, runs=4)
        for i in range(3):
            assert (
                sample_plan(cfg, i).to_json()
                == sample_plan(cfg, i).to_json()
            )
        assert sample_plan(cfg, 1) != sample_plan(cfg, 2)
        other = FuzzConfig(seed=8, runs=4)
        assert sample_plan(cfg, 1) != sample_plan(other, 1)

    def test_run_zero_pinned_to_null_plan(self):
        plan = sample_plan(FuzzConfig(seed=123), 0)
        assert plan.is_null()
        assert plan.surfaces() == ("placement",)
        assert "null" in plan_coverage(plan)

    def test_every_plan_drives_a_surface(self):
        cfg = FuzzConfig(
            seed=3, placement_prob=0.0, serve_prob=0.0, worker_prob=0.0
        )
        assert sample_plan(cfg, 1).surfaces() == ("placement",)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sample_plan(FuzzConfig(), -1)


class TestCoverage:
    def test_buckets_from_plan_shape(self):
        plan = FaultPlan(
            seed=1,
            planted=PLANTED_VM_LEAK,
            placement=_placement(
                migration_failure_prob=0.3,
                events=(FaultEvent(5.0, "pm_crash", "pm1", 4.0),),
            ),
            workers=WorkerPlan(
                seed=2, n_cells=4, kill_rate=0.2, stall_rate=0.0,
                stall_s=0.0, jobs=2,
            ),
        )
        assert plan_coverage(plan) == [
            "machine:pm_crash",
            "migration:mid-flight",
            "planted:vm_leak",
            "worker:kill",
        ]


class TestOracles:
    def test_inapplicable_oracles_stay_silent(self):
        ctx = _ctx(
            plan=FaultPlan(
                seed=1,
                workers=WorkerPlan(
                    seed=2, n_cells=2, kill_rate=0.0, stall_rate=0.0,
                    stall_s=0.0, jobs=1,
                ),
            ),
            workers=WorkersOutcome(
                expected=(1, 2), got=(1, 2), planned=(),
                markers=0, retries=0, kills=0, stalls=0,
            ),
        )
        verdicts = check_all(ctx)
        assert [v.name for v in verdicts] == ["worker-once"]
        assert not failures(verdicts)

    def test_vm_conservation_catches_a_leak(self):
        ctx = _ctx(placement=_placement_outcome(guests_after=5))
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["vm-conservation"]
        assert "5/6" in bad[0].detail

    def test_move_accounting_catches_a_lost_move(self):
        ctx = _ctx(
            placement=_placement_outcome(
                stats={
                    "submitted": 5, "succeeded": 3, "rollbacks": 0,
                    "retries": 0, "abandoned": 1, "vetoed": 0,
                },
                pending=0,
            )
        )
        assert [v.name for v in failures(check_all(ctx))] == [
            "move-accounting"
        ]

    def test_breaker_monotonicity_violations(self):
        # Time regression, shrunken window and a wrong opened counter.
        ctx = _ctx(
            placement=_placement_outcome(
                breaker_transitions=(
                    (10.0, "pm1", 30.0),
                    (6.0, "pm1", 26.0),
                ),
                breaker_opened=3,
            )
        )
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["breaker-monotonic"]
        assert "time regressed" in bad[0].detail
        assert "opened counter 3" in bad[0].detail

    def test_breaker_window_must_match_cooldown(self):
        ctx = _ctx(
            placement=_placement_outcome(
                breaker_transitions=((10.0, "pm1", 25.0),),
                breaker_opened=1,
            )
        )
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["breaker-monotonic"]
        assert "cooldown" in bad[0].detail

    def test_schedule_window_catches_unsorted_events(self):
        events = (
            FaultEvent(20.0, "pm_crash", "pm1", 2.0),
            FaultEvent(5.0, "vm_stall", "hot0", 2.0),
        )
        ctx = _ctx(placement=_placement_outcome(events=events))
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["schedule-window"]
        assert "unsorted" in bad[0].detail

    def test_replay_determinism_compares_digest_and_draws(self):
        out = _placement_outcome()
        diverged = _placement_outcome(
            digest="e" * 64, draw_counts={"profile-clients": 11}
        )
        ctx = _ctx(placement=out, placement_repeat=diverged)
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["replay-determinism"]
        assert "profile-clients" in bad[0].detail

    def test_zero_fault_identity_only_judges_null_plans(self):
        out = _placement_outcome()
        faulty_plan = FaultPlan(
            seed=1, placement=_placement(migration_failure_prob=0.2)
        )
        silent = RunContext(
            plan=faulty_plan, placement=out,
            placement_bare_digest="f" * 64,
        )
        assert "zero-fault-identity" not in [
            v.name for v in check_all(silent)
        ]
        judged = _ctx(placement=out, placement_bare_digest="f" * 64)
        assert [v.name for v in failures(check_all(judged))] == [
            "zero-fault-identity"
        ]

    def test_worker_once_requires_markers_and_matching_results(self):
        ctx = _ctx(
            workers=WorkersOutcome(
                expected=(1, 2), got=(1, 3),
                planned=((0, "kill"),), markers=2, retries=0,
                kills=1, stalls=0,
            )
        )
        bad = failures(check_all(ctx))
        assert [v.name for v in bad] == ["worker-once"]
        assert "2 once-marker(s)" in bad[0].detail
        assert "retr" in bad[0].detail

    def test_oracle_names_cover_every_oracle(self):
        assert len(ORACLE_NAMES) == 11
        assert len(set(ORACLE_NAMES)) == 11


class TestShrinkMechanics:
    def _full_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=9,
            placement=_placement(
                migration_failure_prob=0.15,
                events=(
                    FaultEvent(5.0, "pm_crash", "pm1", 4.0),
                    FaultEvent(8.0, "vm_stall", "hot0", 2.0),
                ),
            ),
            workers=WorkerPlan(
                seed=2, n_cells=6, kill_rate=0.2, stall_rate=0.25,
                stall_s=0.2, jobs=2,
            ),
        )

    def test_biggest_cuts_come_first(self):
        names = [name for name, _cand in candidates(self._full_plan())]
        assert names[0] == "drop-workers"
        assert "drop-placement" in names
        # dropping the last remaining surface is never offered
        only_placement = FaultPlan(seed=9, placement=_placement())
        solo = [name for name, _cand in candidates(only_placement)]
        assert "drop-placement" not in solo

    def test_always_failing_judge_reaches_a_fixpoint(self):
        result = shrink_plan(
            self._full_plan(), ["vm-conservation"],
            lambda _plan: ["vm-conservation"],
        )
        final = result.min_plan
        assert final.workers is None
        assert final.placement is not None
        assert final.placement.events == ()
        assert not final.placement.migration_failure_prob > 0.0
        assert final.placement.pm_count == 2
        # fixpoint: no remaining transform produces a new candidate
        assert not list(candidates(final))

    def test_never_failing_judge_keeps_the_plan(self):
        result = shrink_plan(
            self._full_plan(), ["vm-conservation"], lambda _plan: []
        )
        assert result.min_plan == self._full_plan()
        assert result.steps == ()

    def test_judge_must_chase_the_same_oracle(self):
        # A candidate failing a *different* oracle is not accepted.
        result = shrink_plan(
            self._full_plan(), ["vm-conservation"],
            lambda _plan: ["worker-once"],
        )
        assert result.min_plan == self._full_plan()

    def test_budget_bounds_executions(self):
        result = shrink_plan(
            self._full_plan(), ["vm-conservation"],
            lambda _plan: ["vm-conservation"], budget=3,
        )
        assert result.executions <= 3

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            shrink_plan(self._full_plan(), [], lambda _plan: [])
        with pytest.raises(ValueError):
            shrink_plan(
                self._full_plan(), ["x"], lambda _plan: [], budget=0
            )


class TestExecutionAndCampaign:
    def test_planted_leak_detected_and_shrunk(self, tmp_path):
        plan = FaultPlan(
            seed=21,
            planted=PLANTED_VM_LEAK,
            placement=_placement(duration_s=30.0),
        )
        model = default_model(plan.placement.train_duration)
        _ctx_out, verdicts = execute_plan(
            plan, workdir=tmp_path / "run", model=model,
            check_determinism=False,
        )
        bad = failures(verdicts)
        assert [v.name for v in bad] == ["vm-conservation"]

        judge = _make_judge(model, tmp_path / "shrink")
        result = shrink_plan(plan, ["vm-conservation"], judge)
        final = result.min_plan
        # The planted marker is untouchable, so the minimum keeps the
        # placement surface and still reproduces the leak.
        assert final.planted == PLANTED_VM_LEAK
        assert final.placement.duration_s == 15.0
        assert final.placement.pm_count == 2
        assert judge(final) == ["vm-conservation"]

    def test_campaign_scorecard_is_byte_reproducible(self, tmp_path):
        cfg = FuzzConfig(seed=5, runs=1)
        first = run_campaign(cfg, tmp_path / "a")
        second = run_campaign(cfg, tmp_path / "b")
        assert first == second
        assert first["all_passed"] is True
        assert first["coverage"].get("null") == 1
        card_a = (tmp_path / "a" / SCORECARD_NAME).read_bytes()
        card_b = (tmp_path / "b" / SCORECARD_NAME).read_bytes()
        assert card_a == card_b
        plan_a = (tmp_path / "a" / "plans" / "run-0000.json").read_bytes()
        plan_b = (tmp_path / "b" / "plans" / "run-0000.json").read_bytes()
        assert plan_a == plan_b
        # work directories are scenario-scoped and cleaned up
        assert not (tmp_path / "a" / "work").exists()

    def test_planted_campaign_writes_min_repro(self, tmp_path, monkeypatch):
        cfg = FuzzConfig(seed=21, runs=1, check_determinism=False)
        planted = FaultPlan(
            seed=21,
            planted=PLANTED_VM_LEAK,
            placement=_placement(duration_s=30.0),
        )
        monkeypatch.setattr(
            "repro.faults.fuzz.sample_plan",
            lambda _cfg, _index: planted,
        )
        scorecard = run_campaign(cfg, tmp_path / "camp")
        assert scorecard["all_passed"] is False
        [violation] = scorecard["violations"]
        assert violation["failed"][0]["oracle"] == "vm-conservation"
        min_path = tmp_path / "camp" / violation["min_plan"]
        assert min_path.is_file()
        from repro.faults.plan import load_plan

        min_plan = load_plan(min_path)
        assert min_plan.planted == PLANTED_VM_LEAK
        assert min_plan.placement.pm_count == 2


class TestFuzzConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(runs=0)
        with pytest.raises(ValueError):
            FuzzConfig(placement_prob=1.5)
        with pytest.raises(ValueError):
            FuzzConfig(train_duration=0.0)

    def test_frozen(self):
        cfg = FuzzConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.runs = 2
