"""Vectorized fleet stepper: accounting, determinism and model shape.

The stepper keeps one VM -> PM index and draws all demand noise from
one stream, so these tests pin what it must keep: the hotspot,
cooldown and migration-cap accounting; bit-identical reruns that draw
from exactly the deploy and noise streams, one noise block per tick;
and the model's headline shape -- VOA absorbs the open-loop load that
overloads VOU's overhead-blind packing.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.fleet import (
    DEPLOY_STREAM,
    HOTSPOT_TICKS,
    NOISE_STREAM,
    FleetConfig,
    run_fleet,
)
from repro.placement.placer import VOA, VOU
from repro.sim import sanitize


def _config(strategy: str = VOU, **overrides) -> FleetConfig:
    # Small but overcommitted: VOU packs ~64 * ~15% CPU of guests onto
    # few PMs and overloads; VOA spreads.  Big enough for migrations.
    kwargs = dict(
        pms=8,
        vms=64,
        clients=6_000,
        duration_s=40.0,
        epoch_s=10.0,
        ramp_s=15.0,
        strategy=strategy,
        seed=7,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def _ticks(config: FleetConfig) -> int:
    return int(config.duration_s / config.tick_s)


def _sanitized_run(config: FleetConfig):
    sanitize.reset_collector()
    with sanitize.sanitized():
        summary = run_fleet(config)
    return summary, dict(sanitize.aggregate_draw_counts())


class TestAccountingInvariants:
    @pytest.mark.parametrize(
        "strategy,seed,cap",
        [(s, seed, 50) for s in (VOA, VOU) for seed in (7, 8, 9)]
        + [(VOU, 7, 2)],
    )
    def test_hotspot_cooldown_and_cap_accounting(self, strategy, seed, cap):
        config = _config(strategy, seed=seed, max_migrations_per_epoch=cap)
        summary = run_fleet(config)
        assert sum(summary.epoch_migrations) == summary.migrations
        assert all(m <= cap for m in summary.epoch_migrations)
        assert (
            summary.migrations + summary.migrations_rejected
            <= summary.hotspots
        )
        assert (
            summary.hotspots * HOTSPOT_TICKS <= summary.overloaded_pm_ticks
        )
        start = 0.0
        for end, overloaded in zip(
            summary.epoch_time, summary.epoch_overloaded
        ):
            ticks_in_epoch = (
                math.floor(end / config.tick_s)
                - math.floor(start / config.tick_s)
            )
            assert overloaded <= config.pms * ticks_in_epoch
            start = end
        assert summary.events == config.pms * _ticks(config)


class TestDeterminism:
    def test_sanitized_reruns_identical(self):
        a, counts_a = _sanitized_run(_config())
        b, counts_b = _sanitized_run(_config())
        assert counts_a, "sanitized run recorded no draws"
        assert a.as_dict() == b.as_dict()
        assert counts_a == counts_b
        # The sanitizer only observes.
        assert run_fleet(_config()).as_dict() == a.as_dict()

    def test_streams_are_deploy_plus_one_noise_block_per_tick(self):
        config = _config()
        _, counts = _sanitized_run(config)
        assert sorted(counts) == sorted([DEPLOY_STREAM, NOISE_STREAM])
        assert counts[NOISE_STREAM] == _ticks(config)

    def test_same_seed_same_summary_different_seed_differs(self):
        a = run_fleet(_config()).as_dict()
        b = run_fleet(_config()).as_dict()
        assert a == b
        c = run_fleet(_config(seed=8)).as_dict()
        assert c != a


class TestModelShape:
    def test_voa_serves_what_overloads_vou(self):
        voa = run_fleet(_config(VOA))
        vou = run_fleet(_config(VOU))
        assert voa.served_fraction > vou.served_fraction
        assert vou.overloaded_pm_ticks > voa.overloaded_pm_ticks
        assert vou.migrations > voa.migrations
        assert voa.pms_used > vou.pms_used

    def test_served_never_exceeds_offered(self):
        summary = run_fleet(_config(VOU))
        assert summary.served_total <= summary.offered_total
        for offered, served in zip(
            summary.epoch_offered, summary.epoch_served
        ):
            assert served <= offered + 1e-9

    @pytest.mark.parametrize(
        "duration_s,epoch_s,last_time",
        [
            pytest.param(40.0, 10.0, 40.0, id="whole-epochs"),
            # The horizon past the last tick holds no tick, so it must
            # not become an epoch of its own.
            pytest.param(20.5, 10.0, 20.0, id="partial-tick"),
            # 21 / 1.4 rounds above 15 although 15 * 1.4 == 21.0.
            pytest.param(21.0, 1.4, 21.0, id="rounded-quotient"),
        ],
    )
    def test_epoch_series_cover_the_run(self, duration_s, epoch_s, last_time):
        config = _config(duration_s=duration_s, epoch_s=epoch_s)
        summary = run_fleet(config)
        assert len(summary.epoch_time) == config.epochs
        assert summary.epoch_time[-1] == last_time
        assert all(offered > 0 for offered in summary.epoch_offered)
        assert summary.events == config.pms * _ticks(config)

    def test_migration_cap_bounds_each_epoch(self):
        capped = run_fleet(_config(max_migrations_per_epoch=2))
        assert capped.epoch_migrations
        assert max(capped.epoch_migrations) <= 2
        assert capped.migrations_rejected > 0


class TestConfigValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            FleetConfig(strategy="best-effort")

    def test_duration_must_cover_an_epoch(self):
        with pytest.raises(ValueError, match="duration"):
            FleetConfig(duration_s=5.0, epoch_s=10.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration_s", math.nan),
            ("duration_s", math.inf),
            ("epoch_s", math.nan),
            ("ramp_s", math.inf),
        ],
    )
    def test_non_finite_times_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetConfig(**{field: value})
