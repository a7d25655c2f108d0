"""Identity oracle for the fleet's vectorized deploy and step.

:meth:`_Coordinator.deploy` places whole next-fit runs per PM from
vectorized window sums.  The reference below is the plain per-VM loop:
the pointer walks the PMs one VM at a time, ``sums[pm] += template``,
and each forced VM re-derives every PM's required CPU.  The two must
agree bit for bit on ``vm_pm``, ``sums``, ``counts`` and
``placed_forced``.  The run digests pin whole fleet runs to the values
recorded from the per-VM implementation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cluster.fleet import (
    DEPLOY_STREAM,
    RUN_BLOCK,
    FleetConfig,
    _Coordinator,
    _draw_templates,
    run_fleet,
)
from repro.placement.admission import BW, CPU, IO, MEM, AdmissionPolicy
from repro.placement.placer import VOA, VOU
from repro.sim.engine import Simulator


def _reference_deploy(coordinator: _Coordinator) -> None:
    """Per-VM streaming next-fit: the reference the deploy must match."""
    policy = coordinator.policy
    sums = coordinator.sums
    pointer = 0
    pms = coordinator.config.pms
    for vm in range(coordinator.config.vms):
        template = coordinator.templates[vm]
        while pointer < pms and not policy.fits(sums[pointer] + template):
            pointer += 1
        if pointer < pms:
            coordinator.place(vm, pointer)
            continue
        required = policy.overhead.required_cpu_array(
            sums[:, CPU], sums[:, IO], sums[:, BW]
        )
        coordinator.place(vm, int(np.argmin(required)))
        coordinator.placed_forced += 1


def _both(config: FleetConfig, templates: np.ndarray):
    policy = AdmissionPolicy(strategy=config.strategy)
    fast = _Coordinator(config, policy, templates)
    fast.deploy()
    slow = _Coordinator(config, policy, templates)
    _reference_deploy(slow)
    return fast, slow


def _assert_identical(fast: _Coordinator, slow: _Coordinator) -> None:
    assert fast.vm_pm.tolist() == slow.vm_pm.tolist()
    assert fast.counts.tolist() == slow.counts.tolist()
    assert fast.sums.tobytes() == slow.sums.tobytes()
    assert fast.placed_forced == slow.placed_forced
    assert (fast.vm_pm >= 0).all()


def _drawn(pms: int, vms: int, strategy: str, seed: int):
    config = FleetConfig(pms=pms, vms=vms, strategy=strategy, seed=seed)
    rng = Simulator(seed=seed).rng(DEPLOY_STREAM)
    return config, _draw_templates(vms, rng)


def _synthetic(vms: int, cpu: float, mem: float) -> np.ndarray:
    templates = np.empty((vms, 4))
    templates[:, CPU] = cpu
    templates[:, MEM] = mem
    templates[:, IO] = 20.0
    templates[:, BW] = 100.0
    return templates


class TestDeployOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_random_fleets(self, strategy, seed):
        rng = np.random.default_rng(seed)
        pms = int(rng.integers(2, 120))
        vms = int(rng.integers(1, 14 * pms))
        fast, slow = _both(*_drawn(pms, vms, strategy, seed))
        _assert_identical(fast, slow)

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_one_pm(self, strategy):
        fast, slow = _both(*_drawn(1, 40, strategy, 3))
        _assert_identical(fast, slow)
        assert fast.counts[0] == 40
        assert fast.placed_forced > 0

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_fewer_vms_than_pms(self, strategy):
        fast, slow = _both(*_drawn(50, 7, strategy, 4))
        _assert_identical(fast, slow)
        assert fast.placed_forced == 0
        assert fast.counts[0] == 7

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_full_fleet_forces_placements(self, strategy):
        # The default `repro fleet` deployment: VOA runs out of PMs.
        fast, slow = _both(*_drawn(1000, 10_000, strategy, 2015))
        _assert_identical(fast, slow)
        if strategy == VOA:
            assert fast.placed_forced == 186
        else:
            assert fast.placed_forced == 0

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_template_an_empty_pm_rejects(self, strategy):
        config = FleetConfig(pms=5, vms=30, strategy=strategy, seed=0)
        templates = _draw_templates(30, Simulator(seed=0).rng(DEPLOY_STREAM))
        templates[9, MEM] = 4096.0  # more than any PM's memory
        fast, slow = _both(config, templates)
        _assert_identical(fast, slow)
        # Next-fit stops at the VM no PM takes: it and all after it
        # are forced.
        assert fast.placed_forced == 30 - 9

    def test_first_vm_rejected_everywhere(self):
        config = FleetConfig(pms=4, vms=12, strategy=VOA, seed=0)
        fast, slow = _both(config, _synthetic(12, cpu=500.0, mem=128.0))
        _assert_identical(fast, slow)
        assert fast.placed_forced == 12

    def test_runs_longer_than_a_block(self):
        # Tiny guests: one PM holds far more VMs than RUN_BLOCK.
        vms = 3 * RUN_BLOCK
        config = FleetConfig(pms=3, vms=vms, strategy=VOU, seed=0)
        fast, slow = _both(config, _synthetic(vms, cpu=0.05, mem=0.5))
        _assert_identical(fast, slow)
        assert fast.counts[0] > RUN_BLOCK


def _digest(config: FleetConfig) -> str:
    canonical = json.dumps(
        run_fleet(config).as_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: ``tests/cluster/test_fleet.py``'s scale.
TEST_SCALE = dict(
    pms=8, vms=64, clients=6_000, duration_s=40.0, epoch_s=10.0,
    ramp_s=15.0, seed=7,
)
#: ``repro fleet --fast``'s one trial per strategy.
FAST_SCALE = dict(
    pms=24, vms=240, clients=20_000, duration_s=120.0, epoch_s=10.0,
    ramp_s=40.0, seed=2015,
)
#: Epochs longer than a cooldown let one PM report twice per epoch, so
#: hotspots past a small cap include stale ones, which are not rejects.
LONG_EPOCH_SCALE = dict(TEST_SCALE, duration_s=120.0, epoch_s=60.0,
                        max_migrations_per_epoch=1)


class TestRunDigests:
    @pytest.mark.parametrize(
        "scale,strategy,digest",
        [
            (TEST_SCALE, VOA, "41fd4a5e398f1e864c6be44f2e1089bb"
                              "54114aaacc216acf7028c3437208c0f9"),
            (TEST_SCALE, VOU, "ace30cc2008a265df7ec1364975b0788"
                              "39263015cca0ddba0eb40e593090cf31"),
            (FAST_SCALE, VOA, "35aebdbd8e1deb6a02a36b54c6b39de1"
                              "2c9033299d6bc2e8a972aa2d0b39d39a"),
            (FAST_SCALE, VOU, "315df4fc605305e314fa981574e74f7e"
                              "08f6fbef0ba0c4f0e5280242aa9bddef"),
            (LONG_EPOCH_SCALE, VOU, "215a7a188df70b808e76a446fc859343"
                                    "321d19f2811765017f4b6f7c358ea036"),
        ],
        ids=["test-voa", "test-vou", "fast-voa", "fast-vou",
             "long-epoch-vou"],
    )
    def test_summary_digest_is_pinned(self, scale, strategy, digest):
        assert _digest(FleetConfig(strategy=strategy, **scale)) == digest
