"""Aggregate admission predicates: budgets and one affine formula.

VOU packs guest CPU against the nominal hardware capacity and guest
memory against physical RAM; VOA packs predicted PM CPU (guests + Dom0 +
hypervisor) against the effective capacity and reserves Dom0's working
set.  Both the single-aggregate predicate (:meth:`AdmissionPolicy.fits`)
and the per-PM vector (:meth:`AdmissionPolicy.admits_array`) must give
the same answer on every aggregate, the budget boundary included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement.admission import (
    BW,
    CPU,
    IO,
    MEM,
    AdmissionPolicy,
    LinearOverhead,
)
from repro.placement.placer import VOA, VOU

#: A VOA aggregate whose predicted CPU lands on the 198-point budget
#: only if the affine terms are added in one order (198.0) and not the
#: other (198.00000000000003): two formulas would disagree on it.
BOUNDARY = np.array([154.09457142857144, 1024.0, 101.0, 1500.0])


def _aggregate(cpu=0.0, mem=0.0, io=0.0, bw=0.0) -> np.ndarray:
    out = np.zeros(4)
    out[CPU], out[MEM], out[IO], out[BW] = cpu, mem, io, bw
    return out


class TestBudgets:
    def test_vou_packs_guest_cpu_to_nominal_capacity(self):
        policy = AdmissionPolicy(strategy=VOU)
        assert policy.cpu_budget_pct == pytest.approx(
            policy.machine.cpu_capacity_pct * policy.vou_fill
        )
        budget = policy.cpu_budget_pct
        assert policy.fits(_aggregate(cpu=budget))
        assert not policy.fits(_aggregate(cpu=np.nextafter(budget, np.inf)))
        # Blind to overhead: I/O and network demand never count.
        assert policy.fits(_aggregate(cpu=budget, io=1e6, bw=1e6))

    def test_voa_packs_predicted_pm_cpu_to_effective_capacity(self):
        policy = AdmissionPolicy(strategy=VOA)
        assert policy.cpu_budget_pct == pytest.approx(
            policy.effective_capacity_pct * policy.voa_headroom
        )
        overhead = policy.overhead
        # Guest CPU that alone fits the budget is rejected once Dom0 and
        # hypervisor cycles are added ...
        guests = policy.cpu_budget_pct - overhead.base / 2
        assert not policy.fits(_aggregate(cpu=guests))
        # ... and I/O / network demand costs CPU too.
        idle = _aggregate(cpu=100.0)
        assert policy.fits(idle)
        assert not policy.fits(_aggregate(cpu=100.0, io=1e5))
        assert not policy.fits(_aggregate(cpu=100.0, bw=1e5))
        assert overhead.required_cpu_array(100.0, 0.0, 0.0) == (
            100.0 * (1.0 + overhead.cpu_rate) + overhead.base
        )

    @pytest.mark.parametrize(
        "strategy,budget_mb",
        [(VOU, 2048.0), (VOA, 2048.0 - 350.0)],
    )
    def test_memory_budget_reserves_dom0_under_voa(self, strategy, budget_mb):
        policy = AdmissionPolicy(strategy=strategy)
        assert policy.mem_budget_mb == budget_mb
        assert policy.fits(_aggregate(cpu=10.0, mem=budget_mb))
        assert not policy.fits(_aggregate(cpu=10.0, mem=budget_mb + 1.0))

    def test_dom0_reservation_is_what_voa_holds_back(self):
        reserved = AdmissionPolicy(strategy=VOA, dom0_mem_mb=350.0)
        none = AdmissionPolicy(strategy=VOA, dom0_mem_mb=0.0)
        assert none.mem_budget_mb - reserved.mem_budget_mb == 350.0
        # 128 MB guests: VOU holds 16, VOA 13.
        for policy, fit in ((AdmissionPolicy(strategy=VOU), 16),
                            (reserved, 13)):
            assert policy.fits(_aggregate(cpu=1.0, mem=128.0 * fit))
            assert not policy.fits(_aggregate(cpu=1.0, mem=128.0 * (fit + 1)))

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            AdmissionPolicy(strategy="best-effort")
        with pytest.raises(ValueError, match="vou_fill"):
            AdmissionPolicy(strategy=VOU, vou_fill=0.0)
        with pytest.raises(ValueError, match="voa_headroom"):
            AdmissionPolicy(strategy=VOA, voa_headroom=1.5)


class TestOneFormula:
    def test_boundary_aggregate_is_answered_once(self):
        policy = AdmissionPolicy(strategy=VOA)
        assert policy.cpu_budget_pct == 198.0
        single = policy.fits(BOUNDARY)
        assert not single
        # Rows whose sum with the template is BOUNDARY, bit for bit.
        sums = np.stack([np.zeros(4), BOUNDARY, np.zeros(4)])
        templates = (BOUNDARY, np.zeros(4), BOUNDARY)
        for row, template in enumerate(templates):
            mask = policy.admits_array(sums, template)
            assert bool(mask[row]) == bool(single)
        assert bool(policy.fits(BOUNDARY[np.newaxis, :])[0]) == bool(single)

    @pytest.mark.parametrize("strategy", [VOA, VOU])
    def test_rows_agree_with_single_aggregates(self, strategy):
        policy = AdmissionPolicy(strategy=strategy)
        rng = np.random.default_rng(11)
        # Aggregates scattered around both budgets.
        sums = np.column_stack([
            rng.uniform(0.5, 1.1, 400) * policy.cpu_budget_pct,
            rng.choice([1536.0, 1664.0, 1792.0, 1920.0], 400),
            rng.uniform(0.0, 600.0, 400),
            rng.uniform(0.0, 3000.0, 400),
        ])
        template = np.array([14.5, 128.0, 25.0, 120.0])
        mask = policy.admits_array(sums, template)
        rows = policy.fits(sums + template)
        single = [bool(policy.fits(row + template)) for row in sums]
        assert mask.tolist() == rows.tolist() == single
        assert 0 < mask.sum() < len(mask)

    def test_required_cpu_is_elementwise(self):
        overhead = LinearOverhead.from_calibration()
        rng = np.random.default_rng(5)
        cpu, io, bw = rng.uniform(0.0, 300.0, (3, 64))
        vector = overhead.required_cpu_array(cpu, io, bw)
        scalars = [
            overhead.required_cpu_array(c, i, b)
            for c, i, b in zip(cpu.tolist(), io.tolist(), bw.tolist())
        ]
        assert vector.tolist() == scalars
