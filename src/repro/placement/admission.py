"""O(1) admission predicates over per-PM demand aggregates.

The paper-scale :class:`repro.placement.placer.Placer` re-walks every
resident VM's demand vector on each admission check -- fine for 7 PMs,
quadratic pain for a datacenter.  At fleet scale the coordinator keeps
one aggregate per PM -- the element-wise sum of resident peak-demand
vectors plus the resident count -- and both placement strategies
reduce to affine functions of that aggregate:

* **VOU** (overhead-unaware) admits while the guest CPU sum fits the
  *nominal* hardware capacity and guest memory fits physical RAM --
  exactly the check that ignores where Dom0 and hypervisor cycles and
  memory come from.
* **VOA** (overhead-aware) admits while the *predicted PM* CPU --
  guests plus Dom0 plus hypervisor via the linear form of the paper's
  Eq. (3) -- fits the effective (schedulable) capacity with headroom,
  and guest memory fits what the Dom0 working set leaves of RAM.

:class:`LinearOverhead` carries the linear rates of the Xen
calibration (the convex/batching refinements matter for per-PM
accuracy, not for capacity planning), so a check is a handful of
multiply-adds.  One predicate, :meth:`AdmissionPolicy.fits`, answers
for one aggregate or for many rows at once, and
:meth:`AdmissionPolicy.admits_array` answers "which of these 1000 PMs
admit this VM?" in one numpy pass through the same test.

Demand vectors are ``[cpu_pct, mem_mb, io_bps, bw_kbps]`` (the
:data:`CPU` .. :data:`BW` column order used across the fleet modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.placement.placer import VOA, VOU
from repro.xen.calibration import XenCalibration
from repro.xen.specs import MachineSpec

#: Demand-vector column indices.
CPU, MEM, IO, BW = 0, 1, 2, 3


@dataclass(frozen=True)
class LinearOverhead:
    """Dom0 + hypervisor CPU as an affine function of aggregate demand.

    The linear rates of :class:`repro.xen.calibration.XenCalibration`,
    Dom0 and hypervisor folded together; :meth:`required_cpu_array` adds
    them to the guests' own CPU.
    """

    base: float
    cpu_rate: float
    io_rate: float
    bw_rate: float

    @classmethod
    def from_calibration(
        cls, calibration: XenCalibration | None = None
    ) -> "LinearOverhead":
        cal = calibration or XenCalibration()
        return cls(
            base=cal.dom0_cpu_base + cal.hyp_cpu_base,
            cpu_rate=cal.dom0_ctl_lin + cal.hyp_ctl_lin,
            io_rate=cal.dom0_io_pct_per_bps + cal.hyp_io_pct_per_bps,
            bw_rate=cal.dom0_net_pct_per_kbps + cal.hyp_net_pct_per_kbps,
        )

    def required_cpu_array(self, cpu, io, bw):
        """Guests + Dom0 + hypervisor CPU (pct points), elementwise over
        aggregate CPU, IO and BW sums (arrays or scalars).

        The only copy of the affine form: admission and the fleet's
        overload judge both call it, so they add the same terms in the
        same order and agree bit for bit on every aggregate.
        """
        return (
            cpu * (1.0 + self.cpu_rate)
            + io * self.io_rate
            + bw * self.bw_rate
            + self.base
        )


@dataclass(frozen=True)
class AdmissionPolicy:
    """One strategy's aggregate admission predicate.

    ``strategy`` is :data:`repro.placement.placer.VOA` or ``VOU``;
    ``vou_fill`` and ``voa_headroom`` are the fractions of the nominal
    respectively effective CPU budget the strategy packs up to.
    """

    strategy: str
    overhead: LinearOverhead = field(
        default_factory=LinearOverhead.from_calibration
    )
    machine: MachineSpec = field(default_factory=MachineSpec)
    effective_capacity_pct: float = 225.0
    dom0_mem_mb: float = 350.0
    vou_fill: float = 0.95
    voa_headroom: float = 0.88

    def __post_init__(self) -> None:
        if self.strategy not in (VOA, VOU):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.vou_fill <= 1.0:
            raise ValueError("vou_fill must be in (0, 1]")
        if not 0.0 < self.voa_headroom <= 1.0:
            raise ValueError("voa_headroom must be in (0, 1]")

    @property
    def cpu_budget_pct(self) -> float:
        """The strategy's packing budget in CPU percentage points."""
        if self.strategy == VOU:
            return self.machine.cpu_capacity_pct * self.vou_fill
        return self.effective_capacity_pct * self.voa_headroom

    @property
    def mem_budget_mb(self) -> float:
        """Guest memory budget (VOA reserves the Dom0 working set)."""
        if self.strategy == VOU:
            return float(self.machine.mem_mb)
        return float(self.machine.mem_mb) - self.dom0_mem_mb

    def fits(self, joined: np.ndarray):
        """Do aggregates ``joined`` fit the strategy's budgets?

        ``joined`` is one PM aggregate with the candidate VM already
        added -- a ``(4,)`` vector, or ``(n, 4)`` rows answered row by
        row.
        """
        return self._fits(lambda col: joined[..., col])

    def admits_array(
        self, sums: np.ndarray, template: np.ndarray
    ) -> np.ndarray:
        """Which PMs of a ``(pms, 4)`` aggregate matrix admit ``template``:
        :meth:`fits` of ``sums + template``, joined one column at a time
        (only the columns the strategy reads, no ``(pms, 4)`` temporary).
        """
        return self._fits(lambda col: sums[:, col] + template[col])

    def _fits(self, joined):
        """The budget test over ``joined(col)``, a joined aggregate column."""
        ok = joined(MEM) <= self.mem_budget_mb
        cpu = joined(CPU)
        if self.strategy == VOA:
            cpu = self.overhead.required_cpu_array(
                cpu, joined(IO), joined(BW)
            )
        ok &= cpu <= self.cpu_budget_pct
        return ok
