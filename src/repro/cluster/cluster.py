"""Multi-PM cluster orchestration.

A :class:`Cluster` owns several :class:`~repro.xen.machine.PhysicalMachine`
instances on one simulator clock and routes inter-PM traffic between
them: every routing tick it scans all guest flows whose destination VM
lives on a *different* PM and feeds the receiving machine's
``external_inbound_kbps`` table, so both the sender's and the receiver's
NIC (and Dom0 netback CPU) see the traffic -- exactly the asymmetry the
paper's RUBiS experiment exercises (web tier sends big responses, DB
tier receives small queries).

The router obeys the state clock's "bump on change, not on write" rule
(:mod:`repro.xen.stateclock`): a PM's table is rewritten only when the
routed result differs from what it already holds, and a routing tick at
an unmoved clock is skipped outright -- every input the router reads
(residency, flow lists, flow endpoints and rates) bumps the clock.
Otherwise the router's own rewrites would invalidate every machine's
steady-quantum memo on every quantum.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.sim import fastpath as _fastpath
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.xen import stateclock
from repro.xen.calibration import XenCalibration
from repro.xen.machine import DEFAULT_QUANTUM, PhysicalMachine
from repro.xen.specs import MachineSpec, VMSpec
from repro.xen.vm import GuestVM

#: Routing runs after workload updates (-10) and before machine quanta (0).
ROUTING_PRIORITY = -5
#: Key prefix of router-owned ``external_inbound_kbps`` entries.
ROUTE_TAG = "cluster:"


class Cluster:
    """A set of PMs sharing one simulator and a routing fabric."""

    def __init__(
        self,
        sim: Simulator,
        *,
        quantum: float = DEFAULT_QUANTUM,
        calibration: Optional[XenCalibration] = None,
        spec: Optional[MachineSpec] = None,
    ) -> None:
        self.sim = sim
        self.quantum = quantum
        self._calibration = calibration
        self._spec = spec
        self._pms: Dict[str, PhysicalMachine] = {}
        self._router: Optional[PeriodicProcess] = None
        #: State-clock value after the last routing pass (-1: never).
        self._routed_version = -1

    # -- topology ----------------------------------------------------------

    @property
    def pms(self) -> Dict[str, PhysicalMachine]:
        """Hosted machines keyed by name (do not mutate)."""
        return self._pms

    def create_pm(self, name: str) -> PhysicalMachine:
        """Add a PM built from the cluster's shared spec/calibration."""
        if name in self._pms:
            raise ValueError(f"duplicate PM name {name!r}")
        pm = PhysicalMachine(
            self.sim,
            name=name,
            spec=self._spec,
            calibration=self._calibration,
            quantum=self.quantum,
        )
        self._pms[name] = pm
        return pm

    def pm_of(self, vm_name: str) -> PhysicalMachine:
        """The machine hosting ``vm_name``.

        Raises
        ------
        KeyError
            If no PM hosts a VM by that name.
        """
        for pm in self._pms.values():
            if vm_name in pm.vms:
                return pm
        raise KeyError(f"no PM hosts a VM named {vm_name!r}")

    def find_vm(self, vm_name: str) -> GuestVM:
        """Look a guest up by name across all PMs."""
        return self.pm_of(vm_name).vms[vm_name]

    def all_vms(self) -> Iterator[GuestVM]:
        """Every guest in the cluster."""
        for pm in self._pms.values():
            yield from pm.vms.values()

    def place_vm(self, spec: VMSpec, pm_name: str) -> GuestVM:
        """Create a guest on the named PM."""
        try:
            pm = self._pms[pm_name]
        except KeyError:
            raise KeyError(f"no PM named {pm_name!r}") from None
        return pm.create_vm(spec)

    def migrate_vm(self, vm_name: str, dst_pm: str) -> GuestVM:
        """Move a guest (state and flows included) to another PM."""
        src = self.pm_of(vm_name)
        if dst_pm not in self._pms:
            raise KeyError(f"no PM named {dst_pm!r}")
        if src.name == dst_pm:
            return src.vms[vm_name]
        vm = src.remove_vm(vm_name)
        try:
            return self._pms[dst_pm].add_vm(vm)
        except MemoryError:
            src.add_vm(vm)  # roll back
            raise

    # -- simulation ------------------------------------------------------

    def start(self) -> None:
        """Start every PM plus the inter-PM traffic router."""
        if self._router is not None and not self._router.stopped:
            raise RuntimeError("cluster already started")
        for pm in self._pms.values():
            pm.start()
        self._router = PeriodicProcess(
            self.sim, self.quantum, self._route, priority=ROUTING_PRIORITY
        )

    def stop(self) -> None:
        """Freeze the whole cluster."""
        for pm in self._pms.values():
            pm.stop()
        if self._router is not None:
            self._router.stop()
            self._router = None

    def run(self, seconds: float) -> None:
        """Advance the shared clock."""
        self.sim.run_until(self.sim.now + seconds)

    def _route(self, _now: float) -> None:
        """Refresh every PM's external-inbound table from live flows.

        Skipped when the state clock has not moved since the last pass
        (except under ``REPRO_SIM_SLOWPATH``, which routes every
        quantum); a table is rewritten only when its routed contents or
        order would change.
        """
        if (
            stateclock._version == self._routed_version
            and not _fastpath._slowpath
        ):
            return
        inbound: Dict[str, Dict[str, float]] = {
            name: {} for name in self._pms
        }
        for src_pm in self._pms.values():
            for vm in src_pm.vms.values():
                for flow in vm.flows:
                    if flow.external or flow.dst in src_pm.vms:
                        continue  # external or intra-PM: no routing needed
                    for dst_name, dst_pm in self._pms.items():
                        if flow.dst in dst_pm.vms and dst_name != src_pm.name:
                            table = inbound[dst_name]
                            table[flow.dst] = table.get(flow.dst, 0.0) + flow.kbps
                            break
        for name, pm in self._pms.items():
            # Router-owned entries come after the application-owned ones
            # (e.g. client traffic from outside the cluster), which keep
            # their order; the machine sums the table in this order.
            table = pm.external_inbound_kbps
            current = list(table.items())
            routed = [(f"{ROUTE_TAG}{dst}", kbps)
                      for dst, kbps in inbound[name].items()]
            kept = [item for item in current
                    if not item[0].startswith(ROUTE_TAG)]
            if kept + routed == current:
                continue
            for key, _ in current:
                if key.startswith(ROUTE_TAG):
                    del table[key]
            for key, kbps in routed:
                table[key] = kbps
        self._routed_version = stateclock._version


__all__ = ["Cluster", "ROUTING_PRIORITY"]
