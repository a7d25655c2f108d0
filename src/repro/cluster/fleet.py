"""Fleet-scale datacenter simulator (VOA vs VOU at 1000+ PMs).

The paper compares overhead-aware (VOA) and overhead-unaware (VOU)
placement on 2 PMs and 5 VMs (Fig. 10).  This module runs the same
comparison at datacenter scale: thousands of PMs, tens of thousands of
VMs, and an open-loop client population of 10^5 - 10^6 users
(:class:`repro.rubis.openloop.OpenLoopArrivals`).

Model
-----
The placement coordinator's VM -> PM index (``vm_pm`` plus per-PM
template sums and counts) is the only record of which VM runs where.
It is built by a streaming next-fit deploy that runs no Python per VM:
numpy window sums give, for every VM at once, how many VMs in a row an
empty PM would admit from it, so the walk over the fleet takes one
Python step per PM (see :meth:`_Coordinator.deploy`).

Each :data:`TICK_S` one vectorized step advances the fluid load model
of the whole fleet: per-VM demand is the VM's peak-demand template
scaled by the global open-loop load factor and a multiplicative noise
draw (one ``(vms,)`` block per tick from the :data:`NOISE_STREAM`
stream); per-PM demand sums come from ``np.bincount`` over the index;
PM CPU requirement is guests + Dom0 + hypervisor via the linear
overhead form of :class:`repro.placement.admission.LinearOverhead`
(the same formula VOA admits with); the served request rate degrades
by ``capacity / required`` when a PM overloads.  A PM that stays
overloaded for :data:`HOTSPOT_TICKS` consecutive ticks, hosts more than
one VM and is out of its cooldown reports a *hotspot* naming its VM
with the largest CPU template.

Residency changes only at epoch barriers.  At each barrier the
coordinator consumes the epoch's hotspots in (time, PM index) order,
skips stale ones, caps migrations per epoch (the hotspots past the cap
are counted as rejected in one vector pass), picks targets with the
aggregate admission predicate of
:class:`repro.placement.admission.AdmissionPolicy` over all PMs at
once, and moves the VMs in the index before the next epoch starts.

Determinism: a run draws from exactly two named streams of one
sanitizer-aware :class:`repro.sim.engine.Simulator` RNG registry --
:data:`DEPLOY_STREAM` for the VM templates and :data:`NOISE_STREAM`
for the per-tick noise -- and reduces in fixed array order, so the seed
fixes every output float.  Memory stays bounded at fleet scale: a few
``(vms,)`` and ``(pms,)`` arrays plus per-epoch aggregate series,
never per-tick or per-VM history.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import runtime as _obs
from repro.placement.admission import BW, CPU, IO, MEM, AdmissionPolicy
from repro.placement.placer import VOA, VOU
from repro.rubis.openloop import OpenLoopArrivals
from repro.sim.engine import Simulator

#: Strategies the fleet experiment compares.
STRATEGIES = (VOA, VOU)

#: Simulated seconds per fleet step.
TICK_S = 1.0
#: Per-VM peak-demand template draws: uniform ranges of CPU %, IO b/s
#: and BW Kb/s, and a fixed memory footprint in MB.
VM_CPU_PCT = (8.0, 22.0)
VM_IO_BPS = (10.0, 40.0)
VM_BW_KBPS = (50.0, 200.0)
VM_MEM_MB = 128.0
#: Relative sigma of the per-tick multiplicative demand noise.
NOISE_REL = 0.05
#: Consecutive overloaded ticks that make a PM a hotspot.
HOTSPOT_TICKS = 3
#: Seconds a PM stays silent after reporting a hotspot.
COOLDOWN_S = 20.0
#: RNG stream of the VM templates (drawn once, before deployment).
DEPLOY_STREAM = "fleet.deploy"
#: RNG stream of the demand noise (one ``(vms,)`` block per tick).
NOISE_STREAM = "fleet.noise"
#: VMs whose next-fit windows the deploy sums at once: bounds the
#: window sums to ``RUN_BLOCK x 4`` floats (32 KB) at any fleet size.
RUN_BLOCK = 1024


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run (defaults are smoke scale; the CLI runs
    1000 PMs / 10^4 VMs / 10^5 clients)."""

    pms: int = 24
    vms: int = 240
    clients: int = 20_000
    duration_s: float = 120.0
    #: Placement epoch: hotspots are acted on at each epoch barrier.
    epoch_s: float = 10.0
    strategy: str = VOA
    seed: int = 0
    #: Open-loop warm-up: the client ramp reaches its plateau here.
    ramp_s: float = 40.0
    max_migrations_per_epoch: int = 50

    #: Seconds per step (fixed; not a constructor field).
    tick_s: ClassVar[float] = TICK_S

    def __post_init__(self) -> None:
        if self.pms < 1:
            raise ValueError("pms must be >= 1")
        if self.vms < 1:
            raise ValueError("vms must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for name in ("duration_s", "epoch_s", "ramp_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epoch_s < self.tick_s:
            raise ValueError(f"epoch_s must be >= tick_s ({self.tick_s:g})")
        if self.duration_s < self.epoch_s:
            raise ValueError("duration_s must cover at least one epoch")
        if self.ramp_s < 0:
            raise ValueError("ramp_s must be >= 0")
        if self.max_migrations_per_epoch < 0:
            raise ValueError("max_migrations_per_epoch must be >= 0")

    @property
    def epochs(self) -> int:
        """Epochs that hold at least one tick: the first ``n`` whose end
        ``n * epoch_s`` (the product the stepper compares) reaches the
        last tick, the last multiple of ``TICK_S`` within duration_s."""
        horizon = (self.duration_s // TICK_S) * TICK_S
        n = math.ceil(horizon / self.epoch_s)
        # The quotient can round across an integer the product does not.
        while (n - 1) * self.epoch_s >= horizon:
            n -= 1
        while n * self.epoch_s < horizon:
            n += 1
        return n

    def arrivals(self) -> OpenLoopArrivals:
        return OpenLoopArrivals(
            peak_clients=float(self.clients), ramp_s=self.ramp_s
        )


@dataclass
class FleetSummary:
    """What one fleet run produced (JSON-able, bounded)."""

    strategy: str
    seed: int
    pms: int
    vms: int
    epochs: int
    clients: int
    duration_s: float
    # Placement.
    pms_used: int = 0
    placed_forced: int = 0
    # Serving totals (requests).
    offered_total: float = 0.0
    served_total: float = 0.0
    served_fraction: float = 0.0
    # Overload / churn totals.
    overloaded_pm_ticks: int = 0
    hotspots: int = 0
    migrations: int = 0
    migrations_rejected: int = 0
    # Per-epoch series (bounded: one entry per epoch).
    epoch_time: List[float] = field(default_factory=list)
    epoch_offered: List[float] = field(default_factory=list)
    epoch_served: List[float] = field(default_factory=list)
    epoch_overloaded: List[int] = field(default_factory=list)
    epoch_migrations: List[int] = field(default_factory=list)
    #: PM-ticks stepped.
    events: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class _Coordinator:
    """Placement brain: the VM -> PM index, deployment, migrations."""

    def __init__(self, config: FleetConfig, policy: AdmissionPolicy,
                 templates: np.ndarray) -> None:
        self.config = config
        self.policy = policy
        self.templates = templates
        self.vm_pm = np.full(config.vms, -1, dtype=np.int64)
        self.sums = np.zeros((config.pms, 4), dtype=float)
        self.counts = np.zeros(config.pms, dtype=np.int64)
        # VMs by descending CPU template (then -1 for "none"), and each
        # VM's position in that order: a PM's hotspot victim is its
        # resident of lowest position.
        order = np.argsort(-templates[:, CPU], kind="stable")
        self._cpu_rank = np.empty(config.vms, dtype=np.int64)
        self._cpu_rank[order] = np.arange(config.vms)
        self._by_cpu = np.append(order, -1)
        self.placed_forced = 0
        self.migrations = 0
        self.migrations_rejected = 0

    def place(self, vm: int, pm: int) -> None:
        self.sums[pm] += self.templates[vm]
        self.counts[pm] += 1
        self.vm_pm[vm] = pm

    def remove(self, vm: int) -> None:
        pm = int(self.vm_pm[vm])
        self.sums[pm] -= self.templates[vm]
        self.counts[pm] -= 1
        self.vm_pm[vm] = -1

    def deploy(self) -> None:
        """Streaming next-fit initial placement.

        The pointer only advances: a PM that rejects the current VM is
        not revisited for later (possibly smaller) ones -- the price of
        a single pass over 10^4 VMs.  When the pointer runs off the
        end the fleet is full under this policy and the VM is forced
        onto the least-loaded PM by predicted required CPU (the
        :class:`~repro.placement.placer.Placer` fallback, scaled).

        No Python runs per VM.  :meth:`_run_lengths` answers, for a
        block of VMs at once, how many VMs in a row an empty PM would
        admit from each; the pointer then walks one step per PM, and
        each PM's sum is folded slot by slot in VM order, bit for bit
        the ``sums[pm] += template`` of a per-VM loop.  Cost: one numpy
        pass over the VMs per VM a PM can hold -- the memory budget
        bounds that at 16 under VOU and 13 under VOA -- then O(pms)
        Python steps, then one ``argmin`` over the PMs per forced VM,
        which updates the one ``required`` entry it changed.
        """
        vms, pms = self.config.vms, self.config.pms
        first = np.empty(pms, dtype=np.int64)
        vm = used = 0
        lo, run = 0, self._run_lengths(0)
        while vm < vms and used < pms:
            if vm >= lo + run.size:
                lo, run = vm, self._run_lengths(vm)
            taken = int(run[vm - lo])
            if not taken:
                break
            first[used] = vm
            self.counts[used] = taken
            self.vm_pm[vm:vm + taken] = used
            vm += taken
            used += 1
        counts = self.counts[:used]
        for slot in range(int(counts.max()) if used else 0):
            rows = np.flatnonzero(counts > slot)
            self.sums[rows] += self.templates[first[rows] + slot]
        if vm == vms:
            return
        # Every PM from the pointer on is empty and rejects this VM as
        # the first one rejected it: the rest of the fleet is forced.
        overhead = self.policy.overhead
        sums = self.sums
        required = overhead.required_cpu_array(
            sums[:, CPU], sums[:, IO], sums[:, BW]
        )
        for forced in range(vm, vms):
            pm = int(np.argmin(required))
            self.place(forced, pm)
            required[pm] = overhead.required_cpu_array(
                sums[pm, CPU], sums[pm, IO], sums[pm, BW]
            )
        self.placed_forced = vms - vm

    def _run_lengths(self, lo: int) -> np.ndarray:
        """How many VMs in a row an empty PM admits from each of the
        :data:`RUN_BLOCK` VMs starting at ``lo``.

        ``joined`` holds each start's window sum, accumulated in VM
        order; the windows grow one VM per pass until no start's PM
        admits the next VM.
        """
        templates, fits = self.templates, self.policy.fits
        vms = len(templates)
        joined = templates[lo:lo + RUN_BLOCK].copy()
        alive = fits(joined)
        run = np.zeros(alive.size, dtype=np.int64)
        width = 0
        while alive.any():
            run[:alive.size] += alive
            width += 1
            rows = min(alive.size, vms - lo - width)
            window = joined[:rows]
            np.add(window, templates[lo + width:lo + width + rows],
                   out=window)
            alive = alive[:rows] & fits(window)
        return run

    def find_target(self, template: np.ndarray,
                    exclude: int) -> Optional[int]:
        mask = self.policy.admits_array(self.sums, template)
        mask[exclude] = False
        target = int(mask.argmax())
        return target if mask[target] else None

    def victims(self) -> np.ndarray:
        """Each PM's resident with the largest CPU template (-1: empty)."""
        best = np.full(self.config.pms, self.config.vms, dtype=np.int64)
        np.minimum.at(best, self.vm_pm, self._cpu_rank)
        return self._by_cpu[best]

    def process(self, hot_pms: List[int], victim: np.ndarray) -> int:
        """Act on one epoch's hotspots in order; return migrations made.

        ``victim`` is the epoch's :meth:`victims`, from before any of
        this barrier's moves.  Once the per-epoch cap is reached no VM
        moves, so every later hotspot that is not stale is rejected.
        """
        scheduled = 0
        cap = self.config.max_migrations_per_epoch
        for n, pm in enumerate(hot_pms):
            if scheduled >= cap:
                rest = np.array(hot_pms[n:], dtype=np.int64)
                self.migrations_rejected += int(
                    np.count_nonzero(self.vm_pm[victim[rest]] == rest)
                )
                break
            vm = int(victim[pm])
            if int(self.vm_pm[vm]) != pm:
                continue  # stale: the VM already migrated away
            dst = self.find_target(self.templates[vm], exclude=pm)
            if dst is None:
                self.migrations_rejected += 1
                continue
            self.remove(vm)
            self.place(vm, dst)
            scheduled += 1
        self.migrations += scheduled
        return scheduled


def _draw_templates(vms: int, rng: np.random.Generator) -> np.ndarray:
    """Per-VM peak-demand templates ``[cpu, mem, io, bw]``, stored
    column-major so the per-tick demand reads contiguous columns."""
    templates = np.empty((vms, 4), dtype=float, order="F")
    templates[:, CPU] = rng.uniform(*VM_CPU_PCT, size=vms)
    templates[:, IO] = rng.uniform(*VM_IO_BPS, size=vms)
    templates[:, BW] = rng.uniform(*VM_BW_KBPS, size=vms)
    templates[:, MEM] = VM_MEM_MB
    return templates


def run_fleet(config: FleetConfig) -> FleetSummary:
    """Run one fleet simulation; return its bounded summary."""
    policy = AdmissionPolicy(strategy=config.strategy)
    capacity = policy.effective_capacity_pct
    arrivals = config.arrivals()
    # The simulator exists for its (sanitizer-aware) RNG registry and
    # never dispatches an event.
    sim = Simulator(seed=config.seed)
    templates = _draw_templates(config.vms, sim.rng(DEPLOY_STREAM))
    noise_rng = sim.rng(NOISE_STREAM)
    coordinator = _Coordinator(config, policy, templates)
    pms, vms = config.pms, config.vms
    summary = FleetSummary(
        strategy=config.strategy,
        seed=config.seed,
        pms=pms,
        vms=vms,
        epochs=config.epochs,
        clients=config.clients,
        duration_s=config.duration_s,
    )
    with _obs.span("fleet.run", source="cluster"):
        coordinator.deploy()
        summary.pms_used = int((coordinator.counts > 0).sum())
        summary.placed_forced = coordinator.placed_forced
        # Offered load follows the VMs: each VM carries a share of the
        # peak open-loop request rate proportional to its CPU template,
        # scaled at runtime by the load factor rho(t).
        cpu = templates[:, CPU]
        peak_rate = arrivals.peak_clients / arrivals.think_time_s
        rate_scale = peak_rate / float(cpu.sum())
        demand = np.zeros((pms, 4), dtype=float)
        streak = np.zeros(pms, dtype=np.int64)
        cooldown_until = np.zeros(pms, dtype=float)
        tick = 0
        for epoch in range(config.epochs):
            t_end = min(config.duration_s, (epoch + 1) * config.epoch_s)
            vm_pm = coordinator.vm_pm
            weight = np.bincount(vm_pm, weights=cpu, minlength=pms)
            multi = coordinator.counts > 1
            victim = coordinator.victims()
            hot_pms: List[int] = []
            offered = served = 0.0
            overloaded = 0
            while (tick + 1) * TICK_S <= t_end:
                tick += 1
                now = tick * TICK_S
                rho = arrivals.load_factor(now)
                scale = noise_rng.normal(1.0, NOISE_REL, size=vms)
                np.clip(scale, 0.5, 1.5, out=scale)
                scale *= rho
                for col in (CPU, IO, BW):
                    demand[:, col] = np.bincount(
                        vm_pm, weights=templates[:, col] * scale,
                        minlength=pms,
                    )
                required = policy.overhead.required_cpu_array(
                    demand[:, CPU], demand[:, IO], demand[:, BW]
                )
                offered_pm = (rate_scale * rho) * weight
                offered += float(offered_pm.sum()) * TICK_S
                served += float(
                    offered_pm @ np.minimum(1.0, capacity / required)
                ) * TICK_S
                over = required > capacity
                overloaded += int(np.count_nonzero(over))
                streak = np.where(over, streak + 1, 0)
                hot = np.flatnonzero(
                    over & multi & (streak >= HOTSPOT_TICKS)
                    & (cooldown_until <= now)
                )
                if hot.size:
                    hot_pms.extend(hot.tolist())
                    cooldown_until[hot] = now + COOLDOWN_S
                    streak[hot] = 0
            migrated = coordinator.process(hot_pms, victim)
            # The epoch's time is its last tick's, so a partial last
            # epoch's rate divides by the time its ticks cover.
            summary.epoch_time.append(tick * TICK_S)
            summary.epoch_offered.append(offered)
            summary.epoch_served.append(served)
            summary.epoch_overloaded.append(overloaded)
            summary.epoch_migrations.append(migrated)
            summary.offered_total += offered
            summary.served_total += served
            summary.overloaded_pm_ticks += overloaded
            summary.hotspots += len(hot_pms)
            _obs.inc("repro_fleet_epochs_total")
        if summary.offered_total > 0:
            summary.served_fraction = (
                summary.served_total / summary.offered_total
            )
        summary.migrations = coordinator.migrations
        summary.migrations_rejected = coordinator.migrations_rejected
        summary.events = pms * tick
    _obs.inc("repro_fleet_migrations_total", coordinator.migrations)
    _obs.inc("repro_fleet_hotspots_total", summary.hotspots)
    _obs.set_gauge("repro_fleet_pms", config.pms)
    _obs.set_gauge("repro_fleet_vms", config.vms)
    return summary


def run_fleet_cell(cell) -> Tuple[Dict[str, object], int]:
    """Entry point for :class:`repro.perf.cells.FleetCell`."""
    config = FleetConfig(
        pms=cell.pms,
        vms=cell.vms,
        clients=cell.clients,
        duration_s=cell.duration_s,
        epoch_s=cell.epoch_s,
        strategy=cell.strategy,
        seed=cell.seed,
        ramp_s=cell.ramp_s,
        max_migrations_per_epoch=cell.max_migrations_per_epoch,
    )
    summary = run_fleet(config)
    return summary.as_dict(), summary.events
