"""Fleet-scale VOA vs VOU: the Figure 10 comparison at datacenter size.

The paper's placement experiment stops at 2 PMs and 5 VMs; this one
runs the same strategies over the vectorized fleet simulator
(:mod:`repro.cluster.fleet`) with 1000+ PMs, 10^4+ VMs and an
open-loop population of 10^5+ emulated clients:

* **fleeta** -- fleet throughput over time: the open-loop offered load
  and what each strategy's packing actually serves.  VOU packs guests
  against nominal hardware, so Dom0/hypervisor cycles it never
  budgeted for overload its PMs and requests are lost; VOA's packing
  absorbs the same load.
* **fleetb** -- placement churn and overload: overloaded PM-ticks and
  reactive migrations per epoch.  VOU pays for its packing with
  migration churn that takes most of the run to undo; VOA needs
  (almost) none.

Trials fan out as :class:`~repro.perf.cells.FleetCell`\\ s through
``run_cells``' incremental-consume mode: each trial's bounded summary
is folded into per-strategy accumulators and released, so a fleet
sweep's memory stays flat no matter how many trials ride along.  Each
trial's summary is a pure function of its seed, so the rendered
artifacts are byte-identical across reruns and for serial-vs-``--jobs``
runs alike.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.base import (
    Check,
    ExperimentResult,
    Series,
    bound_check,
)
from repro.cluster.fleet import FleetConfig
from repro.perf.cells import FleetCell
from repro.perf.executor import run_cells
from repro.placement.placer import VOA, VOU

#: Default scale: the ROADMAP's datacenter-scale floor.
DEFAULT_PMS = 1000
DEFAULT_VMS = 10_000
DEFAULT_CLIENTS = 100_000
DEFAULT_DURATION_S = 300.0
DEFAULT_EPOCH_S = 10.0
DEFAULT_TRIALS = 2


class _StrategyAccumulator:
    """Streaming per-strategy aggregates over fleet trials."""

    def __init__(self) -> None:
        self.trials = 0
        self.served_fraction_sum = 0.0
        self.migrations = 0
        self.migrations_rejected = 0
        self.overloaded_pm_ticks = 0
        self.hotspots = 0
        self.pms_used = 0
        self.placed_forced = 0
        #: Epoch series of the first trial (the figure's time axis).
        self.epoch_time: List[float] = []
        self.epoch_offered: List[float] = []
        self.epoch_served: List[float] = []
        self.epoch_overloaded: List[int] = []
        self.epoch_migrations: List[int] = []

    def fold(self, summary: Dict[str, Any]) -> None:
        if self.trials == 0:
            self.epoch_time = list(summary["epoch_time"])
            self.epoch_offered = list(summary["epoch_offered"])
            self.epoch_served = list(summary["epoch_served"])
            self.epoch_overloaded = list(summary["epoch_overloaded"])
            self.epoch_migrations = list(summary["epoch_migrations"])
            self.pms_used = int(summary["pms_used"])
            self.placed_forced = int(summary["placed_forced"])
        self.trials += 1
        self.served_fraction_sum += float(summary["served_fraction"])
        self.migrations += int(summary["migrations"])
        self.migrations_rejected += int(summary["migrations_rejected"])
        self.overloaded_pm_ticks += int(summary["overloaded_pm_ticks"])
        self.hotspots += int(summary["hotspots"])

    @property
    def served_fraction(self) -> float:
        return self.served_fraction_sum / max(1, self.trials)


def _epoch_rate(served: List[float], times: List[float]) -> List[float]:
    """Per-epoch served request rate (req/s) from per-epoch totals."""
    rates = []
    prev = 0.0
    for total, t in zip(served, times):
        span = t - prev
        rates.append(total / span if span > 0 else 0.0)
        prev = t
    return rates


def run_fleet_experiment(
    *,
    pms: int = DEFAULT_PMS,
    vms: int = DEFAULT_VMS,
    clients: int = DEFAULT_CLIENTS,
    duration_s: float = DEFAULT_DURATION_S,
    epoch_s: float = DEFAULT_EPOCH_S,
    trials: int = DEFAULT_TRIALS,
    seed: int = 2015,
    ramp_s: float | None = None,
    max_migrations_per_epoch: int = 50,
) -> List[ExperimentResult]:
    """Both fleet panels from one streamed (strategy x trial) sweep."""
    if ramp_s is None:
        ramp_s = duration_s / 3.0
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Validate the scale eagerly (FleetConfig's own checks) so a bad
    # CLI value is a usage error, not a permanently-failed fan-out.
    FleetConfig(
        pms=pms, vms=vms, clients=clients, duration_s=duration_s,
        epoch_s=epoch_s, seed=seed, ramp_s=ramp_s,
        max_migrations_per_epoch=max_migrations_per_epoch,
    )
    cells = [
        FleetCell(
            pms=pms,
            vms=vms,
            clients=clients,
            duration_s=duration_s,
            epoch_s=epoch_s,
            strategy=strategy,
            seed=seed + trial,
            ramp_s=ramp_s,
            max_migrations_per_epoch=max_migrations_per_epoch,
        )
        for strategy in (VOA, VOU)
        for trial in range(trials)
    ]
    acc = {VOA: _StrategyAccumulator(), VOU: _StrategyAccumulator()}

    def fold(index: int, value: Dict[str, Any]) -> None:
        acc[cells[index].strategy].fold(value)

    run_cells(cells, phase="fleet", consume=fold)
    voa, vou = acc[VOA], acc[VOU]

    scale_note = (
        f"{pms} PMs, {vms} VMs, {clients} open-loop clients, "
        f"{duration_s:g}s, {trials} trial(s)"
    )
    times = voa.epoch_time
    fleeta = ExperimentResult(
        experiment_id="fleeta",
        title="Fleet throughput: VOA vs VOU at datacenter scale",
        series=[
            Series(
                "offered", times, _epoch_rate(voa.epoch_offered, times),
                "Time (s)", "Request rate (req/s)",
            ),
            Series(
                "VOA served", times, _epoch_rate(voa.epoch_served, times),
                "Time (s)", "Request rate (req/s)",
            ),
            Series(
                "VOU served", times, _epoch_rate(vou.epoch_served, times),
                "Time (s)", "Request rate (req/s)",
            ),
        ],
        checks=[
            bound_check(
                "VOA serves the offered load",
                voa.served_fraction, above=0.99,
            ),
            bound_check(
                "VOU loses throughput to overhead-blind packing",
                vou.served_fraction, below=voa.served_fraction - 0.05,
            ),
            bound_check(
                "VOA uses more PMs than VOU (spread vs pack)",
                float(voa.pms_used), above=float(vou.pms_used) + 1.0,
            ),
        ],
        notes=scale_note,
    )
    fleetb = ExperimentResult(
        experiment_id="fleetb",
        title="Placement churn and overload: VOA vs VOU",
        series=[
            Series(
                "VOA overloaded PM-ticks", times,
                [float(v) for v in voa.epoch_overloaded],
                "Time (s)", "Overloaded PM-ticks / epoch",
            ),
            Series(
                "VOU overloaded PM-ticks", times,
                [float(v) for v in vou.epoch_overloaded],
                "Time (s)", "Overloaded PM-ticks / epoch",
            ),
            Series(
                "VOA migrations", times,
                [float(v) for v in voa.epoch_migrations],
                "Time (s)", "Migrations / epoch",
            ),
            Series(
                "VOU migrations", times,
                [float(v) for v in vou.epoch_migrations],
                "Time (s)", "Migrations / epoch",
            ),
        ],
        checks=[
            Check(
                "VOU pays with migration churn",
                vou.migrations > voa.migrations and vou.migrations > 0,
                f"VOU={vou.migrations} VOA={voa.migrations}",
            ),
            Check(
                "VOU overloads dominate",
                vou.overloaded_pm_ticks > voa.overloaded_pm_ticks,
                f"VOU={vou.overloaded_pm_ticks} "
                f"VOA={voa.overloaded_pm_ticks}",
            ),
            bound_check(
                "VOA avoids hotspot churn",
                float(voa.hotspots),
                below=max(1.0, 0.05 * max(1, vou.hotspots)),
            ),
        ],
        text=(
            f"VOA: served={voa.served_fraction:.4f} "
            f"pms_used={voa.pms_used} forced={voa.placed_forced} "
            f"migrations={voa.migrations} hotspots={voa.hotspots}\n"
            f"VOU: served={vou.served_fraction:.4f} "
            f"pms_used={vou.pms_used} forced={vou.placed_forced} "
            f"migrations={vou.migrations} hotspots={vou.hotspots} "
            f"rejected={vou.migrations_rejected}"
        ),
        notes=scale_note,
    )
    return [fleeta, fleetb]
