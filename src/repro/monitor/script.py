"""The unified measurement script (paper Section III-A).

No single tool covers all metrics, so the paper runs a shell script that
launches the right tool for each metric, synchronized at 1 Hz:

* ``xentop`` in Dom0 -> guest and Dom0 CPU / I/O / bandwidth;
* ``top`` inside each guest -> guest memory (and in Dom0 -> Dom0 memory);
* ``mpstat`` in Xen -> hypervisor CPU;
* ``vmstat`` / ``ifconfig`` in Dom0 -> PM I/O and PM bandwidth;
* PM memory = Dom0 memory + sum of guest memories (estimated);
* PM CPU = Dom0 + hypervisor + sum of guest CPU (computed indirectly,
  Section III-C).

:class:`MeasurementScript` emulates exactly that composition and
returns the samples as a :class:`~repro.traces.TraceSet` wrapped in a
:class:`MeasurementReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.faults.sampling import SAMPLE_DROP, SAMPLE_OUTLIER, SampleFaults
from repro.monitor.metrics import (
    ENTITY_DOM0,
    ENTITY_HYPERVISOR,
    ENTITY_PM,
    RESOURCES,
    UNITS,
    trace_name,
)
from repro.monitor.tools import (
    SCOPE_DOM0,
    SCOPE_PM,
    SCOPE_VM,
    IfConfig,
    MeasurementTool,
    MpStat,
    ToolFailure,
    Top,
    VmStat,
    XenTop,
)
from repro.obs import runtime as _obs
from repro.sim import fastpath as _fastpath
from repro.sim.process import PeriodicProcess
from repro.traces import Trace, TraceSet
from repro.xen.machine import MONITOR_PRIORITY, PhysicalMachine

#: The paper samples once per second ...
DEFAULT_INTERVAL = 1.0
#: ... for two minutes per configuration.
DEFAULT_DURATION = 120.0

#: Gap policies: fill lost ticks with the last-known-good reading, or
#: leave an explicit NaN (consumers must then honor the validity mask).
GAP_HOLD = "hold"
GAP_NAN = "nan"
GAP_POLICIES = (GAP_HOLD, GAP_NAN)


@dataclass
class MeasurementReport:
    """The outcome of one measurement run.

    ``validity`` is ``None`` for a clean run (every tick sampled); under
    fault injection it is a boolean mask aligned with every trace, False
    where the tick was an explicit gap (dropout burst or crashed PM).
    """

    pm_name: str
    traces: TraceSet
    validity: Optional[np.ndarray] = None

    def mean(
        self, entity: str, resource: str, *, valid_only: bool = False
    ) -> float:
        """Mean utilization over the run (the paper's reported value).

        With ``valid_only`` the mean skips gap ticks -- the right call
        under the NaN gap policy, where gaps would poison the mean.
        """
        trace = self.traces[trace_name(entity, resource)]
        if valid_only and self.validity is not None:
            values = trace.values[self.validity]
            if len(values) == 0:
                raise ValueError(
                    f"no valid samples for {entity}.{resource} on "
                    f"{self.pm_name}"
                )
            return float(values.mean())
        return trace.mean()

    def series(self, entity: str, resource: str) -> Trace:
        """The full 1 Hz series for one metric."""
        return self.traces[trace_name(entity, resource)]

    def entities(self) -> List[str]:
        """All measured entities (VM names plus dom0 / hyp / pm)."""
        return sorted({name.split(".", 1)[0] for name in self.traces.names})

    def n_gaps(self) -> int:
        """Number of ticks lost to dropouts / PM outages."""
        if self.validity is None:
            return 0
        return int((~self.validity).sum())

    def valid_fraction(self) -> float:
        """Fraction of ticks that were actually sampled."""
        if self.validity is None:
            return 1.0
        if len(self.validity) == 0:
            return 1.0
        return float(self.validity.mean())


class MeasurementScript:
    """Synchronized 1 Hz monitoring of one PM.

    Parameters
    ----------
    pm:
        The machine to monitor (its simulator provides the clock and
        the per-tool noise streams).
    interval:
        Sampling period in seconds.
    noiseless:
        Disable measurement noise (useful for calibration tests).
    faults:
        Optional :class:`~repro.faults.sampling.SampleFaults` model for
        dropout bursts and outlier corruption.  ``None`` (the default)
        adds no per-tick work and no RNG draws -- clean runs are
        byte-identical to a build without fault support.
    gap_policy:
        How lost ticks are recorded: ``"hold"`` carries the last-known
        good reading forward (the shell script's behaviour), ``"nan"``
        leaves an explicit NaN.  Either way the tick's validity flag is
        cleared, so reports stay aligned across PMs with no silent data
        loss.
    """

    def __init__(
        self,
        pm: PhysicalMachine,
        *,
        interval: float = DEFAULT_INTERVAL,
        noiseless: bool = False,
        tool_failure_prob: float = 0.0,
        faults: Optional[SampleFaults] = None,
        gap_policy: str = GAP_HOLD,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"gap_policy must be one of {GAP_POLICIES}, got {gap_policy!r}"
            )
        self.pm = pm
        self.interval = interval
        self._faults = faults
        self._gap_policy = gap_policy
        self._corrupt_tick = False
        rng = pm.sim.rng
        key = f"monitor.{pm.name}"
        kw = dict(noiseless=noiseless, failure_prob=tool_failure_prob)
        self._xentop = XenTop(pm.cal, rng(f"{key}.xentop"), **kw)
        self._top = Top(pm.cal, rng(f"{key}.top"), **kw)
        self._mpstat = MpStat(pm.cal, rng(f"{key}.mpstat"), **kw)
        self._vmstat = VmStat(pm.cal, rng(f"{key}.vmstat"), **kw)
        self._ifconfig = IfConfig(pm.cal, rng(f"{key}.ifconfig"), **kw)
        # Hoisted per-tick constants for the precompiled sampling plan.
        self._noiseless = noiseless
        self._failure_prob = tool_failure_prob
        self._noise_floor = pm.cal.noise_floor
        self._sigmas = {
            res: pm.cal.noise_sigma_for(res) for res in RESOURCES
        }
        self._tools = (
            self._xentop,
            self._top,
            self._mpstat,
            self._vmstat,
            self._ifconfig,
        )
        #: The fast plan inlines MeasurementTool.read; a tool subclass
        #: with its own read() must keep routing through it.
        self._tools_native = all(
            type(t).read is MeasurementTool.read for t in self._tools
        )
        self._fast_plan: Optional[tuple] = None
        self._times: List[float] = []
        self._samples: Dict[str, List[float]] = {}
        self._valid: List[bool] = []
        self._proc: Optional[PeriodicProcess] = None
        #: A reading failed with no previous sample to carry forward,
        #: so the current tick holds a fabricated value.
        self._unseeded_tick = False
        #: Readings lost to transient tool failures (each one is filled
        #: with the previous reading, as the shell script does).
        self.missed_samples = 0
        #: Whole ticks lost to dropout bursts or PM outages.
        self.gap_samples = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin sampling at the next interval boundary.

        Every per-run accumulator is reset -- including the fault
        counters and the per-tick corruption flag, so a restarted
        script never inherits the previous run's tallies.
        """
        if self._proc is not None and not self._proc.stopped:
            raise RuntimeError("measurement script already running")
        self._times.clear()
        self._samples.clear()
        self._valid.clear()
        self.missed_samples = 0
        self.gap_samples = 0
        self._corrupt_tick = False
        self._unseeded_tick = False
        self._fast_plan = None
        self._proc = PeriodicProcess(
            self.pm.sim, self.interval, self._sample, priority=MONITOR_PRIORITY
        )

    def stop(self) -> MeasurementReport:
        """Stop sampling and assemble the report."""
        if self._proc is None:
            raise RuntimeError("measurement script was never started")
        self._proc.stop()
        self._proc = None
        return self._build_report()

    def run(self, duration: float = DEFAULT_DURATION) -> MeasurementReport:
        """Start, simulate ``duration`` seconds, stop, and report."""
        if duration < self.interval:
            raise ValueError("duration shorter than one sampling interval")
        with _obs.span(
            "monitor.run", "monitor", sim=self.pm.sim, pm=self.pm.name
        ):
            self.start()
            self.pm.sim.run_until(self.pm.sim.now + duration)
            return self.stop()

    # -- internals ---------------------------------------------------------

    def _record(self, entity: str, resource: str, value: float) -> None:
        self._samples.setdefault(trace_name(entity, resource), []).append(value)

    def _read(
        self, tool, snap, scope: str, resource: str, entity: str, vm_name=None
    ) -> float:
        """One reading; a transient tool failure repeats the previous
        sample (the shell script's carry-forward behaviour).

        A failure with *no* previous sample has nothing to carry
        forward; the substituted value (0.0 under ``hold``, NaN under
        ``nan``) is fabricated, so the whole tick is flagged invalid
        rather than silently polluting the trace mean.
        """
        try:
            value = tool.read(snap, scope, resource, vm_name)
        except ToolFailure:
            self.missed_samples += 1
            _obs.inc("repro_monitor_missed_samples_total", pm=self.pm.name)
            prev = self._samples.get(trace_name(entity, resource))
            if prev:
                return prev[-1]
            self._unseeded_tick = True
            return float("nan") if self._gap_policy == GAP_NAN else 0.0
        if self._corrupt_tick:
            value = self._faults.corrupt(value)
        return value

    def _expected_traces(self, snap) -> List[str]:
        """Every trace name a full tick of this snapshot would record."""
        names: List[str] = []
        for vm_name in snap.vms:
            for res in RESOURCES:
                names.append(trace_name(vm_name, res))
        for res in RESOURCES:
            names.append(trace_name(ENTITY_DOM0, res))
        names.append(trace_name(ENTITY_HYPERVISOR, "cpu"))
        for res in RESOURCES:
            names.append(trace_name(ENTITY_PM, res))
        return names

    def _record_gap(self, snap) -> None:
        """Record one lost tick: held or NaN values, validity False.

        The tick still occupies its slot in every series, so multi-PM
        reports stay aligned on the shared clock no matter which PM
        dropped which ticks.
        """
        self.gap_samples += 1
        _obs.inc("repro_monitor_gap_ticks_total", pm=self.pm.name)
        for name in self._expected_traces(snap):
            prev = self._samples.get(name)
            if self._gap_policy == GAP_HOLD:
                value = prev[-1] if prev else 0.0
            else:
                value = float("nan")
            self._samples.setdefault(name, []).append(value)

    def _sample(self, now: float) -> None:
        """One 1 Hz tick: dispatch to the precompiled fast plan or the
        reference path.

        The fast plan applies only to *clean* ticks -- no fault model,
        no tool-failure probability, PM up, fast path enabled.  Anything
        else (including a crashed PM mid-run) routes through the
        reference implementation, whose gap/carry-forward machinery
        appends to the very same sample lists.  Observability does not
        pick the path: both count the tick.
        """
        if (
            self._faults is None
            and self._failure_prob == 0.0  # repro: noqa[REP004] exact "no failures configured" sentinel
            and not self.pm.failed
            and self._tools_native
            # An instance-level read() override (tests inject failures
            # this way) must keep being called.
            and not any("read" in t.__dict__ for t in self._tools)
            and not _fastpath.slowpath_enabled()
        ):
            self._sample_fast(now)
            return
        self._sample_slow(now)

    def _fast_perturb(self, rng, value: float, sigma: float) -> float:
        """Inline :meth:`MeasurementTool._perturb`: identical arithmetic
        and identical draw order on the same per-tool stream, with the
        capability checks and sigma lookups hoisted into the plan."""
        if self._noiseless or value == 0.0:  # repro: noqa[REP004] idle counters read exactly zero
            return value
        noisy = value * float(np.exp(rng.normal(0.0, sigma)))
        noisy += float(rng.uniform(0.0, self._noise_floor))
        return max(0.0, noisy)

    def _build_fast_plan(self) -> tuple:
        """Bind every trace list this PM's clean ticks will append to.

        Rebuilt whenever the hosted VM set changes; the lists live in
        ``self._samples``, so fast and reference ticks interleave safely
        within one run.
        """
        samples = self._samples

        def lst(entity: str, resource: str) -> List[float]:
            return samples.setdefault(trace_name(entity, resource), [])

        vms = self.pm.vms
        plan = (
            tuple(vms),
            [
                (
                    vm,
                    lst(name, "cpu"),
                    lst(name, "io"),
                    lst(name, "bw"),
                    lst(name, "mem"),
                )
                for name, vm in vms.items()
            ],
            lst(ENTITY_DOM0, "cpu"),
            lst(ENTITY_DOM0, "mem"),
            lst(ENTITY_DOM0, "io"),
            lst(ENTITY_DOM0, "bw"),
            lst(ENTITY_HYPERVISOR, "cpu"),
            lst(ENTITY_PM, "cpu"),
            lst(ENTITY_PM, "mem"),
            lst(ENTITY_PM, "io"),
            lst(ENTITY_PM, "bw"),
        )
        self._fast_plan = plan
        return plan

    def _sample_fast(self, now: float) -> None:
        """Clean-tick sampling without snapshot allocation or per-read
        capability checks; draw order and arithmetic match
        :meth:`_sample_slow` bit for bit."""
        pm = self.pm
        plan = self._fast_plan
        if plan is None or plan[0] != tuple(pm.vms):
            plan = self._build_fast_plan()
        (
            _,
            vm_rows,
            l_dom0_cpu,
            l_dom0_mem,
            l_dom0_io,
            l_dom0_bw,
            l_hyp_cpu,
            l_pm_cpu,
            l_pm_mem,
            l_pm_io,
            l_pm_bw,
        ) = plan
        self._times.append(now)
        _obs.inc("repro_monitor_ticks_total", pm=pm.name)
        self._valid.append(True)
        self._unseeded_tick = False
        self._corrupt_tick = False

        perturb = self._fast_perturb
        sigmas = self._sigmas
        s_cpu = sigmas["cpu"]
        s_mem = sigmas["mem"]
        s_io = sigmas["io"]
        s_bw = sigmas["bw"]
        xt_rng = self._xentop._rng
        top_rng = self._top._rng

        guest_cpu = guest_mem = 0.0
        for vm, l_cpu, l_io, l_bw, l_mem in vm_rows:
            g = vm.granted
            cpu = perturb(xt_rng, g.cpu_pct, s_cpu)
            io = perturb(xt_rng, g.io_bps, s_io)
            bw = perturb(xt_rng, g.bw_kbps, s_bw)
            mem = perturb(top_rng, g.mem_mb, s_mem)
            l_cpu.append(cpu)
            l_io.append(io)
            l_bw.append(bw)
            l_mem.append(mem)
            guest_cpu += cpu
            guest_mem += mem

        dom0_cpu = perturb(xt_rng, pm.dom0.state.cpu_pct, s_cpu)
        dom0_mem = perturb(top_rng, pm.dom0.mem_mb, s_mem)
        l_dom0_cpu.append(dom0_cpu)
        l_dom0_mem.append(dom0_mem)
        # Dom0 consumes no disk or network itself (snapshot reads 0.0);
        # exact zeros skip the noise draws, so append them directly.
        l_dom0_io.append(0.0)
        l_dom0_bw.append(0.0)

        hyp_cpu = perturb(
            self._mpstat._rng, pm.hypervisor.state.cpu_pct, s_cpu
        )
        l_hyp_cpu.append(hyp_cpu)
        l_pm_cpu.append(dom0_cpu + hyp_cpu + guest_cpu)
        l_pm_mem.append(dom0_mem + guest_mem)
        l_pm_io.append(perturb(self._vmstat._rng, pm._pm_io_bps, s_io))
        l_pm_bw.append(perturb(self._ifconfig._rng, pm._pm_bw_kbps, s_bw))

    def _sample_slow(self, now: float) -> None:
        snap = self.pm.snapshot()
        self._times.append(now)
        _obs.inc("repro_monitor_ticks_total", pm=self.pm.name)
        if self.pm.failed:
            # A crashed PM cannot run any tool: the whole tick is a gap
            # (no RNG is consumed, so recovery re-syncs deterministically).
            self._valid.append(False)
            self._record_gap(snap)
            return
        self._corrupt_tick = False
        if self._faults is not None:
            verdict = self._faults.next_sample()
            if verdict == SAMPLE_DROP:
                self._valid.append(False)
                self._record_gap(snap)
                return
            # Outlier corruption is *silent*: the tick records garbage
            # but stays flagged valid -- detecting it is the robust
            # regression path's job, not the monitor's.
            self._corrupt_tick = verdict == SAMPLE_OUTLIER
        self._valid.append(True)
        self._unseeded_tick = False

        guest_cpu = guest_mem = 0.0
        for name in snap.vms:
            cpu = self._read(self._xentop, snap, SCOPE_VM, "cpu", name, name)
            io = self._read(self._xentop, snap, SCOPE_VM, "io", name, name)
            bw = self._read(self._xentop, snap, SCOPE_VM, "bw", name, name)
            mem = self._read(self._top, snap, SCOPE_VM, "mem", name, name)
            self._record(name, "cpu", cpu)
            self._record(name, "io", io)
            self._record(name, "bw", bw)
            self._record(name, "mem", mem)
            guest_cpu += cpu
            guest_mem += mem

        dom0_cpu = self._read(
            self._xentop, snap, SCOPE_DOM0, "cpu", ENTITY_DOM0
        )
        dom0_mem = self._read(self._top, snap, SCOPE_DOM0, "mem", ENTITY_DOM0)
        self._record(ENTITY_DOM0, "cpu", dom0_cpu)
        self._record(ENTITY_DOM0, "mem", dom0_mem)
        self._record(
            ENTITY_DOM0,
            "io",
            self._read(self._xentop, snap, SCOPE_DOM0, "io", ENTITY_DOM0),
        )
        self._record(
            ENTITY_DOM0,
            "bw",
            self._read(self._xentop, snap, SCOPE_DOM0, "bw", ENTITY_DOM0),
        )

        hyp_cpu = self._read(
            self._mpstat, snap, SCOPE_PM, "cpu", ENTITY_HYPERVISOR
        )
        self._record(ENTITY_HYPERVISOR, "cpu", hyp_cpu)

        # PM CPU is computed indirectly as the component sum (paper
        # Section III-C); PM memory is estimated as Dom0 + guests.
        self._record(ENTITY_PM, "cpu", dom0_cpu + hyp_cpu + guest_cpu)
        self._record(ENTITY_PM, "mem", dom0_mem + guest_mem)
        self._record(
            ENTITY_PM,
            "io",
            self._read(self._vmstat, snap, SCOPE_PM, "io", ENTITY_PM),
        )
        self._record(
            ENTITY_PM,
            "bw",
            self._read(self._ifconfig, snap, SCOPE_PM, "bw", ENTITY_PM),
        )
        if self._unseeded_tick:
            # At least one reading was fabricated with no history
            # behind it (first-tick tool failure): the tick keeps its
            # slot but must not count as measured data.
            self._valid[-1] = False

    def _build_report(self) -> MeasurementReport:
        times = np.asarray(self._times)
        traces = TraceSet()
        for name, values in sorted(self._samples.items()):
            resource = name.rsplit(".", 1)[1]
            traces.add(Trace(name, times, np.asarray(values), UNITS[resource]))
        validity = None
        if (
            self._faults is not None
            or self.gap_samples > 0
            or not all(self._valid)
        ):
            validity = np.asarray(self._valid, dtype=bool)
        return MeasurementReport(
            pm_name=self.pm.name, traces=traces, validity=validity
        )
