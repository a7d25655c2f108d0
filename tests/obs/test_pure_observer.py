"""Obs is a pure observer: an observed run executes the plain run's code.

Installing a collector must not switch off the Xen steady-quantum memo
or the monitor's precompiled sampling plan.  These tests count the
calls one plain and one observed measurement make and require them to
match.  The memo's skipped quanta are counted by their own counter, so
water-fill calls plus memo hits still account for every quantum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.training import run_benchmark_measurement
from repro.monitor.metrics import ENTITY_PM
from repro.monitor.script import MeasurementScript
from repro.obs import runtime
from repro.workloads.suite import intensity_levels
from repro.xen import devices, machine
from repro.xen.machine import PhysicalMachine
from repro.xen.scheduler import weighted_water_fill

KINDS = ("cpu", "mem", "io", "bw")

_SAMPLE_FAST = MeasurementScript._sample_fast
_START = PhysicalMachine.start


def _measure(monkeypatch, kind, collector=None):
    """One two-VM measurement; returns (report, call counts, machine)."""
    counts = {"water_fill": 0, "sample_fast": 0}
    machines = []

    def counting_fill(*args, **kwargs):
        counts["water_fill"] += 1
        return weighted_water_fill(*args, **kwargs)

    def counting_sample_fast(self, now):
        counts["sample_fast"] += 1
        _SAMPLE_FAST(self, now)

    def recording_start(self):
        machines.append(self)
        _START(self)

    monkeypatch.setattr(machine, "weighted_water_fill", counting_fill)
    monkeypatch.setattr(devices, "weighted_water_fill", counting_fill)
    monkeypatch.setattr(
        MeasurementScript, "_sample_fast", counting_sample_fast
    )
    monkeypatch.setattr(PhysicalMachine, "start", recording_start)

    def run():
        return run_benchmark_measurement(
            kind, intensity_levels(kind)[2], 2, duration=20.0, seed=7
        )

    if collector is None:
        report = run()
    else:
        with runtime.collecting(collector):
            report = run()
    (pm,) = machines
    return report, counts, pm


def _counter(collector, name, **labels):
    return collector.metrics.counter(name, **labels).value


@pytest.mark.parametrize("kind", KINDS)
def test_observed_run_makes_the_plain_runs_calls(monkeypatch, kind):
    plain, plain_calls, _ = _measure(monkeypatch, kind)
    observed, observed_calls, _ = _measure(
        monkeypatch, kind, runtime.ObsCollector()
    )
    assert plain_calls["sample_fast"] > 0
    assert observed_calls == plain_calls
    assert plain.traces.names == observed.traces.names
    for name in plain.traces.names:
        assert np.array_equal(
            plain.traces[name].values, observed.traces[name].values
        )


@pytest.mark.parametrize("kind", KINDS)
def test_water_fills_plus_memo_hits_equal_quanta(monkeypatch, kind):
    collector = runtime.ObsCollector()
    _, calls, pm = _measure(monkeypatch, kind, collector)
    fills = _counter(collector, "repro_sched_water_fill_total")
    hits = _counter(collector, "repro_xen_quantum_memo_hits_total")
    assert fills == calls["water_fill"]
    assert hits > 0
    assert fills + hits == pm._quanta


def test_monitor_ticks_counted_on_the_plan_path(monkeypatch):
    collector = runtime.ObsCollector()
    report, calls, pm = _measure(monkeypatch, "cpu", collector)
    ticks = len(report.series(ENTITY_PM, "cpu"))
    assert calls["sample_fast"] == ticks
    counted = _counter(collector, "repro_monitor_ticks_total", pm=pm.name)
    assert counted == ticks
