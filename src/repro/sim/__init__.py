"""Discrete-event simulation kernel.

This subpackage provides the minimal, dependency-free event-driven
machinery the Xen substrate is built on:

* :class:`~repro.sim.events.Event` and
  :class:`~repro.sim.events.EventQueue` -- a stable priority queue of
  timestamped callbacks.
* :class:`~repro.sim.engine.Simulator` -- the clock and scheduler.
* :class:`~repro.sim.process.PeriodicProcess` -- a recurring activity
  (workload ticks, monitor sampling, scheduler quanta).
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded
  random streams so components never perturb each other's noise.

The kernel is deliberately small and fully deterministic: two runs with
the same seed produce bit-identical traces, which the test-suite relies
on heavily.
"""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry, generator_from_seed
from repro.sim.sanitize import SanitizerError, SanitizerHooks, sanitized

__all__ = [
    "Event",
    "EventQueue",
    "PeriodicProcess",
    "RngRegistry",
    "SanitizerError",
    "SanitizerHooks",
    "SimulationError",
    "Simulator",
    "generator_from_seed",
    "sanitized",
]
