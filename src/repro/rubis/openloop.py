"""Open-loop client arrivals for fleet-scale load.

The paper's RUBiS drive is *closed-loop*: a fixed population of
clients, each waiting out a think time before its next request
(:class:`repro.rubis.client.ClientPopulation`).  That model is faithful
at 7 PMs but does not transport to a datacenter: at 10^5 - 10^6
concurrent users the population is effectively infinite and, as the
web-workload characterization literature observes (Wang et al., see
PAPERS.md), aggregate arrivals decouple from individual sessions --
the fleet sees an *open-loop* arrival rate that follows the diurnal
profile regardless of how fast the servers answer.

:class:`OpenLoopArrivals` is that profile: a deterministic, analytic
function of simulated time (warm-up ramp plus a sinusoidal wave around
the plateau), with no RNG of its own -- stochasticity lives in the
fleet's per-VM demand noise (one block per tick from the
``fleet.noise`` stream), so one load factor drives every PM of a fleet
run.  ``concurrency(t)`` scales the paper's client ramp to
``peak_clients``; ``request_rate(t)`` converts it through the familiar
think-time law ``lambda = N / Z``; ``load_factor(t)`` normalizes to
the peak for use as a global demand multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OpenLoopArrivals:
    """Deterministic open-loop arrival profile (ramp + diurnal wave)."""

    #: Plateau concurrency -- the fleet experiment runs this at 1e5-1e6.
    peak_clients: float = 100_000.0
    #: Mean think time between a user's requests (paper Section VI-B).
    think_time_s: float = 6.0
    #: Linear warm-up: concurrency reaches the plateau at ``ramp_s``.
    ramp_s: float = 120.0
    #: Relative amplitude of the post-ramp sinusoidal wave.
    wave_amplitude: float = 0.06
    #: Wave period in seconds (co-prime-ish with the tick lattice).
    wave_period_s: float = 331.0

    def __post_init__(self) -> None:
        if self.peak_clients <= 0:
            raise ValueError("peak_clients must be positive")
        if self.think_time_s <= 0:
            raise ValueError("think_time_s must be positive")
        if self.ramp_s < 0:
            raise ValueError("ramp_s must be >= 0")
        if not 0.0 <= self.wave_amplitude < 1.0:
            raise ValueError("wave_amplitude must be in [0, 1)")
        if self.wave_period_s <= 0:
            raise ValueError("wave_period_s must be positive")

    def concurrency(self, t: float) -> float:
        """Concurrent users at time ``t`` (0 before the run starts)."""
        if t <= 0.0:
            return 0.0
        ramp = 1.0 if self.ramp_s == 0 else min(1.0, t / self.ramp_s)
        wave = 1.0 + self.wave_amplitude * math.sin(
            2.0 * math.pi * t / self.wave_period_s
        )
        return self.peak_clients * ramp * wave

    def request_rate(self, t: float) -> float:
        """Aggregate arrival rate in requests/s (``N(t) / Z``)."""
        return self.concurrency(t) / self.think_time_s

    def load_factor(self, t: float) -> float:
        """Concurrency normalized to the plateau (0 .. 1+amplitude)."""
        return self.concurrency(t) / self.peak_clients
