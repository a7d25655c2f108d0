"""Host speed during a timed interval, taken with a fixed reference slice.

The 2-vCPU development host shares its CPUs with other tenants.  For
minutes at a time every instruction runs 30 % to 160 % slower: pass
times of the same inputs swing by that much, set-up probes with them,
and no steal time is reported.  Runs that land in different phases then
differ by more than any change worth measuring.

:class:`HostSpeed` takes the host's pulse while the program runs: from
``SIGALRM`` every :data:`PERIOD_S` of wall time it times one fixed
pure-Python :func:`reference_slice`.  Interleaved this finely the slices
see the same phases the program does: over fleet passes mean slice time
and pass time correlate at 0.99, and the spread of sweep passes drops
from 0.11 to 0.02.  :meth:`HostSpeed.scaled` turns a measured interval
into the time it would have taken on a host where the slice takes
:data:`REFERENCE_SLICE_S`, with the slices' own time taken out.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Wall seconds between two reference slices.
PERIOD_S = 0.05
#: The slice's time on a quiet moment of the development host (Xeon
#: vCPU at 2.0 GHz, CPython 3.11); scaled times read as seconds there.
REFERENCE_SLICE_S = 0.0005


def reference_slice() -> float:
    """Seconds one fixed dict-and-arithmetic loop takes right now."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) & 3
    return time.perf_counter() - t0


class HostSpeed:
    """Samples :func:`reference_slice` across a ``with`` block."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.slices.append(reference_slice())

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def slice_s(self) -> float:
        """Mean slice time over the block: the block's average speed."""
        return statistics.mean(self.slices)

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured across the block, less the slices' own
        time, at the reference host speed."""
        own = seconds - sum(self.slices)
        return own * REFERENCE_SLICE_S / self.slice_s
