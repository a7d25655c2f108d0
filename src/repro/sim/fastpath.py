"""The process-wide fast-path/slow-path switch.

The hot dispatch and sampling kernels each ship two interchangeable
implementations:

* a **fast path** -- batched event drain in
  :class:`~repro.sim.engine.Simulator`, the steady-state quantum memo in
  :class:`~repro.xen.machine.PhysicalMachine`, and the precompiled
  monitor sampling plan in :mod:`repro.monitor.script`;
* a **slow path** -- the original per-event / per-quantum / per-read
  reference implementations, retained verbatim.

Both paths are bit-for-bit identical by construction; the parity suite
(``tests/xen/test_fastpath_parity.py`` and friends) asserts it, and the
CI byte-identity job runs whole artifacts both ways.  Observability
never selects a path: a run with an obs collector installed takes the
fast path too and only counts what it does.  The slow path is
selected process-wide with ``REPRO_SIM_SLOWPATH=1`` (read once at
import) or, scoped, with :func:`force_slowpath` -- the knob exists so a
suspected fast-path bug can be bisected in one environment variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variable selecting the scalar/per-event reference path.
SLOWPATH_ENV = "REPRO_SIM_SLOWPATH"

_slowpath = os.environ.get(SLOWPATH_ENV, "").strip() not in ("", "0")  # repro: noqa[REP009] the sanctioned fast/slow-path switch


def slowpath_enabled() -> bool:
    """True when the scalar/per-event reference implementations run."""
    return _slowpath


def enabled() -> bool:
    """True when the fast paths run (the default)."""
    return not _slowpath


def set_slowpath(value: bool) -> None:
    """Flip the process-wide switch (tests and the parity harness)."""
    global _slowpath
    _slowpath = bool(value)


@contextmanager
def force_slowpath(value: bool = True) -> Iterator[None]:
    """Scoped override: run the block on the chosen path."""
    previous = _slowpath
    set_slowpath(value)
    try:
        yield
    finally:
        set_slowpath(previous)
