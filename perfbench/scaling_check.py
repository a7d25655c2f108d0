#!/usr/bin/env python3
"""Check that a known change in work shows at its size once scaled.

``wall_s`` is not a raw time: ``hostspeed.py`` divides each pass by the
speed of reference slices that run inside the measured process.  This
script plants two changes of known size in the fleet workload and times
them against the plain pass in alternating order, raw and scaled:

* ``x1.1``: ``duration_s`` 1.1 times the benchmark's, so every PM ticks
  10 % more often (set-up is unchanged, so the true ratio is a little
  below 1.1);
* ``twice``: two plain passes inside one timed interval, exactly twice
  the work.

If the scaling distorted the program's time, the scaled ratios would
drift from 2.0 and from the raw ratio of the same rounds.  Usage, from
the repository root::

    python3 perfbench/scaling_check.py --rounds 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402


def timed(fn):
    """``(raw, scaled)`` seconds of ``fn()``, the slices' own time taken out."""
    with HostSpeed() as host:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
    return wall - sum(host.slices), host.scaled(wall)


def plain():
    workloads.fleet_pass(0)


def longer():
    base = workloads.FLEET_SCALE
    workloads.FLEET_SCALE = dict(base, duration_s=base["duration_s"] * 1.1)
    try:
        workloads.fleet_pass(0)
    finally:
        workloads.FLEET_SCALE = base


def twice():
    plain()
    plain()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    workloads.load_program()
    plain()  # warm-up: lazy imports and first-touch allocations
    variants = {"plain": plain, "x1.1": longer, "twice": twice}
    ratios = {(name, kind): [] for name in ("x1.1", "twice")
              for kind in ("raw", "scaled")}
    for r in range(args.rounds):
        order = list(variants) if r % 2 == 0 else list(variants)[::-1]
        times = {name: timed(variants[name]) for name in order}
        row = []
        for name in ("x1.1", "twice"):
            for i, kind in enumerate(("raw", "scaled")):
                ratio = times[name][i] / times["plain"][i]
                ratios[name, kind].append(ratio)
                row.append(f"{name} {kind} {ratio:.3f}")
        print(f"round {r}: plain raw {times['plain'][0]:.3f}s "
              f"scaled {times['plain'][1]:.3f}s; " + ", ".join(row))
    for (name, kind), values in ratios.items():
        print(f"{name:6s} {kind:6s} median ratio {statistics.median(values):.3f}"
              f" (min {min(values):.3f}, max {max(values):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
