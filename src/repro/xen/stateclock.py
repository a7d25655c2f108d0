"""A process-wide version clock over scheduler-visible input state.

Every mutable input the :class:`~repro.xen.machine.PhysicalMachine`
quantum reads -- guest demand vectors, flow rates, stall/cap flags,
external inbound traffic, probe CPU, NIC degradation, VM placement --
*bumps* this clock when it changes.  The machine records the clock value
its last quantum computed against; when the clock has not moved and the
grant feedback has reached its fixed point, the next quantum is a
provable no-op and is skipped entirely.

That memo is the single biggest win on the micro-benchmark hot path:
static Table II workloads write their demand once, so after the
one-quantum feedback settles (a handful of quanta) every subsequent
30 ms tick recomputes bit-identical state ~1000 times per cell.

Two rules keep the clock sound:

* **Inputs bump, outputs do not.**  Grant records
  (:class:`~repro.xen.vm.ResourceGrant`, ``Dom0State``,
  ``HypervisorState``) are written by the quantum itself and are never
  hooked -- otherwise every tick would invalidate its own memo.
* **Bump on change, not on write.**  Dynamic drivers (RUBiS ramps,
  probe overhead) rewrite the same value every second; writing an equal
  value leaves observable state unchanged, so it must not invalidate
  the memo.  Because the clock is global, a writer that rewrites equal
  state on every quantum -- deleting and re-inserting a dict entry
  counts -- turns the memo off for every machine in the process, not
  just its own.  The cluster router therefore compares before it
  writes, and skips its pass while the clock has not moved.

The clock is deliberately global rather than per-machine: a bump is one
integer increment, reads are one attribute load, and false sharing
between machines only costs a redundant (correct) recompute.
"""

from __future__ import annotations

from typing import Any

_version = 0

_UNSET = object()


def bump() -> None:
    """Advance the clock: some scheduler-visible input changed."""
    global _version
    _version += 1


def version() -> int:
    """The current clock value (compare, never interpret)."""
    return _version


def set_if_changed(obj: Any, name: str, value: Any) -> None:
    """``__setattr__`` body for hooked input objects: bump on change."""
    if value != getattr(obj, name, _UNSET):
        bump()
    object.__setattr__(obj, name, value)


class VersionedDict(dict):
    """A dict of scheduler inputs that bumps the clock on mutation.

    Used for :attr:`PhysicalMachine.external_inbound_kbps`: the cluster
    router and applications rewrite entries, usually with the value
    already present -- only real changes invalidate the memo.  Removal
    always bumps, so a writer must not delete and re-insert an entry it
    could leave in place.
    """

    def __setitem__(self, key: Any, value: Any) -> None:
        if value != dict.get(self, key, _UNSET):
            bump()
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Any) -> None:
        bump()
        dict.__delitem__(self, key)

    def pop(self, *args: Any) -> Any:
        bump()
        return dict.pop(self, *args)

    def popitem(self) -> Any:
        bump()
        return dict.popitem(self)

    def clear(self) -> None:
        if self:
            bump()
        dict.clear(self)

    def update(self, *args: Any, **kwargs: Any) -> None:
        if args or kwargs:
            bump()
        dict.update(self, *args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key not in self:
            bump()
        return dict.setdefault(self, key, default)
