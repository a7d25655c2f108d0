"""Replayable fault plans: the JSON artifact of one chaos scenario.

A :class:`FaultPlan` pins *everything* a chaos run needs to reproduce
bit-identically: the master seed, the concrete machine-level
:class:`~repro.faults.schedule.FaultEvent` schedule (stored as data, so
replay never re-draws it), the delivery-fault probabilities of the
serve surface, and the worker-fault rates of the supervised executor
surface.  Plans are written by ``repro chaos --plan-out``, by every
``repro chaos fuzz`` campaign run, and by the shrinker; ``repro chaos
replay PLAN.json`` re-executes one.

The JSON form is canonical -- sorted keys, fixed indentation, no
timestamps -- so the same plan always serializes to the same bytes and
a shrunk repro can be compared against a committed fixture with a
plain ``diff``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.faults.config import FaultConfig
from repro.faults.schedule import FaultEvent
from repro.faults.service import ServiceFaultConfig

#: Schema tag of the plan JSON (bump on incompatible layout changes).
PLAN_SCHEMA = "repro-fault-plan/1"

#: Plan drivers: which scenario harness executes the plan.
DRIVER_FUZZ = "fuzz"
DRIVER_CHAOSB = "chaosb"
DRIVERS = (DRIVER_CHAOSB, DRIVER_FUZZ)

#: Planted-violation knobs (test fixtures for the oracle/shrink path).
#: ``vm_leak`` silently evicts one guest mid-run, which must trip the
#: VM-conservation oracle and survive shrinking.
PLANTED_VM_LEAK = "vm_leak"
PLANTED_KINDS = (PLANTED_VM_LEAK,)


class PlanError(ValueError):
    """A plan file is malformed or semantically invalid."""


@dataclass(frozen=True)
class PlacementPlan:
    """The placement-loop surface: cluster shape + concrete schedule."""

    seed: int
    duration_s: float
    train_duration: float
    migration_failure_prob: float
    pm_count: int
    hot_vms: int
    bg_vms: int
    config: FaultConfig
    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise PlanError("duration_s must be positive")
        if self.train_duration <= 0:
            raise PlanError("train_duration must be positive")
        if not 0.0 <= self.migration_failure_prob < 1.0:
            raise PlanError("migration_failure_prob must be in [0, 1)")
        if self.pm_count < 2:
            raise PlanError("pm_count must be >= 2")
        if self.hot_vms < 1 or self.bg_vms < 0:
            raise PlanError("hot_vms must be >= 1 and bg_vms >= 0")
        for ev in self.events:
            if ev.time > self.duration_s:
                raise PlanError(
                    f"event at t={ev.time} lies beyond the "
                    f"{self.duration_s}s horizon"
                )

    def is_null(self) -> bool:
        """True when this surface can not inject a single fault."""
        return not self.events and not self.migration_failure_prob > 0.0


@dataclass(frozen=True)
class ServePlan:
    """The serve-ingest surface: swarm shape + delivery faults."""

    seed: int
    pms: int
    ticks: int
    queries_per_tick: int
    drift_at: int
    drift_scale: float
    crash_at_tick: Optional[int]
    faults: ServiceFaultConfig

    def __post_init__(self) -> None:
        if self.pms < 1:
            raise PlanError("pms must be >= 1")
        if self.ticks < 2:
            raise PlanError("ticks must be >= 2")
        if self.queries_per_tick < 0:
            raise PlanError("queries_per_tick must be >= 0")
        if self.drift_at < 0:
            raise PlanError("drift_at must be >= 0")
        if self.drift_scale <= 0:
            raise PlanError("drift_scale must be positive")
        if self.crash_at_tick is not None and not (
            0 < self.crash_at_tick < self.ticks - 1
        ):
            raise PlanError(
                "crash_at_tick must fall strictly inside the trace"
            )

    def is_null(self) -> bool:
        """True when delivery is clean and the drive is never crashed."""
        return not self.faults.faulty() and self.crash_at_tick is None


@dataclass(frozen=True)
class WorkerPlan:
    """The supervised-executor surface: real worker kills and stalls."""

    seed: int
    n_cells: int
    kill_rate: float
    stall_rate: float
    stall_s: float
    jobs: int

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise PlanError("n_cells must be >= 1")
        for name in ("kill_rate", "stall_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise PlanError(f"{name} must be a probability")
        if self.stall_s < 0:
            raise PlanError("stall_s must be >= 0")
        if self.jobs < 2 and self.kill_rate > 0.0:
            # A kill fault terminates the process running the cell;
            # inline execution would kill the supervisor itself.
            raise PlanError("kill faults require jobs >= 2")

    def is_null(self) -> bool:
        """True when no worker can be killed or stalled."""
        return not (self.kill_rate > 0.0 or self.stall_rate > 0.0)


@dataclass(frozen=True)
class FaultPlan:
    """One replayable chaos scenario across every fault surface."""

    seed: int
    driver: str = DRIVER_FUZZ
    planted: Optional[str] = None
    placement: Optional[PlacementPlan] = None
    serve: Optional[ServePlan] = None
    workers: Optional[WorkerPlan] = None

    def __post_init__(self) -> None:
        if self.driver not in DRIVERS:
            raise PlanError(f"unknown plan driver {self.driver!r}")
        if self.planted is not None and self.planted not in PLANTED_KINDS:
            raise PlanError(f"unknown planted violation {self.planted!r}")
        if (
            self.placement is None
            and self.serve is None
            and self.workers is None
        ):
            raise PlanError("plan drives no surface at all")
        if self.planted is not None and self.placement is None:
            raise PlanError(
                f"planted {self.planted!r} needs the placement surface"
            )

    def surfaces(self) -> Tuple[str, ...]:
        """Names of the fault surfaces this plan drives."""
        out = []
        if self.placement is not None:
            out.append("placement")
        if self.serve is not None:
            out.append("serve")
        if self.workers is not None:
            out.append("workers")
        return tuple(out)

    def is_null(self) -> bool:
        """True when no surface can inject any fault (planted excluded)."""
        if self.planted is not None:
            return False
        return all(
            section is None or section.is_null()
            for section in (self.placement, self.serve, self.workers)
        )

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": PLAN_SCHEMA,
            "driver": self.driver,
            "seed": int(self.seed),
            "planted": self.planted,
            "placement": None,
            "serve": None,
            "workers": None,
        }
        if self.placement is not None:
            pp = self.placement
            out["placement"] = {
                "seed": int(pp.seed),
                "duration_s": float(pp.duration_s),
                "train_duration": float(pp.train_duration),
                "migration_failure_prob": float(pp.migration_failure_prob),
                "pm_count": int(pp.pm_count),
                "hot_vms": int(pp.hot_vms),
                "bg_vms": int(pp.bg_vms),
                "config": dataclasses.asdict(pp.config),
                "events": [
                    {
                        "time": float(ev.time),
                        "kind": ev.kind,
                        "target": ev.target,
                        "duration": float(ev.duration),
                    }
                    for ev in pp.events
                ],
            }
        if self.serve is not None:
            sp = self.serve
            out["serve"] = {
                "seed": int(sp.seed),
                "pms": int(sp.pms),
                "ticks": int(sp.ticks),
                "queries_per_tick": int(sp.queries_per_tick),
                "drift_at": int(sp.drift_at),
                "drift_scale": float(sp.drift_scale),
                "crash_at_tick": (
                    None if sp.crash_at_tick is None else int(sp.crash_at_tick)
                ),
                "faults": dataclasses.asdict(sp.faults),
            }
        if self.workers is not None:
            wp = self.workers
            out["workers"] = {
                "seed": int(wp.seed),
                "n_cells": int(wp.n_cells),
                "kill_rate": float(wp.kill_rate),
                "stall_rate": float(wp.stall_rate),
                "stall_s": float(wp.stall_s),
                "jobs": int(wp.jobs),
            }
        return out

    @classmethod
    def from_dict(cls, body: Dict[str, object]) -> "FaultPlan":
        if not isinstance(body, dict):
            raise PlanError("plan body must be a JSON object")
        schema = body.get("schema")
        if schema != PLAN_SCHEMA:
            raise PlanError(
                f"unsupported plan schema {schema!r} "
                f"(expected {PLAN_SCHEMA!r})"
            )
        try:
            placement = None
            if body.get("placement") is not None:
                pd = dict(body["placement"])
                placement = PlacementPlan(
                    seed=int(pd["seed"]),
                    duration_s=float(pd["duration_s"]),
                    train_duration=float(pd["train_duration"]),
                    migration_failure_prob=float(
                        pd["migration_failure_prob"]
                    ),
                    pm_count=int(pd["pm_count"]),
                    hot_vms=int(pd["hot_vms"]),
                    bg_vms=int(pd["bg_vms"]),
                    config=FaultConfig(**pd["config"]),
                    events=tuple(
                        FaultEvent(
                            time=float(ev["time"]),
                            kind=str(ev["kind"]),
                            target=str(ev["target"]),
                            duration=float(ev["duration"]),
                        )
                        for ev in pd["events"]
                    ),
                )
            serve = None
            if body.get("serve") is not None:
                sd = dict(body["serve"])
                crash = sd.get("crash_at_tick")
                serve = ServePlan(
                    seed=int(sd["seed"]),
                    pms=int(sd["pms"]),
                    ticks=int(sd["ticks"]),
                    queries_per_tick=int(sd["queries_per_tick"]),
                    drift_at=int(sd["drift_at"]),
                    drift_scale=float(sd["drift_scale"]),
                    crash_at_tick=None if crash is None else int(crash),
                    faults=ServiceFaultConfig(**sd["faults"]),
                )
            workers = None
            if body.get("workers") is not None:
                wd = dict(body["workers"])
                workers = WorkerPlan(
                    seed=int(wd["seed"]),
                    n_cells=int(wd["n_cells"]),
                    kill_rate=float(wd["kill_rate"]),
                    stall_rate=float(wd["stall_rate"]),
                    stall_s=float(wd["stall_s"]),
                    jobs=int(wd["jobs"]),
                )
            return cls(
                seed=int(body["seed"]),
                driver=str(body.get("driver", DRIVER_FUZZ)),
                planted=body.get("planted"),
                placement=placement,
                serve=serve,
                workers=workers,
            )
        except PlanError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON text (byte-stable for identical plans)."""
        return canonical_json(self.to_dict())


def canonical_json(obj: object) -> str:
    """The one serialization every plan/scorecard artifact uses."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_plan(path: Path | str) -> FaultPlan:
    """Read and validate one plan file."""
    path = Path(path)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PlanError(f"cannot read plan {path}: {exc}") from exc
    except ValueError as exc:
        raise PlanError(f"plan {path} is not valid JSON: {exc}") from exc
    return FaultPlan.from_dict(body)


def dump_plan(plan: FaultPlan, path: Path | str) -> None:
    """Write one plan file in canonical form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(plan.to_json(), encoding="utf-8")
