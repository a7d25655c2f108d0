"""Traced runs: spans at the layers' public entry points, plus a profile.

A :class:`Tracer` wraps the program's public entry points (functions and
methods named in :data:`ENTRY_POINTS`) for the duration of one pass,
recording a span per call -- name, start, end, parent and run id --
into an in-memory :class:`SpanLog`.  Inside ``Simulator.run_until``
the Xen quanta, monitor sampling, workload demand and RUBiS routing run
as callbacks with no public entry point, so a standard-library
profiler runs alongside and :func:`self_time_by_layer` splits its self
time by the *module* each function lives in (C calls are charged to the
module that made them).  Renaming a private function therefore never
breaks the attribution; renaming a public entry point raises at patch
time instead of silently dropping its spans.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers of the program: the sub-packages of ``repro`` a profile is
#: split by.  Time in ``repro``'s top-level modules counts as ``cli``.
LAYERS = (
    "sim", "xen", "monitor", "workloads", "rubis", "cluster", "placement",
    "models", "experiments", "perf", "serve", "obs", "faults", "analysis",
    "traces", "cli",
)
#: Buckets outside the program.
OUTSIDE = ("numpy", "scipy", "other")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory until the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = ""

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, run_id=self.run_id)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def named(self, name: str, run_id: str) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.run_id == run_id]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run_id, **s.attrs,
                }, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Entry points.
# --------------------------------------------------------------------------


def _sim_before(args) -> int:
    return args[0].dispatched


def _sim_after(args, result, before) -> Dict[str, Any]:
    return {"events": args[0].dispatched - before}


def _cell_after(args, result, before) -> Dict[str, Any]:
    return {"kind": args[0].group}


def _fleet_after(args, result, before) -> Dict[str, Any]:
    config = args[0]
    return {
        "pm_ticks": config.pms * config.duration_s / config.tick_s,
        "migrations": result.migrations,
        "migrations_rejected": result.migrations_rejected,
    }


#: (module, qualified attribute, span name, before hook, after hook).
#: A dotted attribute is a method; a plain one is a module function whose
#: every binding in the program's modules is replaced.
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.perf.executor", "run_cells", "run_cells", None, None),
    ("repro.perf.cells", "Cell.run", "Cell.run", None, _cell_after),
    ("repro.sim.engine", "Simulator.run_until", "Simulator.run_until",
     _sim_before, _sim_after),
    ("repro.sim.engine", "Simulator.run", "Simulator.run",
     _sim_before, _sim_after),
    ("repro.experiments.prediction", "trained_models", "trained_models",
     None, None),
    ("repro.cluster.fleet", "run_fleet", "run_fleet", None, _fleet_after),
    ("repro.serve.service", "PredictionService.__init__",
     "PredictionService.__init__", None, None),
    ("repro.serve.service", "PredictionService.deliver", "deliver",
     None, None),
    ("repro.serve.service", "PredictionService.tick", "tick", None, None),
    ("repro.serve.service", "PredictionService.query", "query", None, None),
    ("repro.serve.service", "PredictionService.flush", "flush", None, None),
    ("repro.serve.wal", "SampleWAL.recover", "SampleWAL.recover", None, None),
    ("repro.serve.registry", "ModelRegistry.promote",
     "ModelRegistry.promote", None, None),
    ("repro.models.online", "OnlineOverheadModel.update",
     "OnlineOverheadModel.update", None, None),
    ("repro.obs.export", "write_obs_dir", "write_obs_dir", None, None),
)


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Patch the entry points for one traced pass, then restore them."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[Tuple[object, str, object]] = []
        self.profile: Optional[cProfile.Profile] = None

    def _wrapper(self, fn, name, before, after):
        log = self.log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = log.close(index)
            if after is not None:
                span.attrs.update(after(args, result, state))
            return result

        return traced

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, attr, name, before, after in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                base = getattr(module, cls_name)
                getattr(base, method)  # a renamed entry point fails loudly
                for cls in _subclasses(base):
                    fn = cls.__dict__.get(method)
                    if fn is not None:
                        self._patch(
                            cls, method, self._wrapper(fn, name, before, after)
                        )
                continue
            fn = getattr(module, attr)
            traced = self._wrapper(fn, name, before, after)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        self.profile = cProfile.Profile()
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        self.uninstall()


# --------------------------------------------------------------------------
# Profile attribution.
# --------------------------------------------------------------------------


class LayerMap:
    """Maps a profiled function's file to its layer."""

    def __init__(self) -> None:
        import numpy
        import repro
        import scipy

        self._roots = [
            (str(Path(repro.__file__).parent) + os.sep, None),
            (str(Path(numpy.__file__).parent) + os.sep, "numpy"),
            (str(Path(scipy.__file__).parent) + os.sep, "scipy"),
        ]

    def layer(self, filename: str) -> str:
        for root, name in self._roots:
            if filename.startswith(root):
                if name is not None:
                    return name
                head = filename[len(root):].split(os.sep)[0]
                return head if head in LAYERS else "cli"
        return "other"


def self_time_by_layer(
    profile: cProfile.Profile, layers: Callable[[str], str]
) -> Dict[str, float]:
    """Profiled self time per layer, C calls charged to their callers."""
    profile.create_stats()
    out: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in (
        profile.stats.items()
    ):
        if filename != "~":
            key = layers(filename)
            out[key] = out.get(key, 0.0) + tt
            continue
        charged = 0.0
        for (caller_file, _l, _f), row in callers.items():
            key = layers(caller_file) if caller_file != "~" else "other"
            out[key] = out.get(key, 0.0) + row[2]
            charged += row[2]
        if tt > charged:
            out["other"] = out.get("other", 0.0) + (tt - charged)
    return out


# --------------------------------------------------------------------------
# Per-layer metrics of one traced pass.
# --------------------------------------------------------------------------

#: Cell kinds of the executor (``Cell.group``).
CELL_KINDS = ("microbench", "prediction", "placement", "fleet")


def layer_metrics(
    log: SpanLog, run_id: str, by_layer: Dict[str, float], traced_wall: float
) -> Dict[str, float]:
    """Self time and share per layer plus the span-derived layer counts."""
    from perfbench import stats

    spans = [s for s in log.spans if s.run_id == run_id]

    def total(name: str) -> float:
        return float(sum(s.duration for s in spans if s.name == name))

    out: Dict[str, float] = {}
    profiled = 0.0
    for layer in LAYERS + OUTSIDE:
        self_s = by_layer.get(layer, 0.0)
        profiled += self_s
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / traced_wall
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - profiled
    out["trace.unattributed_share"] = (traced_wall - profiled) / traced_wall

    sim = [s for s in spans if s.name in ("Simulator.run_until", "Simulator.run")]
    events = sum(s.attrs["events"] for s in sim)
    out["sim.events"] = float(events)
    out["sim.ns_per_event"] = (
        by_layer.get("sim", 0.0) / events * 1e9 if events else 0.0
    )

    fleets = [s for s in spans if s.name == "run_fleet"]
    pm_ticks = sum(s.attrs["pm_ticks"] for s in fleets)
    out["cluster.pm_ticks"] = float(pm_ticks)
    out["cluster.us_per_pm_tick"] = (
        total("run_fleet") / pm_ticks * 1e6 if pm_ticks else 0.0
    )
    moved = sum(s.attrs["migrations"] for s in fleets)
    tried = moved + sum(s.attrs["migrations_rejected"] for s in fleets)
    out["placement.migrations"] = float(moved)
    out["placement.migration_accept_ratio"] = moved / tried if tried else 0.0

    out["models.train_s"] = total("trained_models")
    updates = [s.duration for s in spans
               if s.name == "OnlineOverheadModel.update"]
    out["models.rls_update_us"] = (
        stats.median(updates) * 1e6 if updates else 0.0
    )

    cells = [s for s in spans if s.name == "Cell.run"]
    for kind in CELL_KINDS:
        mine = [s for s in cells if s.attrs["kind"] == kind]
        out[f"perf.cells.{kind}"] = float(len(mine))
        out[f"perf.cell_s.{kind}"] = float(sum(s.duration for s in mine))
    out["perf.overhead_s"] = total("run_cells") - sum(s.duration for s in cells)

    promotes = [s.duration for s in spans if s.name == "ModelRegistry.promote"]
    out["serve.promote_ms"] = stats.median(promotes) * 1e3 if promotes else 0.0
    opens = [i for i, s in enumerate(log.spans)
             if s.name == "PredictionService.__init__" and s.run_id == run_id]
    out["serve.recover_s"] = out["serve.replay_s"] = 0.0
    if opens:
        # The last open is the reopen of the populated state dir: reading
        # the WAL back is recovery, the rest of the open is replay.
        reopen = opens[-1]
        recover = float(sum(
            s.duration for s in spans
            if s.name == "SampleWAL.recover" and s.parent == reopen
        ))
        out["serve.recover_s"] = recover
        out["serve.replay_s"] = log.spans[reopen].duration - recover
    out["obs.export_s"] = total("write_obs_dir")
    return out


#: Spans each workload's traced pass must record: the entry points of the
#: layers NOTES.md's per-layer table says do work there.  The metrics
#: derived from the other spans read 0 on it, as a layer doing no work
#: does; a required span that never occurs would read the same 0, so it
#: fails the gate instead.
_SWEEP_SPANS = ("run_cells", "Cell.run", "Simulator.run_until",
                "trained_models")
REQUIRED_SPANS: Dict[str, Tuple[str, ...]] = {
    "sweep": _SWEEP_SPANS,
    "sweep_obs": _SWEEP_SPANS + ("write_obs_dir",),
    "fleet": ("run_cells", "Cell.run", "run_fleet"),
    "serve": ("PredictionService.__init__", "SampleWAL.recover", "deliver",
              "tick", "query", "flush", "ModelRegistry.promote",
              "OnlineOverheadModel.update"),
}


def missing_spans(log: SpanLog, run_id: str, workload: str) -> List[str]:
    """Required spans of ``workload`` the traced pass did not record."""
    seen = {s.name for s in log.spans if s.run_id == run_id}
    return [
        f"no {name} span: the metrics derived from it would read 0"
        for name in REQUIRED_SPANS[workload] if name not in seen
    ]
