#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up time over several fresh interpreters, then as many passes over
the workload's inputs as fit in ``--seconds`` (median wall time), and
the process's peak memory.  ``--trace 1`` runs one untraced and one
traced pass over the same inputs and reports the per-layer metrics;
its spans are written to ``perfbench/out/`` when the run ends.

Every pass is checked (see NOTES.md, "Correctness gate"); the last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Without the program's sources next to this directory
the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("sweep", "sweep_obs", "fleet", "serve")
#: Input sets one run measures.  The sweep's cost depends on its seed
#: (fig10's placement trials take 1.8-4.1 s across seeds, a third of the
#: sweep), so a sweep run averages three input sets.  The other workloads
#: cost about the same at any seed (sweep_obs: fig10 is a tenth of it)
#: and repeat their one input set instead.
INPUT_SETS = {"sweep": 3, "sweep_obs": 1, "fleet": 1, "serve": 1}
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Set-up.
# --------------------------------------------------------------------------


def time_setup(probes: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to the program being
    imported, at the reference host speed, once per probe."""
    from perfbench.hostspeed import HostSpeed

    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        host = HostSpeed()
        host.slices = json.loads(proc.stdout)
        out.append(host.scaled(wall))
    return out


def import_times() -> Dict[str, float]:
    """Import self time per top-level package, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py")],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    totals = {"repro": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals and self_us.strip().isdigit():
            totals[top] += int(self_us) / 1e6
    return {f"setup.import_s.{k}": v for k, v in totals.items()}


def isolation_problems() -> List[str]:
    """Process-wide defaults that would make a run not a plain run."""
    from repro.obs import runtime
    from repro.perf import executor
    from repro.sim import fastpath, sanitize

    problems = []
    if executor.default_cache() is not None:
        problems.append("a result cache is installed")
    if executor.default_manifest() is not None:
        problems.append("a run manifest is installed")
    if executor.default_jobs() != 1:
        problems.append(f"default jobs is {executor.default_jobs()}, not 1")
    if sanitize.default_enabled():
        problems.append("the sanitizer is enabled")
    if fastpath.slowpath_enabled():
        problems.append("the reference slow path is forced")
    if runtime.installed() is not None or runtime.default_enabled():
        problems.append("an obs collector is installed")
    return problems


# --------------------------------------------------------------------------
# Passes.
# --------------------------------------------------------------------------


class Workload:
    """Binds a workload name and seed to its pass function."""

    def __init__(self, name: str, seed: int) -> None:
        from perfbench import workloads

        self.name = name
        self.seed = seed
        self._serve_trace = None
        if name == "serve":
            self._serve_trace = workloads.make_serve_trace(seed)

    def run_pass(self, tag: str, group_span=None):
        from perfbench import workloads

        if self.name in ("sweep", "sweep_obs"):
            obs_dir = OUT / f"obs-{os.getpid()}" if self.name == "sweep_obs" else None
            try:
                return workloads.sweep_pass(
                    self.seed, obs_dir=obs_dir, group_span=group_span
                )
            finally:
                if obs_dir is not None:
                    shutil.rmtree(obs_dir, ignore_errors=True)
        if self.name == "fleet":
            if group_span is None:
                return workloads.fleet_pass(self.seed)
            with group_span("fleet"):
                return workloads.fleet_pass(self.seed)
        return workloads.serve_pass(
            self._serve_trace, OUT / f"serve-{os.getpid()}-{tag}"
        )


class Timing:
    """Where one pass's time went."""

    def __init__(self, wall: float, cpu: float, gc_s: float, host) -> None:
        self.wall, self.cpu, self.gc_s, self.host = wall, cpu, gc_s, host

    @property
    def scaled(self) -> float:
        """Wall seconds at the reference host speed (hostspeed.py)."""
        return self.host.scaled(self.wall)


def timed_pass(workload: Workload, tag: str, *, traced=None):
    """Run one pass; return ``(result, Timing)``.

    An untraced pass samples the host speed (``Timing.host``); a traced
    pass (``traced`` is the span log) records a span per sweep group and
    runs without the sampler, whose slices the profiler would count.
    """
    from perfbench.hostspeed import HostSpeed

    problems = isolation_problems()
    gc.collect()
    pauses: List[float] = []
    started: List[float] = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            pauses.append(time.perf_counter() - started.pop())

    host = HostSpeed() if traced is None else contextlib.nullcontext()
    group_span = None if traced is None else functools.partial(_GroupSpan, traced)
    gc.callbacks.append(on_gc)
    try:
        with host:
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = workload.run_pass(tag, group_span=group_span)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
    finally:
        gc.callbacks.remove(on_gc)
    result.problems = problems + result.problems + isolation_problems()
    return result, Timing(wall, cpu, sum(pauses), host if traced is None else None)


def input_seeds(workload: str, seed: int) -> List[int]:
    """The input seeds of run ``seed``: ``seed*k .. seed*k + k-1``.

    Run seed 0 starts with input seed 0, the default inputs (``repro all
    --fast``, ``repro fleet --trials 1``)."""
    k = INPUT_SETS[workload]
    return [seed * k + j for j in range(k)]


def gate(workload: Workload, results) -> List[str]:
    """Correctness across a run's passes over one input set."""
    problems = []
    for i, result in enumerate(results):
        problems += [f"seed {workload.seed} pass {i}: {p}" for p in result.problems]
    for failure in results[0].failures[:20]:
        print(f"perfbench: seed {workload.seed} failed operation: {failure}",
              file=sys.stderr)
    digests = {r.digest for r in results}
    if len(digests) != 1:
        problems.append(
            f"seed {workload.seed}: passes over the same inputs disagree: "
            f"{sorted(digests)}"
        )
    if workload.seed == 0 and workload.name != "serve":
        # ``repro all --fast`` / ``repro fleet`` pass every shape check on
        # the default inputs; elsewhere a failed check is a failed operation.
        failed = max(r.failed for r in results)
        if failed:
            problems.append(f"{failed} failed operation(s) at the default seed")
    return problems


def check_against_sweep(workload: Workload, digest: str) -> List[str]:
    """``sweep_obs`` must render what ``sweep`` renders at the same
    inputs: obs never changes outputs.  Runs one plain sweep pass,
    outside every timed interval, and compares the digests."""
    from perfbench import workloads

    plain = workloads.sweep_pass(workload.seed)
    problems = [f"seed {workload.seed} plain sweep: {p}"
                for p in plain.problems + isolation_problems()]
    print(f"perfbench: seed {workload.seed} sweep digest {plain.digest}",
          file=sys.stderr)
    if plain.digest != digest:
        problems.append(
            f"seed {workload.seed}: sweep_obs digest {digest} != "
            f"sweep digest {plain.digest}"
        )
    return problems


# --------------------------------------------------------------------------
# Main.
# --------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args: argparse.Namespace) -> dict:
    """Untraced passes: the end-to-end metrics."""
    from perfbench import stats

    setup = time_setup(SETUP_PROBES)
    workloads = [
        Workload(args.workload, s) for s in input_seeds(args.workload, args.seed)
    ]
    passes: Dict[int, list] = {w.seed: [] for w in workloads}
    count = 0
    t_start = time.perf_counter()
    # Every input set once and the first one again, so that every run
    # compares the digests of two passes over the same inputs.
    while (count <= len(workloads)
           or time.perf_counter() - t_start < args.seconds):
        workload = workloads[count % len(workloads)]
        passes[workload.seed].append(timed_pass(workload, str(count)))
        count += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems: List[str] = []
    for workload in workloads:
        problems += gate(workload, [r for r, _ in passes[workload.seed]])
        if workload.name == "sweep_obs":
            problems += check_against_sweep(
                workload, passes[workload.seed][0][0].digest
            )
    walls = {s: [t.scaled for _, t in runs] for s, runs in passes.items()}
    results = [r for runs in passes.values() for r, _ in runs]
    metrics = {
        "setup_s": stats.median(setup),
        # Mean over input sets of each set's median pass.
        "wall_s": sum(stats.median(w) for w in walls.values()) / len(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = [round(t.wall, 3) for runs in passes.values() for _, t in runs]
    slice_ms = [round(t.host.slice_s * 1e3, 3)
                for runs in passes.values() for _, t in runs]
    print(
        f"perfbench: {args.workload} seed={args.seed} "
        f"pass_wall_s={raw} slice_ms={slice_ms} "
        f"scaled={ {s: [round(x, 3) for x in w] for s, w in walls.items()} } "
        f"wall_s={metrics['wall_s']:.3f} "
        f"setup_s={[round(x, 3) for x in setup]} "
        f"digests={ {s: runs[0][0].digest for s, runs in passes.items()} }",
        file=sys.stderr,
    )
    return {
        "problems": problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def serve_call_metrics(result) -> Dict[str, float]:
    """Latency percentiles of the serve workload's timed calls.

    Each tail is the highest percentile with ten samples beyond it at
    full size: 19,200 deliveries, 9,600 queries, 300 ticks."""
    from perfbench import stats

    if not result.calls:
        return {}
    query, deliver, tick = (result.calls[k] for k in ("query", "deliver", "tick"))
    return {
        "serve.query_us.p50": stats.percentile(query, 50) * 1e6,
        "serve.query_us.p99": stats.tail(query, 99) * 1e6,
        "serve.query_samples": float(len(query)),
        "serve.deliver_us.p50": stats.percentile(deliver, 50) * 1e6,
        "serve.deliver_us.p999": stats.tail(deliver, 99.9) * 1e6,
        "serve.tick_ms.p50": stats.percentile(tick, 50) * 1e3,
        "serve.tick_ms.p90": stats.tail(tick, 90) * 1e3,
    }


def trace(args: argparse.Namespace) -> dict:
    """One untraced and one traced pass: the per-layer metrics.

    A layer that does no work on this workload reports 0; a layer that
    should work but recorded no spans makes the run incorrect."""
    from perfbench import tracing, workloads

    metrics = import_times()
    workload = Workload(args.workload, input_seeds(args.workload, args.seed)[0])
    plain, timing = timed_pass(workload, "plain")
    wall = timing.wall - sum(timing.host.slices)
    metrics.update({
        "proc.wall_s": wall, "proc.cpu_s": timing.cpu,
        "gc.pause_s": timing.gc_s, "host.slice_us": timing.host.slice_s * 1e6,
    })
    metrics.update(plain.extra)
    metrics.update(serve_call_metrics(plain))

    log = tracing.SpanLog()
    log.run_id = f"{args.workload}-{args.seed}-traced"
    layers = tracing.LayerMap()
    tracer = tracing.Tracer(log)
    t0 = time.perf_counter()
    with tracer:
        traced, _ = timed_pass(workload, "traced", traced=log)
    traced_wall = time.perf_counter() - t0
    by_layer = tracing.self_time_by_layer(tracer.profile, layers.layer)
    metrics.update(tracing.layer_metrics(log, log.run_id, by_layer, traced_wall))
    metrics["trace.overhead_ratio"] = traced_wall / wall
    for gid in experiment_groups():
        metrics[f"experiments.{gid}_s"] = float(sum(
            s.duration for s in log.named(f"group.{gid}", log.run_id)
        ))
    for name in workloads.PASS_METRICS:
        metrics.setdefault(name, 0.0)

    OUT.mkdir(exist_ok=True)
    log.write_jsonl(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(
        f"perfbench: {args.workload} seed={args.seed} untraced={wall:.3f}s "
        f"traced={traced_wall:.3f}s spans={len(log.spans)}",
        file=sys.stderr,
    )
    for layer in tracing.LAYERS + tracing.OUTSIDE:
        share = metrics[f"{layer}.share"]
        if share >= 0.005:
            print(f"  {layer:<12} {metrics[f'{layer}.self_s']:8.3f}s "
                  f"{share:6.1%}", file=sys.stderr)
    print(f"  {'unattributed':<12} {metrics['trace.unattributed_s']:8.3f}s "
          f"{metrics['trace.unattributed_share']:6.1%}", file=sys.stderr)
    problems = gate(workload, [plain, traced])
    problems += tracing.missing_spans(log, log.run_id, args.workload)
    if args.workload == "sweep_obs":
        problems += check_against_sweep(workload, plain.digest)
    return {
        "problems": problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


class _GroupSpan:
    """Span around one experiment group of the traced pass."""

    def __init__(self, log, gid: str) -> None:
        self.log, self.name = log, f"group.{gid}"

    def __enter__(self):
        self.index = self.log.open(self.name)

    def __exit__(self, *exc):
        self.log.close(self.index)


def experiment_groups() -> List[str]:
    """Every group the sweep knows inputs for, plus the fleet."""
    from perfbench import workloads

    return list(workloads.sweep_groups(0)) + ["fleet"]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program sources under {ROOT / 'src' / 'repro'}")
    from perfbench import stats, workloads

    spec = stats.load_spec(spec_path)
    workloads.load_program()
    problems = isolation_problems()
    if problems:
        fail("not a plain run: " + "; ".join(problems))
    run = trace(args) if args.trace else measure(args)
    units = stats.metric_units(spec, bool(args.trace))
    mismatch = stats.name_mismatch(run["metrics"], spec, bool(args.trace))
    if mismatch:
        fail("metrics do not match BENCHMARK.json: " + ", ".join(mismatch))
    for problem in run["problems"]:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    share = stats.failure_share(run["attempted"], run["failed"])
    print(f"perfbench: {run['failed']} of {run['attempted']} operations "
          f"failed ({share:.2%})", file=sys.stderr)
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {
            name: {"value": run["metrics"][name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
