"""EXPERIMENTS.md generation: paper-vs-measured for every artifact.

Each table/figure carries (a) the paper's reported numbers (static,
transcribed below) and (b) our measured values, harvested from the
shape-check details of a live reproduction run.  ``repro report`` writes
the document; the checked-in EXPERIMENTS.md is exactly one such run at
paper scale, so every sentence of it lives here and CI can regenerate
the file and diff it byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult

#: What the paper reports, per artifact id.
PAPER_CLAIMS: Dict[str, List[str]] = {
    "table1": [
        "xentop/top/mpstat/ifconfig/vmstat each cover only part of the "
        "VM/Dom0/PM x cpu/mem/io/bw matrix; no single tool suffices, "
        "motivating the unified script.",
    ],
    "table2": [
        "CPU 1/30/60/90/99 %, MEM 0.03/5/10/20/50 Mb, "
        "I/O 15/19/27/46/72 blocks/s, BW 0.001/0.16/0.32/0.64/1.28 Mb/s.",
    ],
    "table3": [
        "CPU overhead = |Dom0| + |hypervisor| (CPU and BW workloads); "
        "I/O, BW, MEM overheads = |sum(VM) - PM|.",
    ],
    "fig2a": [
        "Dom0 CPU 16.8 % -> 29.5 % with increase rate growing 0.01 -> 0.31;",
        "hypervisor CPU 3 % -> 14 % with rate growing 0.04 -> 0.26.",
    ],
    "fig2b": [
        "PM I/O is nearly twice the VM I/O; Dom0 I/O is zero.",
    ],
    "fig2c": [
        "All CPU utilizations stable under varying I/O intensity "
        "(I/O capped near 90 blocks/s by the virtual disk).",
    ],
    "fig2d": [
        "PM BW ~ VM BW with ~400 bytes/s overhead; Dom0 BW is zero.",
    ],
    "fig2e": [
        "Dom0 CPU 16.0 % -> 30.2 % at a constant increase rate 0.01 per "
        "Kb/s; VM CPU 0.5 % -> 3 %; hypervisor 2.5 % -> 3.5 %.",
    ],
    "fig3a": [
        "Guests saturate at ~95 % each; Dom0 and hypervisor rise then "
        "hold ~23.4 % / ~12.0 %.",
    ],
    "fig3b": ["PM I/O more than twice the sum of guest I/O."],
    "fig3c": ["Dom0 ~17.4 %, VM ~0.84 %, hypervisor ~2.7 %, all stable."],
    "fig3d": ["PM BW overhead ~3 % of the guest sum; Dom0 BW zero."],
    "fig3e": [
        "Dom0 17.1 % -> 41.8 % (rate 0.01 on aggregate Kb/s); "
        "hypervisor 2.6 % -> 4.0 % (rate ~0.0005).",
    ],
    "fig4a": [
        "Guests saturate at ~47 % each; Dom0 ~23.4 %, hypervisor ~12.0 %.",
    ],
    "fig4b": ["PM I/O more than twice the sum of guest I/O."],
    "fig4c": ["Dom0 ~17.4 %, hypervisor ~3.5 %, stable across intensity."],
    "fig4d": ["PM BW overhead ~3 % of guest sum."],
    "fig4e": [
        "Dom0 17.3 % -> 67.1 % (slope 2x Figure 3(e): twice the aggregate "
        "intensity); hypervisor 3.5 % -> 6.3 %.",
    ],
    "fig5a": [
        "Dom0 and PM bandwidth are zero for intra-PM traffic (packets "
        "redirected inside the PM never reach the NIC).",
    ],
    "fig5b": [
        "Dom0 CPU rises at 0.002 per Kb/s -- 5x less than inter-PM.",
    ],
    "fig6": [
        "Experiment setup: a client host drives the RUBiS web front-end "
        "in VM1 on PM1; the database runs in VM2 on PM2; each PM has its "
        "own Dom0 and hypervisor.",
    ],
    "fig7a": ["90 % of PM1 CPU prediction errors < 3 %; errors shrink as clients grow."],
    "fig7b": ["90 % of PM2 CPU prediction errors < 4 % (DB tier has lower BW, so relatively higher errors)."],
    "fig7c": ["90 % of PM1 BW errors < 4 %; ~80 % < 1 %."],
    "fig7d": ["90 % of PM2 BW errors < 4 %; ~80 % < 1 %."],
    "fig8a": ["90 % of PM1 CPU errors < 2 %."],
    "fig8b": ["90 % of PM2 CPU errors < 5 %."],
    "fig8c": ["90 % of PM1 BW errors < 3.5 %."],
    "fig8d": ["90 % of PM2 BW errors < 3.5 %."],
    "fig9a": ["90 % of PM1 CPU errors < 2 %."],
    "fig9b": ["Most PM2 CPU errors ~4.5 %."],
    "fig9c": ["80 % of PM1 BW errors < 1 %."],
    "fig9d": ["80 % of PM2 BW errors < 1 %."],
    "fig10a": [
        "VOA throughput stable (~85 req/s) and above VOU in every "
        "scenario; VOU degrades as more co-located VMs run lookbusy.",
    ],
    "fig10b": [
        "VOU total processing time exceeds VOA's, increasingly so with "
        "scenario index.",
    ],
    "memconst": [
        "(Section III-C, unplotted) Memory workloads leave Dom0 CPU at "
        "16.8 %, hypervisor at 3.0 %, PM I/O at 18.8 blocks/s and PM BW "
        "at 254 bytes/s -- hence no memory figures in the paper.",
    ],
    "toolover": [
        "(Section III-A, motivation) Running every tool everywhere "
        "perturbs the measured system; the unified script minimizes the "
        "probe footprint.",
    ],
    "pmconsist": [
        "(Section III-C) 'We carried out the same experiment in "
        "different PMs and the results are the same' -- the paper "
        "reports one PM.",
    ],
    "purity": [
        "(Section III-B) httperf/Iperf-style benchmarks 'cannot provide "
        "a workload that has high utilization on a sole resource and "
        "low overhead on other resources'; the Table II generators can.",
    ],
    "chaosa": [
        "(beyond the paper) The Section V model is trained from a "
        "healthy monitor; this artifact measures how prediction error "
        "grows when the monitor drops and silently corrupts samples, "
        "with the OLS -> LMS auto engine absorbing the corruption.",
    ],
    "chaosb": [
        "(beyond the paper) The Section VI placement loop assumes "
        "migrations succeed; this artifact injects PM crashes, VM "
        "stalls, NIC degradation and mid-flight migration failures and "
        "asserts the resilient loop's bookkeeping stays closed.",
    ],
}

#: Known, documented deviations of the reproduction.
DEVIATIONS: Dict[str, str] = {
    "fig2a": (
        "Terminal Dom0 increase rate measures ~0.25 vs the paper's "
        "reading of 0.31; the 16.8 -> 29.5 endpoints pin the quadratic."
    ),
    "fig7a": (
        "Our substrate's Dom0 response is convex while Eq. (1) is "
        "linear, so single-VM CPU errors peak at ~7 % at 300 clients "
        "(paper: 3 %), converging toward the paper's band at 700 "
        "clients. The decreasing-with-clients shape is asserted."
    ),
    "fig7b": "Same linear-vs-convex bias as fig7a (~8 % worst-case p90).",
}


def _artifact_section(result: ExperimentResult) -> str:
    lines = [f"### {result.experiment_id}: {result.title}", ""]
    claims = PAPER_CLAIMS.get(result.experiment_id)
    if claims:
        lines.append("**Paper reports:**")
        lines.extend(f"- {c}" for c in claims)
        lines.append("")
    lines.append("**Measured (this reproduction):**")
    for check in result.checks:
        mark = "x" if check.passed else " "
        detail = f" -- {check.detail}" if check.detail else ""
        lines.append(f"- [{mark}] {check.name}{detail}")
    deviation = DEVIATIONS.get(result.experiment_id)
    if deviation:
        lines.append("")
        lines.append(f"**Deviation:** {deviation}")
    lines.append("")
    return "\n".join(lines)


def generate_experiments_md(
    results: Sequence[ExperimentResult],
    *,
    fast: bool = False,
    provenance: Optional[Sequence[str]] = None,
) -> str:
    """Render the full EXPERIMENTS.md body from live results.

    ``provenance`` carries extra header lines for resumed runs (each
    starting with ``Run provenance:`` so diffs can filter them); it is
    ``None`` for ordinary runs, whose output must stay byte-identical
    whether or not a ``--run-dir`` manifest was recorded.
    """
    if not results:
        raise ValueError("no experiment results to report")
    n_pass = sum(1 for r in results if r.passed)
    header = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure in *Profiling and "
        "Understanding Virtualization Overhead in Cloud* (ICPP 2015).",
        "",
        "Generated by `repro report`"
        + (" (fast mode — reduced durations/trials)." if fast else
           " at paper scale (120 s sweeps, 10-minute RUBiS runs, 10 "
           "placement trials)."),
        "",
        f"**Shape checks: {n_pass}/{len(results)} artifacts pass.**",
        "",
        "Absolute numbers come from our simulated substrate (see "
        "DESIGN.md section 2 for the substitutions), so the comparison "
        "below is about *shape*: baselines, plateaus, slopes, ratios, "
        "who wins and by how much.",
        "",
        "Every number here is machine-enforced reproducible: `repro "
        "lint` statically bans nondeterminism at the source level "
        "(unregistered RNG streams, wall-clock reads, unordered "
        "iteration — see README § Determinism enforcement), the runtime "
        "sanitizer (`--sanitize`) asserts stable event tie-breaking and "
        "per-stream RNG draw counts while artifacts run, and a "
        "double-run regression test proves byte-identical reports with "
        "identical draw counts per stream. The lint pass is "
        "whole-program, not just per-file: the cross-module REP1xx pack "
        "(import/call-graph + taint analysis) proves that no call chain "
        "launders a wall-clock read into the deterministic core, that "
        "every RNG stream name is declared in the "
        "`[tool.repro.lint.streams]` manifest with a single owner, and "
        "that no pool-worker-reachable code mutates module state the "
        "parent would never see — and `src/` is REP1xx-clean, so these "
        "guarantees hold transitively for every number in this file.",
        "",
        "Determinism also makes the reproduction parallel and "
        "cacheable: `repro report --jobs N` fans experiment cells over "
        "worker processes and `--cache-dir` serves repeated cells from a content-addressed "
        "cache — both byte-identical to a serial run (README § "
        "Parallel execution & caching). The numbers below were "
        "produced by the default fast-path simulation core (batched "
        "event dispatch, steady-state quantum memo, precompiled "
        "monitor sampling plan — README § Performance); the fast path "
        "only skips provably redundant work, so every figure is "
        "byte-for-byte identical to the reference path "
        "(`REPRO_SIM_SLOWPATH=1`), which CI re-proves on every push. "
        "Wall time is measured by the benchmark in `perfbench/` "
        "(`python3 perfbench/run.py`, see `perfbench/NOTES.md`); "
        "wall-clock numbers are machine-dependent, so only ratios are "
        "comparable across hosts.",
        "",
        "Runs are crash-safe: `--run-dir` checkpoints every completed "
        "cell behind checksummed artifacts and `--resume` (or `repro "
        "runs resume`) re-executes only what is missing — a resumed "
        "report is byte-identical to an uninterrupted one (README § "
        "Crash safety & resume). Resumed reports additionally carry one "
        "provenance line in this header, recording how many cells were "
        "restored vs executed.",
        "",
        "Adding `--obs-dir DIR` records harness observability (metrics "
        "+ spans) alongside any run without changing a single output "
        "byte or the work the run does (an observed run steps the same "
        "quanta and counts the memoized ones in "
        "`repro_xen_quantum_memo_hits_total`); `repro obs summary` "
        "then shows per-source span counts, "
        "wall time, and error tallies. Interpret them as a profile of "
        "the *harness*, not the simulated system: wall seconds are "
        "machine-dependent (compare ratios), sim-clock span stamps and "
        "counters such as `repro_sim_events_total` are deterministic "
        "and must not vary across hosts, and a nonzero `error(s)` "
        "column or `repro_supervisor_retries_total` means supervision "
        "absorbed failures — worth investigating even though the "
        "artifacts themselves stayed correct.",
        "",
        "The fitted overhead models also run as a resilient online "
        "service: `repro serve run` ingests a monitor stream through a "
        "crash-safe WAL into recursive-least-squares candidates, "
        "detects regime drift (Page-Hinkley) and refits, and answers "
        "placement queries only from an integrity-guarded versioned "
        "model registry (README § Online prediction service). CI's "
        "serve-smoke job SIGKILLs the service mid-stream under "
        "injected delivery faults and requires the resumed state to be "
        "byte-identical to an uninterrupted run's, with quarantined or "
        "dark streams answered from the last promoted version, flagged "
        "`degraded` — never silently wrong, never a crash.",
        "",
        "Resilience is fuzzed, not assumed: `repro chaos fuzz` samples "
        "deterministic fault plans across every fault surface — "
        "machine faults into the resilient placement loop, delivery "
        "faults into the serve ingest path, SIGKILL/stall faults into "
        "the supervised executor — executes each plan, and judges the "
        "outcome against machine-checked invariant oracles (guest "
        "conservation, migration accounting, circuit-breaker "
        "monotonicity, WAL-replay idempotency, crash-resume identity, "
        "zero-fault byte-identity, exactly-once worker faults). A "
        "violation is delta-debugged down to a minimal replayable JSON "
        "plan (`repro chaos replay`), and the campaign is summarized "
        "in a byte-reproducible `resilience.json` scorecard (README § "
        "Chaos fuzzing & resilience scorecard). CI runs a fixed-seed "
        "campaign on every push and proves the detector itself works "
        "by replaying a committed planted-violation fixture, requiring "
        "it to fail and to shrink to the committed known-minimal plan.",
        "",
        "The placement comparison also runs at datacenter scale: "
        "`repro fleet` steps 1000+ PMs as one vectorized pass per tick "
        "over a single VM → PM index, deploys 10^4+ VMs under each "
        "strategy, and drives them with an open-loop population of "
        "10^5+ emulated clients — VOU's overhead-blind packing "
        "overloads and churns migrations while VOA serves the full "
        "offered load. Cell summaries stream through the executor's "
        "incremental-consume mode (bounded memory at any fleet size), "
        "and the artifacts are byte-identical across reruns and for "
        "serial vs `--jobs` runs (README § Fleet scale).",
        "",
    ]
    if provenance:
        header.extend(list(provenance) + [""])
    body = [_artifact_section(r) for r in results]
    return "\n".join(header) + "\n" + "\n".join(body)
