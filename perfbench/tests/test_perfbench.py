"""Tests of the benchmark's own code: statistics rules, failure
accounting, metric names against BENCHMARK.json, and tiny-size runs of
every workload through the same code paths the benchmark uses."""

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from perfbench import hostspeed, run, stats, tracing, workloads

ROOT = run.ROOT
SPEC = stats.load_spec(ROOT / "BENCHMARK.json")

# -- statistics rules -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (300, 90.0),
     (999, 90.0), (1000, 99.0), (9600, 99.0), (10_000, 99.9),
     (19_200, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_refuses_a_percentile_the_sample_cannot_support():
    values = [float(i) for i in range(300)]
    assert stats.tail(values, 90) == 269.0
    with pytest.raises(ValueError):
        stats.tail(values, 99)


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_failure_share():
    assert stats.failure_share(28_801, 736) == pytest.approx(736 / 28_801)
    assert stats.failure_share(1, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failure_share(0, 0)
    with pytest.raises(ValueError):
        stats.failure_share(5, 6)


def test_host_speed_scales_to_the_reference_slice():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.slices) >= 3  # enter, exit and the timer's
    host.slices = [0.002, 0.002]
    # Twice the reference slice: half the time, less the slices' own.
    ref = hostspeed.REFERENCE_SLICE_S
    assert host.scaled(1.004) == pytest.approx(1.0 * ref / 0.002)


# -- failure accounting ------------------------------------------------------


def _result(experiment_id, verdicts):
    from repro.experiments.base import Check, ExperimentResult

    return ExperimentResult(
        experiment_id, "t",
        checks=[Check(f"c{i}", ok) for i, ok in enumerate(verdicts)],
    )


def test_experiment_pass_counts_checks_and_cells():
    stats_ = SimpleNamespace(attempts=7, retries=2, failed=[("cell:x", "boom")])
    results = [_result("fig2a", [True, False]), _result("fig2b", [True])]
    out = workloads._experiment_pass(
        results, ["fig2a", "fig2b"], stats_, [], {}
    )
    # 3 checks evaluated + 5 cells executed; 1 check and 1 cell failed.
    assert (out.attempted, out.failed) == (8, 2)
    assert out.problems == []
    assert out.extra["perf.cells_failed"] == 1.0


def test_missing_artifact_makes_a_pass_incorrect():
    stats_ = SimpleNamespace(attempts=0, retries=0, failed=[])
    out = workloads._experiment_pass(
        [_result("fig2a", [True])], ["fig2a", "fig2b"], stats_, [], {}
    )
    assert out.failed == 0 and out.problems


def test_default_seed_gate_rejects_failed_checks():
    passed = workloads.PassResult(attempted=3, failed=0, digest="d")
    failed = workloads.PassResult(attempted=3, failed=1, digest="d")
    sweep0 = SimpleNamespace(name="sweep", seed=0)
    sweep7 = SimpleNamespace(name="sweep", seed=7)
    assert run.gate(sweep0, [passed, passed]) == []
    assert run.gate(sweep0, [failed])
    # Elsewhere a failed shape check is a failed operation, not an
    # incorrect output.
    assert run.gate(sweep7, [failed]) == []
    other = workloads.PassResult(attempted=3, failed=0, digest="e")
    assert run.gate(sweep7, [passed, other])


def test_input_seeds_start_at_the_default_inputs():
    assert run.input_seeds("sweep", 0)[0] == 0
    assert run.input_seeds("fleet", 5) == [5]
    seen = set()
    for seed in range(20):
        mine = run.input_seeds("sweep", seed)
        assert len(mine) == run.INPUT_SETS["sweep"]
        assert not seen & set(mine)
        seen |= set(mine)


# -- metric names ------------------------------------------------------------


def test_name_mismatch_reports_both_directions():
    declared = stats.metric_units(SPEC, trace=False)
    metrics = {name: 1.0 for name in declared}
    assert stats.name_mismatch(metrics, SPEC, trace=False) == []
    metrics.pop("wall_s")
    metrics["bogus"] = 1.0
    assert stats.name_mismatch(metrics, SPEC, trace=False) == [
        "missing wall_s", "undeclared bogus",
    ]


def test_spec_keys_bounds_and_names():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128


# -- tiny-size workloads ------------------------------------------------------

#: fig2-fig5 are the groups whose quantum memo the obs collector turns off.
TINY_GROUPS = ["table1", "fig2", "fig3", "fig4", "fig5", "fig6", "purity"]


def _tiny(monkeypatch, tmp_path):
    """Every workload at a few seconds' size, through the same code."""
    from repro.experiments import runner

    monkeypatch.setattr(runner, "GROUP_IDS", TINY_GROUPS)
    monkeypatch.setattr(workloads, "FLEET_SCALE", workloads.FLEET_TINY)
    monkeypatch.setattr(workloads, "SERVE_SCALE", workloads.SERVE_TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    # The tiny groups train no overhead models.
    monkeypatch.setattr(tracing, "REQUIRED_SPANS", {
        name: tuple(s for s in spans if s != "trained_models")
        for name, spans in tracing.REQUIRED_SPANS.items()
    })


def test_sweep_and_sweep_obs_agree_at_tiny_size(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path)
    plain = workloads.sweep_pass(3)
    again = workloads.sweep_pass(3)
    observed = workloads.sweep_pass(3, obs_dir=tmp_path / "obs")
    assert plain.problems == [] and plain.attempted > 0
    assert plain.digest == again.digest == observed.digest
    assert observed.extra["obs.spans"] > 0
    assert run.isolation_problems() == []


def test_sweep_obs_run_compares_with_a_plain_sweep(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path)
    workload = run.Workload("sweep_obs", 3)
    observed = workload.run_pass("t")
    assert run.check_against_sweep(workload, observed.digest) == []
    problems = run.check_against_sweep(workload, "0" * 64)
    assert len(problems) == 1 and "!= sweep digest" in problems[0]


def test_every_run_repeats_an_input_set(monkeypatch, tmp_path, capsys):
    _tiny(monkeypatch, tmp_path)
    seen = []
    timed_pass = run.timed_pass

    def spy(workload, tag, **kwargs):
        seen.append(workload.seed)
        return timed_pass(workload, tag, **kwargs)

    monkeypatch.setattr(run, "timed_pass", spy)
    args = run.parse_args(["--workload", "sweep", "--seed", "1",
                           "--seconds", "0.01"])
    out = run.measure(args)
    assert seen == [3, 4, 5, 3]
    assert out["problems"] == []


def test_fleet_tiny(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path)
    result = workloads.fleet_pass(0)
    assert result.problems == []
    assert result.attempted == 6 + 2  # shape checks + cells


def test_serve_tiny(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path)
    trace = workloads.make_serve_trace(1)
    first = workloads.serve_pass(trace, tmp_path / "state")
    second = workloads.serve_pass(trace, tmp_path / "state")
    assert first.problems == []
    assert first.digest == second.digest
    scale = workloads.SERVE_TINY
    delivered = scale.pms * scale.ticks
    queries = scale.ticks * scale.queries_per_tick
    assert first.attempted == delivered + queries + 1
    assert first.extra["serve.accept_ratio"] == 1.0
    assert first.extra["serve.drift_alarms"] >= 1
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(
    workload, trace, monkeypatch, capsys, tmp_path
):
    _tiny(monkeypatch, tmp_path)
    if trace and workload == "serve":
        # Full-size tails need full-size samples; tiny runs check names.
        monkeypatch.setattr(stats, "tail", stats.percentile)
    assert run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0.01",
        "--trace", str(trace),
    ]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    units = stats.metric_units(SPEC, bool(trace))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    if trace:
        assert (tmp_path / f"spans-{workload}-1.jsonl").is_file()
        metrics = {k: v["value"] for k, v in out["metrics"].items()}
        shares = sum(metrics[f"{layer}.share"]
                     for layer in tracing.LAYERS + tracing.OUTSIDE)
        assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
        assert metrics["trace.overhead_ratio"] > 0


def test_a_working_layer_without_spans_fails_the_traced_run(
    monkeypatch, capsys, tmp_path
):
    _tiny(monkeypatch, tmp_path)
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tuple(
        e for e in tracing.ENTRY_POINTS if e[2] != "run_fleet"
    ))
    assert run.main([
        "--workload", "fleet", "--seed", "1", "--seconds", "0.01",
        "--trace", "1",
    ]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False
    assert out["metrics"]["cluster.pm_ticks"]["value"] == 0.0


def test_missing_spans_lists_each_required_name():
    log = tracing.SpanLog()
    log.run_id = "r"
    log.close(log.open("run_fleet"))
    missing = tracing.missing_spans(log, "r", "fleet")
    assert [m.split()[1] for m in missing] == ["run_cells", "Cell.run"]
    # Spans of another run do not count.
    assert len(tracing.missing_spans(log, "other", "fleet")) == 3


def test_tracer_restores_every_entry_point():
    from repro.perf import executor
    from repro.experiments import prediction
    from repro.sim.engine import Simulator

    before = (executor.run_cells, prediction.run_cells,
              Simulator.run_until, Simulator.run)
    tracer = tracing.Tracer(tracing.SpanLog())
    with tracer:
        assert executor.run_cells is not before[0]
        assert prediction.run_cells is not before[1]
        sim = Simulator(seed=1)
        sim.after(1.0, lambda ev: None)
        sim.run_until(2.0)
    assert (executor.run_cells, prediction.run_cells,
            Simulator.run_until, Simulator.run) == before
    span, = tracer.log.named("Simulator.run_until", "")
    assert span.attrs["events"] == 1 and span.end >= span.start


# -- the default inputs are ``repro all --fast`` ---------------------------------


def test_default_seed_is_repro_all_fast():
    from repro.experiments import prediction, runner

    ours = workloads.sweep_pass(0)
    prediction.clear_model_memo()
    theirs = workloads.render_results(runner.run_all(fast=True))
    assert ours.problems == [] and ours.failed == 0
    assert ours.digest == workloads.digest_text(theirs)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
