"""Fast-path vs reference-path parity on whole simulated cells.

The fast paths (the precompiled monitor sampling plan, the steady-state
quantum memo, the batched event drain) are only admissible because they
reproduce the reference implementations *bit for bit*.  These tests
compare whole cells with exact float equality -- ``pytest.approx``
would hide exactly the bugs this suite exists to catch.
"""

from __future__ import annotations

import pytest

from repro.experiments import prediction
from repro.perf.cells import MicrobenchCell, PredictionCell, ScenarioTrialCell
from repro.placement import scenario
from repro.placement.placer import VOU
from repro.sim import fastpath


def _fast_and_slow(cell):
    fast = cell.run()
    with fastpath.force_slowpath():
        slow = cell.run()
    return fast, slow


class TestCellParity:
    """Whole simulated cells: engine drain + scheduler + monitor plan.

    One cell per benchmark kind covers the monitor's precompiled
    sampling plan (every tool/resource series), the steady-state
    quantum memo, and the batched drain in one assertion: the full
    means dict and the dispatched-event count must match the scalar
    reference run exactly.  The RUBiS cells put web and DB on different
    PMs, so they also cover the cluster router's change-only writes and
    its skip at an unmoved state clock.
    """

    @pytest.mark.parametrize(
        "kind", ("cpu", "mem", "io", "bw", "bw-intra")
    )
    def test_cell_fast_vs_slowpath_bitwise(self, kind):
        cell = MicrobenchCell(
            kind=kind, n_vms=2, level=25.0, index=0, duration=6.0, seed=42,
        )
        (fast_value, fast_events), (slow_value, slow_events) = (
            _fast_and_slow(cell)
        )
        assert fast_value == slow_value
        assert fast_events == slow_events

    def test_prediction_cell_fast_vs_slowpath_bitwise(self):
        single, multi = prediction.trained_models(duration=20.0)
        cell = PredictionCell(
            n_apps=2, clients=300, duration=5.0, seed=99,
            single_model=single, multi_model=multi,
        )
        (fast, fast_events), (slow, slow_events) = _fast_and_slow(cell)
        assert {k: r.errors.tolist() for k, r in fast.items()} == {
            k: r.errors.tolist() for k, r in slow.items()
        }
        assert fast_events == slow_events

    def test_scenario_trial_cell_fast_vs_slowpath_bitwise(self):
        cell = ScenarioTrialCell(
            scenario=1, strategy=VOU,
            order=("vm1-web", "vm3", "vm4", "vm5", "vm2-db"), seed=5,
            duration_s=15.0, clients=500,
            demands=scenario.profile_demands(1, seed=3, profile_s=10.0),
        )
        (fast, fast_events), (slow, slow_events) = _fast_and_slow(cell)
        web, db = (fast.plan.assignment[n] for n in scenario.VM_NAMES[:2])
        assert web != db  # the web -> DB traffic crosses PMs
        assert fast == slow
        assert fast_events == slow_events
