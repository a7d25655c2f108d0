"""Tests for multi-PM cluster orchestration and inter-PM routing."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.obs import runtime
from repro.sim import Simulator
from repro.xen import Flow, VMSpec, stateclock


@pytest.fixture()
def cluster():
    sim = Simulator(seed=21)
    cl = Cluster(sim)
    cl.create_pm("pm1")
    cl.create_pm("pm2")
    return cl


class TestTopology:
    def test_create_and_lookup(self, cluster):
        vm = cluster.place_vm(VMSpec(name="a"), "pm1")
        assert cluster.pm_of("a").name == "pm1"
        assert cluster.find_vm("a") is vm
        assert {v.name for v in cluster.all_vms()} == {"a"}

    def test_duplicate_pm_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.create_pm("pm1")

    def test_unknown_lookups(self, cluster):
        with pytest.raises(KeyError):
            cluster.pm_of("ghost")
        with pytest.raises(KeyError):
            cluster.place_vm(VMSpec(name="x"), "pm9")

    def test_migration_moves_vm(self, cluster):
        cluster.place_vm(VMSpec(name="a"), "pm1")
        cluster.migrate_vm("a", "pm2")
        assert cluster.pm_of("a").name == "pm2"

    def test_migration_to_same_pm_is_noop(self, cluster):
        vm = cluster.place_vm(VMSpec(name="a"), "pm1")
        assert cluster.migrate_vm("a", "pm1") is vm

    def test_migration_rolls_back_on_memory_error(self, cluster):
        cluster.place_vm(VMSpec(name="a"), "pm1")
        # Fill pm2 to the brim.
        for k in range(6):
            cluster.place_vm(VMSpec(name=f"fill{k}"), "pm2")
        with pytest.raises(MemoryError):
            cluster.migrate_vm("a", "pm2")
        assert cluster.pm_of("a").name == "pm1"

    def test_migrate_to_unknown_pm(self, cluster):
        cluster.place_vm(VMSpec(name="a"), "pm1")
        with pytest.raises(KeyError):
            cluster.migrate_vm("a", "pm9")


class TestRouting:
    def test_inter_pm_flow_reaches_destination(self, cluster):
        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        cluster.place_vm(VMSpec(name="dst"), "pm2")
        src.add_flow(Flow(src="src", dst="dst", kbps=800.0))
        cluster.start()
        cluster.run(5.0)
        pm1 = cluster.pms["pm1"].snapshot()
        pm2 = cluster.pms["pm2"].snapshot()
        # Sender side: flow is inter-PM, occupies pm1's NIC.
        assert pm1.vm("src").bw_kbps == pytest.approx(800.0)
        assert pm1.pm_bw_kbps == pytest.approx(805.0, abs=2.0)
        # Receiver side: routed inbound hits pm2's NIC and the dst VM.
        assert pm2.vm("dst").bw_kbps == pytest.approx(800.0)
        assert pm2.pm_bw_kbps >= 800.0

    def test_intra_pm_flow_not_routed(self, cluster):
        a = cluster.place_vm(VMSpec(name="a"), "pm1")
        cluster.place_vm(VMSpec(name="b"), "pm1")
        a.add_flow(Flow(src="a", dst="b", kbps=500.0))
        cluster.start()
        cluster.run(5.0)
        pm1 = cluster.pms["pm1"].snapshot()
        pm2 = cluster.pms["pm2"].snapshot()
        assert pm1.pm_bw_kbps < 10.0  # intra-PM: no physical bandwidth
        assert pm2.pm_bw_kbps < 10.0
        assert pm1.vm("b").bw_kbps == pytest.approx(500.0)

    def test_external_flow_not_routed(self, cluster):
        from repro.xen import external_host

        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        src.add_flow(Flow(src="src", dst=external_host("x"), kbps=300.0))
        cluster.start()
        cluster.run(3.0)
        pm2 = cluster.pms["pm2"].snapshot()
        assert pm2.pm_bw_kbps < 10.0

    def test_routing_follows_migration(self, cluster):
        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        cluster.place_vm(VMSpec(name="dst"), "pm1")
        src.add_flow(Flow(src="src", dst="dst", kbps=400.0))
        cluster.start()
        cluster.run(3.0)
        assert cluster.pms["pm1"].snapshot().pm_bw_kbps < 10.0  # intra
        cluster.migrate_vm("dst", "pm2")
        cluster.run(3.0)
        # Now inter-PM: both NICs are busy.
        assert cluster.pms["pm1"].snapshot().pm_bw_kbps > 390.0
        assert cluster.pms["pm2"].snapshot().pm_bw_kbps > 390.0

    def test_steady_routing_leaves_the_clock_alone(self, cluster):
        # A router that rewrites equal entries bumps the state clock
        # every quantum and keeps both machines off their memo.
        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        cluster.place_vm(VMSpec(name="dst"), "pm2")
        flow = src.add_flow(Flow(src="src", dst="dst", kbps=800.0))
        collector = runtime.ObsCollector()
        fills = collector.metrics.counter("repro_sched_water_fill_total")
        with runtime.collecting(collector):
            cluster.start()
            cluster.run(2.0)
            version, settled_fills = stateclock.version(), fills.value
            cluster.run(5.0)
            assert stateclock.version() == version
            assert fills.value == settled_fills > 0
            flow.kbps = 500.0
            cluster.run(0.1)
        table = cluster.pms["pm2"].external_inbound_kbps
        assert dict(table) == {"cluster:dst": 500.0}
        assert fills.value > settled_fills

    def test_app_entries_stay_ahead_of_routed_ones(self, cluster):
        # The machine sums its inbound table in dict order, so the order
        # is part of the output: application entries first, then the
        # router's, whatever order the writers happened to use.
        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        cluster.place_vm(VMSpec(name="dst"), "pm2")
        src.add_flow(Flow(src="src", dst="dst", kbps=800.0))
        table = cluster.pms["pm2"].external_inbound_kbps
        table["app-x:dst"] = 50.0
        cluster.start()
        cluster.run(1.0)
        assert list(table) == ["app-x:dst", "cluster:dst"]
        table.pop("app-x:dst")
        table["app-x:dst"] = 50.0  # re-added behind the router's entry
        assert list(table) == ["cluster:dst", "app-x:dst"]
        cluster.run(0.1)
        assert list(table.items()) == [
            ("app-x:dst", 50.0), ("cluster:dst", 800.0)
        ]

    def test_double_start_rejected(self, cluster):
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()

    def test_stop_freezes(self, cluster):
        src = cluster.place_vm(VMSpec(name="src"), "pm1")
        cluster.start()
        cluster.run(2.0)
        cluster.stop()
        src.demand.cpu_pct = 99.0
        cluster.run(5.0)
        assert cluster.pms["pm1"].snapshot().vm("src").cpu_pct < 1.0
