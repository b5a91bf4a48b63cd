"""Tests for multi-surrogate offloading (paper section 2's vision)."""

import pytest

from repro.config import DeviceProfile, GCConfig, VMConfig
from repro.core.graph import ExecutionGraph
from repro.core.policy import OffloadPolicy, TriggerConfig
from repro.errors import ConfigurationError, MigrationError
from repro.net.faults import FaultSpec
from repro.net.wavelan import ETHERNET_100MBPS, WAVELAN_11MBPS
from repro.platform.discovery import SurrogateOffer
from repro.platform.migration import assign_offload_nodes
from repro.platform.platform import DistributedPlatform, SurrogateSpec
from repro.rpc.batch import DataPlaneConfig
from repro.units import KB, MB

from tests.platform.test_platform import HoarderApp, pressure_gc


def spec(name, heap, link=WAVELAN_11MBPS, speed=1.0):
    return SurrogateSpec(
        name,
        VMConfig(device=DeviceProfile(name, cpu_speed=speed,
                                      heap_capacity=heap),
                 gc=pressure_gc(), monitoring_event_cost=0.0),
        link,
    )


def make_cluster(*specs, client_heap=128 * KB):
    return DistributedPlatform(
        surrogates=list(specs),
        client_config=VMConfig(
            device=DeviceProfile("jornada", 1.0, client_heap),
            gc=pressure_gc(), monitoring_event_cost=0.0),
        offload_policy=OffloadPolicy(TriggerConfig(0.05, 1), 0.20),
    )


class TestAssignment:
    def graph_with(self, memories, edges=()):
        graph = ExecutionGraph()
        for node, memory in memories.items():
            graph.add_memory(node, memory)
        for a, b, nbytes in edges:
            graph.record_interaction(a, b, nbytes)
        return graph

    def test_everything_fits_on_one(self):
        graph = self.graph_with({"a": 10, "b": 20})
        placed = assign_offload_nodes(
            graph, frozenset({"a", "b"}),
            capacities={"s1": 100, "s2": 100},
            node_memory={"a": 10, "b": 20},
            preference=["s1", "s2"],
        )
        assert set(placed.values()) == {"s1"}

    def test_capacity_forces_split(self):
        graph = self.graph_with({"a": 60, "b": 60})
        placed = assign_offload_nodes(
            graph, frozenset({"a", "b"}),
            capacities={"s1": 80, "s2": 80},
            node_memory={"a": 60, "b": 60},
            preference=["s1", "s2"],
        )
        assert set(placed.values()) == {"s1", "s2"}

    def test_cohesion_keeps_coupled_nodes_together(self):
        graph = self.graph_with(
            {"a": 10, "b": 10, "c": 10},
            edges=[("a", "b", 10_000), ("a", "c", 1)],
        )
        placed = assign_offload_nodes(
            graph, frozenset({"a", "b", "c"}),
            capacities={"s1": 25, "s2": 25},
            node_memory={"a": 10, "b": 10, "c": 10},
            preference=["s1", "s2"],
        )
        assert placed["a"] == placed["b"]

    def test_oversized_node_rejected(self):
        graph = self.graph_with({"a": 500})
        with pytest.raises(MigrationError):
            assign_offload_nodes(
                graph, frozenset({"a"}),
                capacities={"s1": 100},
                node_memory={"a": 500},
                preference=["s1"],
            )


class TestClusterPlatform:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DistributedPlatform(surrogates=[])
        with pytest.raises(ConfigurationError):
            DistributedPlatform(
                surrogates=[spec("x", 1 * MB), spec("x", 1 * MB)])
        with pytest.raises(ConfigurationError):
            SurrogateSpec("client", VMConfig())

    def test_offload_fits_on_single_big_surrogate(self):
        cluster = make_cluster(spec("big", 8 * MB), spec("small", 64 * KB))
        cluster.run(HoarderApp(segments=60))
        usage = cluster.surrogate_usage()
        assert usage["big"] > 0
        assert usage["small"] == 0

    def test_offload_splits_when_no_single_surrogate_fits(self):
        # The hoard is ~240KB+; each surrogate holds 160KB.
        cluster = make_cluster(spec("s1", 160 * KB), spec("s2", 160 * KB))
        cluster.run(HoarderApp(segments=60))
        usage = cluster.surrogate_usage()
        assert usage["s1"] > 0 and usage["s2"] > 0
        assert cluster.engine.offload_count == 1

    def test_execution_continues_across_the_split(self):
        cluster = make_cluster(spec("s1", 160 * KB), spec("s2", 160 * KB))
        cluster.run(HoarderApp(segments=60))
        doc = cluster.ctx.get_global("doc")
        count = cluster.ctx.get_field(doc, "count")
        cluster.ctx.invoke(doc, "append", 64)
        assert cluster.ctx.get_field(doc, "count") == count + 1

    def test_cross_surrogate_liveness(self):
        cluster = make_cluster(spec("s1", 160 * KB), spec("s2", 160 * KB))
        cluster.run(HoarderApp(segments=60))
        for vm in cluster.runtime.surrogates:
            vm.collect_garbage()
        cluster.client.vm.collect_garbage()
        doc = cluster.ctx.get_global("doc")
        assert doc.alive
        # The segment chain spans surrogates but stays fully alive.
        head = doc.values["head"]
        chain = 0
        while head is not None:
            assert head.alive
            head = head.values["next"]
            chain += 1
        assert chain > 0

    def test_surrogate_to_surrogate_relays_through_client(self):
        cluster = make_cluster(spec("s1", 1 * MB), spec("s2", 1 * MB))
        runtime = cluster.runtime
        before = cluster.clock.now
        runtime.transfer("s1", "s2", 1000)
        relay = cluster.clock.now - before
        direct_before = cluster.clock.now
        runtime.transfer("client", "s1", 1000)
        direct = cluster.clock.now - direct_before
        assert relay == pytest.approx(2 * direct)

    def test_faster_link_preferred_on_ties(self):
        cluster = DistributedPlatform(
            surrogates=[spec("wifi", 8 * MB, WAVELAN_11MBPS),
                        spec("wired", 8 * MB, ETHERNET_100MBPS)],
            client_config=VMConfig(
                device=DeviceProfile("jornada", 1.0, 128 * KB),
                gc=pressure_gc(), monitoring_event_cost=0.0),
            offload_policy=OffloadPolicy(TriggerConfig(0.05, 1), 0.20),
        )
        # Preference follows the supplied order; callers who want the
        # fastest link first simply order the specs that way.
        assert [vm.name for vm in cluster.runtime.surrogates] == [
            "wifi", "wired"]
        assert cluster.migrator.surrogates is cluster.runtime.surrogates


class TestAllocationSpill:
    def test_allocation_spills_to_sibling_when_full(self):
        cluster = make_cluster(spec("s1", 96 * KB), spec("s2", 512 * KB),
                               client_heap=1 * MB)
        cluster.run(HoarderApp(segments=5))
        runtime = cluster.runtime
        store_cls = cluster.registry.lookup("hoard.Segment")
        # Fill s1 with rooted data, then allocate "on" s1: the spill
        # lands on s2.
        filler = runtime.vm("s1").new_array("byte", 80 * KB)
        cluster.client.vm.set_root("filler", filler)
        spilled = runtime.new_array("s1", "byte", 64 * KB)
        cluster.client.vm.set_root("spilled", spilled)
        assert spilled.home == "s2"
        # Instances spill the same way once s1 is genuinely full.
        packer = runtime.vm("s1").new_array(
            "byte", runtime.vm("s1").heap.free - 32
        )
        cluster.client.vm.set_root("packer", packer)
        obj = runtime.new_instance("s1", store_cls)
        assert obj.home == "s2"

    def test_client_allocations_never_spill(self):
        cluster = make_cluster(spec("s1", 8 * MB), client_heap=64 * KB)
        cluster.run(HoarderApp(segments=2))
        runtime = cluster.runtime
        with pytest.raises(Exception):
            # Overfill the client: allocation must fail, not silently
            # land on a surrogate (client pressure belongs to the
            # trigger policy).
            for _ in range(64):
                arr = runtime.new_array("client", "byte", 8 * KB)
                cluster.client.vm.set_root(f"k{arr.oid}", arr)

    def test_spill_exhaustion_raises_oom(self):
        from repro.errors import OutOfMemoryError

        cluster = make_cluster(spec("s1", 32 * KB), spec("s2", 32 * KB))
        runtime = cluster.runtime
        with pytest.raises(OutOfMemoryError):
            kept = []
            for _ in range(16):
                arr = runtime.new_array("s1", "byte", 16 * KB)
                cluster.client.vm.set_root(f"a{arr.oid}", arr)
                kept.append(arr)


class TestClusterConfiguration:
    def test_surrogates_exclude_the_single_surrogate_shorthand(self):
        specs = [spec("s1", 1 * MB)]
        with pytest.raises(ConfigurationError):
            DistributedPlatform(surrogates=specs,
                                surrogate_config=VMConfig())
        with pytest.raises(ConfigurationError):
            DistributedPlatform(surrogates=specs, link=WAVELAN_11MBPS)

    def test_shorthand_builds_one_primary_surrogate(self):
        platform = DistributedPlatform()
        assert [vm.name for vm in platform.runtime.surrogates] == [
            "surrogate"]
        assert platform.link is WAVELAN_11MBPS


class TestClusterFaults:
    @pytest.mark.parametrize("crash_at_event", [1, 8])
    @pytest.mark.parametrize("data_plane", [None, DataPlaneConfig(
        coalescing=True, read_cache=True)], ids=["plain", "data-plane"])
    def test_crash_pulls_every_surrogate_home(self, crash_at_event,
                                              data_plane):
        cluster = DistributedPlatform(
            surrogates=[spec("s1", 160 * KB), spec("s2", 160 * KB)],
            client_config=VMConfig(
                device=DeviceProfile("jornada", 1.0, 256 * KB),
                gc=pressure_gc(), monitoring_event_cost=0.0),
            offload_policy=OffloadPolicy(TriggerConfig(0.5, 1), 0.20),
            faults=FaultSpec(seed=5, crash_at_event=crash_at_event),
            data_plane=data_plane,
        )
        report = cluster.run(HoarderApp(segments=50))
        doc = cluster.ctx.get_global("doc")
        assert cluster.ctx.get_field(doc, "count") == 50
        assert cluster.surrogate_lost
        assert cluster.surrogate_usage() == {"s1": 0, "s2": 0}
        assert report.faults["objects_repatriated"] > 0
        for site, refmap in cluster.channel.exports.items():
            assert len(refmap) == 0, f"dangling exports on {site}"


class TestClusterHandoff:
    def test_spill_after_handoff_skips_the_departed_surrogate(self):
        cluster = make_cluster(spec("s1", 8 * MB), spec("s2", 64 * KB))
        cluster.run(HoarderApp(segments=60))
        assert cluster.surrogate_usage()["s1"] > 0
        cluster.handoff(SurrogateOffer(
            name="fresh",
            device=DeviceProfile("fresh-pc", cpu_speed=2.0,
                                 heap_capacity=1 * MB),
            link=WAVELAN_11MBPS,
        ))
        runtime = cluster.runtime
        new = cluster.surrogate.vm
        assert [vm.name for vm in runtime.surrogates] == [new.name, "s2"]
        # The departed surrogate is empty, so it has the most free heap
        # of any site; a spill must still pick an active sibling.
        assert runtime.vm("s1").heap.used == 0
        packer = new.new_array("byte", new.heap.free - 32)
        cluster.client.vm.set_root("packer", packer)
        spilled = runtime.new_array(new.name, "byte", 16 * KB)
        assert spilled.home == "s2"
        assert runtime.vm("s1").heap.used == 0
