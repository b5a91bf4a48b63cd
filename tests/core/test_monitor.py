"""Unit tests for the execution monitor."""

import pytest

from repro.core.monitor import ExecutionMonitor, ResourceMonitor
from repro.vm.context import MAIN_CLASS
from repro.vm.gc import GCReport
from repro.vm.hooks import AccessRecord, InvokeRecord
from repro.vm.objectmodel import ClassBuilder, ClassDef, JArray, JObject


def make_obj(class_name="t.A"):
    return JObject(ClassBuilder(class_name).field("x", "int").build(), "client")


def make_array(length=100, element_type="int"):
    cls = ClassDef(f"{element_type}[]", is_array_class=True)
    return JArray(cls, "client", element_type, length)


def invoke_record(caller="t.A", callee="t.B", arg_bytes=8, ret_bytes=8,
                  remote=False, kind="instance", caller_oid=None,
                  callee_oid=None, stateless=False):
    return InvokeRecord(
        caller_class=caller, caller_oid=caller_oid,
        callee_class=callee, callee_oid=callee_oid,
        method="m", kind=kind, native_stateless=stateless,
        arg_bytes=arg_bytes, ret_bytes=ret_bytes, cpu_seconds=0.0,
        caller_site="client", exec_site="client", remote=remote,
    )


def access_record(accessor="t.A", owner="t.B", nbytes=8, remote=False,
                  owner_oid=None):
    return AccessRecord(
        accessor_class=accessor, accessor_oid=None,
        owner_class=owner, owner_oid=owner_oid,
        field="f", value_bytes=nbytes, is_write=False, is_static=False,
        accessor_site="client", exec_site="client", remote=remote,
    )


def gc_report(cycle=1):
    return GCReport(cycle=cycle, reason="t", live_objects=0, freed_objects=0,
                    freed_bytes=0, used_bytes=0, free_bytes=100, capacity=100)


class TestGraphBuilding:
    def test_alloc_and_free_update_class_memory(self):
        monitor = ExecutionMonitor()
        obj = make_obj()
        monitor.on_alloc(obj, "client", MAIN_CLASS)
        assert monitor.graph.node("t.A").memory_bytes == obj.size_bytes
        monitor.on_free(obj)
        assert monitor.graph.node("t.A").memory_bytes == 0

    def test_free_of_untracked_object_is_harmless(self):
        monitor = ExecutionMonitor()
        monitor.on_free(make_obj("t.Ghost"))
        assert not monitor.graph.has_node("t.Ghost")

    def test_free_without_graph_node_still_counts(self):
        """Warm-start desync: counters must not skip with the graph.

        When the graph node is absent (e.g. the object predates the
        profile the monitor warm-started from), the graph update is
        skipped but ``objects_freed`` and the live populations must
        stay consistent with the event stream.
        """
        monitor = ExecutionMonitor()
        monitor.on_alloc(make_obj("t.A"), "client", MAIN_CLASS)
        monitor.on_free(make_obj("t.Ghost"))
        assert not monitor.graph.has_node("t.Ghost")
        assert monitor.counters.objects_freed == 1
        # The ghost free cannot drive live populations negative...
        assert monitor.live_objects == 0
        assert "t.Ghost" not in monitor._live_classes
        # ...and the tracked class is unaffected.
        assert monitor.live_classes == 1

    def test_free_with_node_keeps_counters_and_graph_in_step(self):
        monitor = ExecutionMonitor()
        obj = make_obj("t.A")
        monitor.on_alloc(obj, "client", MAIN_CLASS)
        monitor.on_free(obj)
        assert monitor.counters.objects_created == 1
        assert monitor.counters.objects_freed == 1
        assert monitor.live_objects == 0
        assert monitor.live_classes == 0
        assert monitor.graph.node("t.A").live_objects == 0

    def test_invocation_builds_weighted_edge(self):
        monitor = ExecutionMonitor()
        monitor.on_invoke(invoke_record(arg_bytes=10, ret_bytes=6))
        monitor.on_invoke(invoke_record(arg_bytes=4, ret_bytes=0))
        edge = monitor.graph.edge("t.A", "t.B")
        assert edge.count == 2
        assert edge.bytes == 20

    def test_access_builds_weighted_edge(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access_record(nbytes=16))
        assert monitor.graph.edge("t.A", "t.B").bytes == 16

    def test_same_class_interactions_not_recorded(self):
        monitor = ExecutionMonitor()
        monitor.on_invoke(invoke_record(caller="t.A", callee="t.A"))
        assert monitor.graph.link_count == 0
        assert monitor.counters.invocation_events == 1

    def test_cpu_attribution(self):
        monitor = ExecutionMonitor()
        monitor.on_cpu("t.A", "client", 0.25)
        assert monitor.graph.node("t.A").cpu_seconds == pytest.approx(0.25)


class TestCounters:
    def test_interaction_events_sum_invocations_and_accesses(self):
        monitor = ExecutionMonitor()
        for _ in range(3):
            monitor.on_invoke(invoke_record())
        for _ in range(2):
            monitor.on_access(access_record())
        assert monitor.counters.invocation_events == 3
        assert monitor.counters.access_events == 2
        assert monitor.counters.interaction_events == 5

    def test_object_population(self):
        monitor = ExecutionMonitor()
        a, b = make_obj("t.A"), make_obj("t.B")
        monitor.on_alloc(a, "client", MAIN_CLASS)
        monitor.on_alloc(b, "client", MAIN_CLASS)
        assert monitor.live_objects == 2
        assert monitor.live_classes == 2
        monitor.on_free(a)
        assert monitor.live_objects == 1
        assert monitor.live_classes == 1

    def test_sampled_series_on_gc(self):
        monitor = ExecutionMonitor()
        monitor.on_alloc(make_obj(), "client", MAIN_CLASS)
        monitor.on_gc_report(gc_report(1), "client")
        monitor.on_alloc(make_obj(), "client", MAIN_CLASS)
        monitor.on_alloc(make_obj("t.B"), "client", MAIN_CLASS)
        monitor.on_gc_report(gc_report(2), "client")
        assert monitor.objects_series.maximum == 3
        assert monitor.objects_series.average == pytest.approx(2.0)
        assert monitor.classes_series.maximum == 2

    def test_graph_storage_estimate_scales_with_graph(self):
        monitor = ExecutionMonitor()
        assert monitor.graph_storage_bytes() == 0
        monitor.on_invoke(invoke_record())
        assert monitor.graph_storage_bytes() > 0


class TestRemoteCounters:
    def test_remote_invocations_counted(self):
        monitor = ExecutionMonitor()
        monitor.on_invoke(invoke_record(remote=True))
        monitor.on_invoke(invoke_record(remote=False))
        monitor.on_invoke(invoke_record(remote=True, kind="native"))
        assert monitor.remote.remote_invocations == 2
        assert monitor.remote.remote_native_invocations == 1

    def test_remote_accesses_counted(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access_record(remote=True, nbytes=32))
        assert monitor.remote.remote_accesses == 1
        assert monitor.remote.total_remote == 1
        assert monitor.remote.remote_bytes == 32


class TestObjectGranularity:
    def test_array_objects_get_individual_nodes(self):
        monitor = ExecutionMonitor(object_granularity_classes={"int[]"})
        arr = make_array()
        monitor.on_alloc(arr, "client", MAIN_CLASS)
        node = f"int[]#{arr.oid}"
        assert monitor.graph.has_node(node)
        assert monitor.graph.node(node).memory_bytes == arr.size_bytes

    def test_interactions_with_tracked_arrays_are_per_object(self):
        monitor = ExecutionMonitor(object_granularity_classes={"int[]"})
        arr = make_array()
        monitor.on_access(access_record(owner="int[]", owner_oid=arr.oid))
        assert monitor.graph.edge("t.A", f"int[]#{arr.oid}") is not None

    def test_untracked_classes_stay_at_class_granularity(self):
        monitor = ExecutionMonitor(object_granularity_classes={"int[]"})
        obj = make_obj()
        monitor.on_alloc(obj, "client", MAIN_CLASS)
        assert monitor.graph.has_node("t.A")
        assert not monitor.graph.has_node(f"t.A#{obj.oid}")


class TestResourceMonitor:
    def test_latest_and_series(self):
        monitor = ResourceMonitor()
        monitor.on_gc_report(gc_report(1), "client")
        monitor.on_gc_report(gc_report(2), "client")
        monitor.on_gc_report(gc_report(1), "surrogate")
        assert monitor.latest["client"].cycle == 2
        assert len(monitor.series["client"]) == 2
        assert monitor.free_fraction("client") == 1.0
        assert monitor.free_fraction("nowhere") is None

    def test_series_can_be_disabled(self):
        monitor = ResourceMonitor(keep_series=False)
        monitor.on_gc_report(gc_report(1), "client")
        assert monitor.series == {}
        assert monitor.latest["client"].cycle == 1
