"""Unit tests for the trace replayer."""

import dataclasses

import pytest

from repro.config import DeviceProfile, EnhancementFlags, GCConfig
from repro.core.policy import OffloadPolicy, TriggerConfig
from repro.emulator.columnar import ColumnarTrace
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.emulator.replay import EmulatorConfig, TraceReplayer
from repro.emulator.timemodel import migration_cost
from repro.errors import TraceFormatError
from repro.net.wavelan import WAVELAN_11MBPS
from repro.rpc.marshal import MESSAGE_HEADER_BYTES
from repro.units import KB


def make_trace(events, pinned=("ui.Screen",)):
    trace = ColumnarTrace(app_name="synthetic")
    trace.class_traits = {
        "ui.Screen": {"native": True, "stateful_native": True},
        "java.lang.Math": {"native": True, "stateful_native": False},
        "app.Data": {"native": False, "stateful_native": False},
        "app.Engine": {"native": False, "stateful_native": False},
    }
    for event in events:
        trace.append(event)
    return trace


def config(client_heap=64 * KB, offload=True, threshold=0.05, tolerance=1,
           min_free=0.20, flags=EnhancementFlags(), **kwargs):
    return EmulatorConfig(
        client=DeviceProfile("client-dev", cpu_speed=1.0,
                             heap_capacity=client_heap),
        surrogate=DeviceProfile("surrogate-dev", cpu_speed=2.0,
                                heap_capacity=1024 * KB),
        gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
        policy=OffloadPolicy(TriggerConfig(free_threshold=threshold,
                                           tolerance=tolerance), min_free),
        offload_enabled=offload,
        flags=flags,
        **kwargs,
    )


class TestCpuAccounting:
    def test_work_charged_at_client_speed(self):
        trace = make_trace([WorkEvent("app.Engine", None, 3.0)])
        result = TraceReplayer(trace, config()).run()
        assert result.total_time == pytest.approx(3.0)
        assert result.cpu_time_client == pytest.approx(3.0)

    def test_work_after_offload_runs_at_surrogate_speed(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            # Trigger pressure: second allocation exceeds the heap.
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
            WorkEvent("app.Engine", None, 4.0),
        ]
        # Engine and Data offload when the 64KB heap cannot hold both.
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.offload_count == 1
        assert result.cpu_time_surrogate == pytest.approx(2.0)


class TestOomEmulation:
    def test_oom_without_offload(self):
        events = [
            AllocEvent(1, "app.Data", 50 * KB, "<main>", None),
            AllocEvent(2, "app.Data", 50 * KB, "<main>", None),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(offload=False)).run()
        assert result.oom
        assert not result.completed
        assert result.events_processed == 2

    def test_garbage_collection_rescues_allocation(self):
        events = [
            AllocEvent(1, "app.Data", 50 * KB, "<main>", None),
            FreeEvent(1),
            AllocEvent(2, "app.Data", 50 * KB, "<main>", None),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(offload=False)).run()
        assert result.completed
        assert result.gc_cycles >= 1

    def test_offload_rescues_allocation(self):
        events = [
            AllocEvent(1, "app.Data", 50 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 50 * KB, "app.Engine", None),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.completed
        assert result.offload_count == 1
        assert result.migration_bytes > 0


class TestRemoteCosts:
    def offloaded_replayer(self):
        """A replayer in which app.Data/app.Engine live on the surrogate."""
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
        ]
        return make_trace(events)

    def test_remote_invocation_cost_matches_model(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
            InvokeEvent("<main>", None, "app.Engine", None, "run",
                        "instance", False, 16, 8),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.remote_invocations == 1
        # Two headered legs: the arguments out, the return value back.
        expected = (WAVELAN_11MBPS.one_way(MESSAGE_HEADER_BYTES + 16)
                    + WAVELAN_11MBPS.one_way(MESSAGE_HEADER_BYTES + 8))
        assert result.comm_time == expected

    def test_remote_access_cost_matches_model(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
            AccessEvent("<main>", None, "app.Data", 1, 256, False, False),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.remote_accesses == 1
        # A read: an empty request out, the value back.
        expected = (WAVELAN_11MBPS.one_way(MESSAGE_HEADER_BYTES)
                    + WAVELAN_11MBPS.one_way(MESSAGE_HEADER_BYTES + 256))
        assert result.comm_time == expected

    def test_local_interactions_cost_nothing(self):
        events = [
            InvokeEvent("<main>", None, "app.Engine", None, "run",
                        "instance", False, 16, 8),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config()).run()
        assert result.comm_time == 0.0
        assert result.remote_interactions == 0


class TestNativeRouting:
    def offload_engine_events(self):
        return [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
        ]

    def test_native_from_offloaded_code_bounces_to_client(self):
        events = self.offload_engine_events() + [
            InvokeEvent("app.Engine", None, "java.lang.Math", None,
                        "sqrt", "native", True, 8, 8),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.remote_native_invocations == 1

    def test_stateless_enhancement_keeps_native_local(self):
        events = self.offload_engine_events() + [
            InvokeEvent("app.Engine", None, "java.lang.Math", None,
                        "sqrt", "native", True, 8, 8),
        ]
        trace = make_trace(events)
        flags = EnhancementFlags(stateless_natives_local=True)
        result = TraceReplayer(trace, config(tolerance=1, flags=flags)).run()
        assert result.remote_native_invocations == 0

    def test_stateful_native_always_bounces(self):
        events = self.offload_engine_events() + [
            InvokeEvent("app.Engine", None, "ui.Screen", None,
                        "draw", "native", False, 8, 0),
        ]
        trace = make_trace(events)
        flags = EnhancementFlags(stateless_natives_local=True)
        result = TraceReplayer(trace, config(tolerance=1, flags=flags)).run()
        assert result.remote_native_invocations == 1

    def test_static_data_access_routes_to_client(self):
        events = self.offload_engine_events() + [
            AccessEvent("app.Engine", None, "app.Engine", None, 64,
                        False, True),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.remote_accesses == 1


class TestPlacementRules:
    def test_new_objects_created_at_creator_site(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
            # Created after the offload, by the offloaded engine:
            AllocEvent(3, "app.Data", 10 * KB, "app.Engine", None),
            # Accessing it from offloaded code is local.
            AccessEvent("app.Engine", None, "app.Data", 3, 64, False, False),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        assert result.offload_count == 1
        assert result.remote_accesses == 0

    def test_object_granularity_splits_arrays(self):
        trace = ColumnarTrace(app_name="arrays")
        trace.class_traits = {
            "ui.Screen": {"native": True, "stateful_native": True},
            "app.Engine": {"native": False, "stateful_native": False},
        }
        # Engine's array is hot with the engine; screen's array is hot
        # with the pinned screen.
        trace.append(AllocEvent(1, "int[]", 40 * KB, "app.Engine", None))
        trace.append(AllocEvent(2, "int[]", 10 * KB, "ui.Screen", None))
        for _ in range(10):
            trace.append(AccessEvent("app.Engine", None, "int[]", 1,
                                     1024, True, False))
            trace.append(AccessEvent("ui.Screen", None, "int[]", 2,
                                     1024, True, False))
        trace.append(AllocEvent(3, "app.Data", 30 * KB, "app.Engine", None))
        trace.append(AccessEvent("app.Engine", None, "int[]", 1,
                                 1024, False, False))
        trace.append(AccessEvent("ui.Screen", None, "int[]", 2,
                                 1024, False, False))
        trace.class_traits["app.Data"] = {"native": False,
                                          "stateful_native": False}
        flags = EnhancementFlags(arrays_object_granularity=True)
        result = TraceReplayer(
            trace, config(client_heap=64 * KB, tolerance=1, flags=flags)
        ).run()
        assert result.offload_count == 1
        # The engine's array moved with the engine; the screen's array
        # stayed home: the two final accesses are both local.
        assert "int[]#1" in result.final_offload_nodes
        assert "int[]#2" not in result.final_offload_nodes
        assert result.remote_accesses == 0


class TestMigrationAccounting:
    def test_migration_bytes_and_time(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        # Exactly the first allocation is resident when the offload
        # happens (the second triggered the pressure).
        assert result.migration_time == pytest.approx(
            migration_cost(WAVELAN_11MBPS, 40 * KB, 1)
        )

    def test_single_shot_blocks_second_offload(self):
        events = [
            AllocEvent(1, "app.Data", 40 * KB, "app.Engine", None),
            AllocEvent(2, "app.Data", 30 * KB, "app.Engine", None),
            AllocEvent(3, "app.Data", 40 * KB, "<main>", None),
            AllocEvent(4, "app.Data", 30 * KB, "<main>", None),
        ]
        trace = make_trace(events)
        result = TraceReplayer(trace, config(tolerance=1)).run()
        # After the single shot, main-side allocations refill the heap
        # and the run dies instead of re-offloading.
        assert result.offload_count == 1
        assert result.oom

    def test_offload_at_event_forces_attempt(self):
        events = [
            AllocEvent(1, "app.Data", 10 * KB, "app.Engine", None),
            WorkEvent("app.Engine", None, 1.0),
            WorkEvent("app.Engine", None, 1.0),
        ]
        trace = make_trace(events)
        from repro.core.policy import BestEffortCpuPolicy
        cfg = config(client_heap=1024 * KB, offload_at_event=2,
                     partition_policy=BestEffortCpuPolicy())
        result = TraceReplayer(trace, cfg).run()
        assert result.offload_count == 1
        # Second work event runs on the 2x surrogate.
        assert result.cpu_time_surrogate == pytest.approx(0.5)


class TestMonitoringCost:
    def test_event_cost_inflates_time(self):
        events = [WorkEvent("app.Engine", None, 1.0)] + [
            InvokeEvent("<main>", None, "app.Engine", None, "run",
                        "instance", False, 8, 8)
            for _ in range(100)
        ]
        trace = make_trace(events)
        plain = TraceReplayer(trace, config(offload=False)).run()
        monitored = TraceReplayer(
            trace, config(offload=False, monitoring_event_cost=1e-3)
        ).run()
        assert monitored.total_time == pytest.approx(
            plain.total_time + 100 * 1e-3
        )
        assert monitored.monitoring_time == pytest.approx(0.1)


class TestMalformedTraces:
    def test_negative_oid_is_rejected_on_entry(self):
        # A trace checks oids as events enter it, so a bad oid never
        # reaches a replay.
        with pytest.raises(TraceFormatError, match="non-negative"):
            make_trace([
                AllocEvent(1, "app.Data", 64, "app.Engine", None),
                FreeEvent(-3),
            ])
