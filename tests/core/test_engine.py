"""Unit tests for the offloading engine control loop."""

from dataclasses import replace

from repro.core.engine import OffloadingEngine
from repro.core.monitor import ExecutionMonitor
from repro.core.partitioner import Partitioner
from repro.core.policy import (
    EvaluationContext,
    MemoryPartitionPolicy,
    MemoryTrigger,
    TriggerConfig,
)
from repro.vm.context import MAIN_CLASS
from repro.vm.gc import GCReport
from repro.vm.hooks import InvokeRecord
from repro.vm.objectmodel import ClassBuilder, JObject


def low_report(cycle=1):
    return GCReport(cycle=cycle, reason="t", live_objects=10,
                    freed_objects=0, freed_bytes=0, used_bytes=990,
                    free_bytes=10, capacity=1000)


def invoke(monitor, caller, callee, nbytes):
    monitor.on_invoke(InvokeRecord(
        caller_class=caller, caller_oid=None, callee_class=callee,
        callee_oid=None, method="m", kind="instance",
        native_stateless=False, arg_bytes=nbytes, ret_bytes=0,
        cpu_seconds=0.0, caller_site="client", exec_site="client",
        remote=False,
    ))


def alloc(monitor, class_name, size):
    obj = JObject(ClassBuilder(class_name).build(), "client")
    monitor.on_alloc(obj, "client", MAIN_CLASS)
    monitor.graph.add_memory(class_name, size - obj.size_bytes)


def populate(monitor):
    """Two clusters: pinned ui+model on the client, data+cache offloadable."""
    for caller, callee, nbytes in [
        ("ui", "model", 10_000),
        ("data", "cache", 8_000),
        ("model", "data", 5),
    ]:
        invoke(monitor, caller, callee, nbytes)
    for class_name, size in [("ui", 100), ("model", 100),
                             ("data", 500), ("cache", 300)]:
        alloc(monitor, class_name, size)


class FakeHost:
    """The engine's ports over a live monitor; records every migration."""

    surrogate_lost = False

    def __init__(self, migrations):
        self.monitor = ExecutionMonitor()
        populate(self.monitor)
        self.migrations = migrations

    @property
    def graph(self):
        return self.monitor.graph

    def pinned_nodes(self):
        # Both hosts pin the top level, the creator of every allocation
        # made outside a frame.
        return ["ui", MAIN_CLASS]

    def evaluation_context(self):
        return EvaluationContext(heap_capacity=1000, elapsed=10.0)

    def now(self):
        return 42.0

    def migrate(self, nodes):
        self.migrations.append(nodes)
        return 100, 2


def make_engine(min_free=0.20, tolerance=1, single_shot=True,
                migrations=None):
    migrations = migrations if migrations is not None else []
    host = FakeHost(migrations)
    engine = OffloadingEngine(
        host,
        Partitioner(MemoryPartitionPolicy(min_free)),
        MemoryTrigger(TriggerConfig(free_threshold=0.05,
                                    tolerance=tolerance)),
        single_shot=single_shot,
    )
    # The engine holds its host weakly; the test keeps it alive.
    engine.fake_host = host
    return engine, migrations


class TestEngineFlow:
    def test_offloads_when_trigger_fires(self):
        engine, migrations = make_engine()
        engine.on_gc_report(low_report(), "client")
        assert engine.offload_count == 1
        assert migrations == [frozenset({"data", "cache"})]
        event = engine.last_event
        assert event.performed
        assert event.time == 42.0
        assert event.migrated_bytes == 100
        assert event.migrated_objects == 2

    def test_tolerance_delays_trigger(self):
        engine, migrations = make_engine(tolerance=3)
        engine.on_gc_report(low_report(1), "client")
        engine.on_gc_report(low_report(2), "client")
        assert engine.offload_count == 0
        engine.on_gc_report(low_report(3), "client")
        assert engine.offload_count == 1

    def test_single_shot_ignores_later_reports(self):
        engine, migrations = make_engine()
        engine.on_gc_report(low_report(1), "client")
        engine.on_gc_report(low_report(2), "client")
        assert engine.offload_count == 1
        assert len(migrations) == 1

    def test_multi_shot_can_repartition(self):
        engine, migrations = make_engine(single_shot=False)
        engine.on_gc_report(low_report(1), "client")
        engine.on_gc_report(low_report(2), "client")
        assert engine.offload_count == 2

    def test_surrogate_reports_ignored(self):
        engine, migrations = make_engine()
        engine.on_gc_report(low_report(), "surrogate")
        assert engine.offload_count == 0

    def test_refusal_recorded_and_trigger_reset(self):
        engine, migrations = make_engine(min_free=0.99)
        engine.on_gc_report(low_report(), "client")
        assert engine.offload_count == 0
        assert engine.refusal_count == 1
        assert not engine.last_event.performed
        assert migrations == []

    def test_reentrant_reports_during_migration_ignored(self):
        migrations = []
        engine_holder = {}

        def migrate(nodes):
            migrations.append(nodes)
            # Migration itself causes GC activity on the client; the
            # engine must not recurse into another attempt.
            engine_holder["engine"].on_gc_report(low_report(99), "client")
            return 0, 0

        engine, _ = make_engine(migrations=migrations)
        engine.fake_host.migrate = migrate
        engine_holder["engine"] = engine
        engine.on_gc_report(low_report(), "client")
        assert engine.offload_count == 1
        assert len(migrations) == 1

    def test_performed_events_filter(self):
        engine, _ = make_engine(min_free=0.99)
        engine.on_gc_report(low_report(), "client")
        assert engine.performed_events == []


class TestIncrementalSession:
    def test_attempts_run_through_the_session_and_expose_stats(self):
        engine, _ = make_engine(single_shot=False)
        engine.on_gc_report(low_report(1), "client")
        engine.on_gc_report(low_report(2), "client")
        stats = engine.reeval_stats
        assert stats.epochs == 2
        assert stats.epochs == len(engine.events)
        assert stats.last_epoch_seconds > 0
        # Nothing changed between the two attempts: the second reuses
        # the candidate list under the same context key.
        assert stats.reuse_hits == 1
        assert engine.events[-1].decision.policy_cache_hit

    def test_replacing_the_partitioner_resets_the_session(self):
        engine, _ = make_engine(single_shot=False)
        engine.on_gc_report(low_report(1), "client")
        old_stats = engine.reeval_stats
        engine.partitioner = Partitioner(MemoryPartitionPolicy(0.20))
        assert engine.reeval_stats is not old_stats
        assert engine.reeval_stats.epochs == 0

    def test_session_drains_the_live_monitor_graph(self):
        engine, _ = make_engine(single_shot=False)
        monitor = engine.host.monitor
        engine.attempt()
        # Between epochs the hooks grow an edge, add a node and move
        # memory; the session must see all of it through its own drain.
        invoke(monitor, "data", "cache", 2_000)
        invoke(monitor, "cache", "index", 3_000)
        alloc(monitor, "index", 200)
        decision = engine.attempt().decision
        assert engine.session._fg.synced_version == monitor.graph.version
        # The flat snapshot was patched with the drained delta (the new
        # node names the epoch), not recompiled: a recompile would mean
        # someone else drained the graph and the session lost the delta.
        stats = engine.reeval_stats
        assert stats.fallback_not_ready == 1
        assert stats.fallback_node_churn == 1
        fresh = Partitioner(MemoryPartitionPolicy(0.20)).partition(
            monitor.graph.copy(), engine.fake_host.pinned_nodes(),
            EvaluationContext(heap_capacity=1000, elapsed=10.0))
        assert decision.beneficial
        assert "index" in decision.offload_nodes
        assert replace(decision, compute_seconds=0.0, warm_start=False,
                       policy_cache_hit=False) == \
            replace(fresh, compute_seconds=0.0)


def test_both_hosts_pin_the_top_level():
    """An allocation outside any frame names ``MAIN_CLASS`` as its
    creator, so the graph holds that node; both hosts pin it, so it is
    never offloaded."""
    from repro.emulator.columnar import ColumnarTrace
    from repro.emulator.replay import TraceReplayer
    from tests.emulator.test_replay_properties import config
    from tests.helpers import make_platform

    assert MAIN_CLASS in make_platform().pinned_nodes()
    replayer = TraceReplayer(ColumnarTrace(app_name="t"), config())
    assert MAIN_CLASS in replayer.pinned_nodes()
