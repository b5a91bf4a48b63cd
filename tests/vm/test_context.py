"""Unit tests for the execution context on a single VM."""

import pytest

from repro.config import DeviceProfile, GCConfig, VMConfig
from repro.errors import GuestError, NullReferenceError, StaleObjectError
from repro.vm.hooks import ExecutionListener
from repro.vm.objectmodel import MethodKind
from repro.vm.session import LocalSession


class RecordingListener(ExecutionListener):
    def __init__(self):
        self.allocs = []
        self.invokes = []
        self.accesses = []
        self.cpu = []
        self.gc_reports = []
        self.frees = []

    def on_alloc(self, obj, site, creator):
        self.allocs.append((obj.class_name, site))

    def on_invoke(self, record):
        self.invokes.append(record)

    def on_access(self, record):
        self.accesses.append(record)

    def on_cpu(self, class_name, site, seconds):
        self.cpu.append((class_name, site, seconds))

    def on_gc_report(self, report, site):
        self.gc_reports.append(report)

    def on_free(self, obj):
        self.frees.append(obj)


def make_session(heap_capacity=256 * 1024, monitoring=True):
    config = VMConfig(
        device=DeviceProfile("pc", cpu_speed=1.0, heap_capacity=heap_capacity),
        gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
        monitoring_enabled=monitoring,
        monitoring_event_cost=0.0,
    )
    session = LocalSession(config)
    listener = RecordingListener()
    session.add_listener(listener)
    return session, listener


def define_counter(session):
    def increment(ctx, self_obj, amount):
        current = ctx.get_field(self_obj, "count")
        ctx.set_field(self_obj, "count", current + amount)
        return current + amount

    session.registry.define("t.Counter") \
        .field("count", "int", default=0) \
        .method("increment", func=increment, cpu_cost=1e-3) \
        .register()


class TestInvocation:
    def test_invoke_runs_body_and_returns(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        assert session.ctx.invoke(obj, "increment", 5) == 5
        assert session.ctx.invoke(obj, "increment", 2) == 7

    def test_invoke_records_interaction(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        session.ctx.invoke(obj, "increment", 5)
        record = listener.invokes[-1]
        assert record.caller_class == "<main>"
        assert record.callee_class == "t.Counter"
        assert record.method == "increment"
        assert record.arg_bytes == 8
        assert record.ret_bytes == 8
        assert not record.remote

    def test_declared_cpu_cost_advances_clock(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        before = session.clock.now
        session.ctx.invoke(obj, "increment", 1)
        assert session.clock.now - before >= 1e-3

    def test_cpu_attributed_to_callee_class(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        session.ctx.invoke(obj, "increment", 1)
        assert ("t.Counter", "client", 1e-3) in listener.cpu

    def test_nested_invocations_attribute_to_inner_class(self):
        session, listener = make_session()

        def outer(ctx, self_obj):
            ctx.work(0.02)
            ctx.invoke(ctx.get_field(self_obj, "helper"), "assist")

        def inner(ctx, self_obj):
            ctx.work(0.10)

        session.registry.define("t.Outer") \
            .field("helper") \
            .method("run", func=outer) \
            .register()
        session.registry.define("t.Helper") \
            .method("assist", func=inner) \
            .register()
        helper = session.ctx.new("t.Helper")
        outer_obj = session.ctx.new("t.Outer", helper=helper)
        session.ctx.invoke(outer_obj, "run")
        # Figure 9 semantics: outer gets only its own 0.02s, inner gets 0.10s.
        outer_cpu = sum(s for c, _, s in listener.cpu if c == "t.Outer")
        helper_cpu = sum(s for c, _, s in listener.cpu if c == "t.Helper")
        assert outer_cpu == pytest.approx(0.02)
        assert helper_cpu == pytest.approx(0.10)

    def test_invoke_on_null_rejected(self):
        session, _ = make_session()
        with pytest.raises(NullReferenceError):
            session.ctx.invoke(None, "anything")

    def test_invoke_on_collected_object_rejected(self):
        session, _ = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        # Displace the top-level allocation register so obj is unrooted.
        session.ctx.new("t.Counter")
        session.vm.collect_garbage()
        assert not obj.alive
        with pytest.raises(StaleObjectError):
            session.ctx.invoke(obj, "increment", 1)

    def test_invoke_static_on_instance_method_rejected(self):
        session, _ = make_session()
        define_counter(session)
        with pytest.raises(GuestError):
            session.ctx.invoke_static("t.Counter", "increment", 1)

    def test_static_method_invocation(self):
        session, listener = make_session()
        session.registry.define("t.Util") \
            .static_method("double", func=lambda ctx, _none, x: 2 * x) \
            .register()
        assert session.ctx.invoke_static("t.Util", "double", 21) == 42
        assert listener.invokes[-1].kind == MethodKind.STATIC.value


class TestFieldAccess:
    def test_get_and_set_field(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter", count=5)
        assert session.ctx.get_field(obj, "count") == 5
        session.ctx.set_field(obj, "count", 9)
        assert session.ctx.get_field(obj, "count") == 9

    def test_access_records_have_direction(self):
        session, listener = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        session.ctx.get_field(obj, "count")
        session.ctx.set_field(obj, "count", 3)
        read, write = listener.accesses[-2:]
        assert not read.is_write
        assert write.is_write
        assert read.owner_class == "t.Counter"

    def test_static_field_routed_via_class(self):
        session, listener = make_session()
        session.registry.define("t.Conf") \
            .field("limit", "int", static=True, default=1) \
            .register()
        assert session.ctx.get_static("t.Conf", "limit") == 1
        session.ctx.set_static("t.Conf", "limit", 3)
        assert session.ctx.get_static("t.Conf", "limit") == 3
        assert all(a.is_static for a in listener.accesses)

    def test_instance_access_to_declared_static_field_delegates(self):
        session, _ = make_session()
        session.registry.define("t.Mixed") \
            .field("shared", "int", static=True, default=4) \
            .field("own", "int", default=0) \
            .register()
        obj = session.ctx.new("t.Mixed")
        assert session.ctx.get_field(obj, "shared") == 4
        session.ctx.set_field(obj, "shared", 6)
        assert session.ctx.get_static("t.Mixed", "shared") == 6

    def test_new_rejects_a_static_field_initialiser(self):
        session, listener = make_session()
        session.registry.define("t.C") \
            .field("x", "int", default=0) \
            .field("S", "int", static=True) \
            .register()
        with pytest.raises(GuestError, match=r"t\.C\.S is a static field"):
            session.ctx.new("t.C", x=1, S=5)
        # Nothing was allocated, and the static keeps its value.
        assert listener.allocs == []
        assert session.ctx.get_static("t.C", "S") is None
        obj = session.ctx.new("t.C", x=1)
        assert obj.values == {"x": 1}


class TestArrays:
    def test_array_bulk_access_records_bytes(self):
        session, listener = make_session()
        arr = session.ctx.new_array("char", 1000)
        session.ctx.array_write(arr, 300)
        session.ctx.array_read(arr, 100)
        write, read = listener.accesses[-2:]
        assert write.value_bytes == 600
        assert read.value_bytes == 200
        assert write.owner_class == "char[]"

    def test_zero_count_access_is_silent(self):
        session, listener = make_session()
        arr = session.ctx.new_array("int", 10)
        session.ctx.array_read(arr, 0)
        assert listener.accesses == []

    def test_negative_count_rejected(self):
        session, _ = make_session()
        arr = session.ctx.new_array("int", 10)
        with pytest.raises(GuestError):
            session.ctx.array_read(arr, -1)


class TestFramesAndGC:
    def test_frame_locals_survive_collection(self):
        session, _ = make_session()
        define_counter(session)

        def allocator(ctx, self_obj):
            temp = ctx.new("t.Counter")
            ctx.runtime.client().collect_garbage()
            # The temporary is a frame local, so it must survive.
            assert temp.alive
            return ctx.get_field(temp, "count")

        session.registry.define("t.Allocator") \
            .method("run", func=allocator) \
            .register()
        root = session.ctx.new("t.Allocator")
        session.vm.set_root("app", root)
        assert session.ctx.invoke(root, "run") == 0

    def test_unrooted_temporary_dies_after_frame_pop(self):
        session, _ = make_session()
        define_counter(session)

        def allocator(ctx, self_obj):
            ctx.new("t.Counter")

        session.registry.define("t.Allocator") \
            .method("run", func=allocator) \
            .register()
        root = session.ctx.new("t.Allocator")
        session.vm.set_root("app", root)
        session.ctx.invoke(root, "run")
        live_before = session.vm.heap.live_count
        session.vm.collect_garbage()
        assert session.vm.heap.live_count == live_before - 1

    def test_gc_report_delivered_through_hooks(self):
        session, listener = make_session()
        session.vm.collect_garbage()
        assert len(listener.gc_reports) == 1


class TestMonitoringGate:
    def test_monitoring_off_suppresses_records(self):
        session, listener = make_session(monitoring=False)
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        session.ctx.invoke(obj, "increment", 1)
        assert listener.invokes == []
        assert listener.allocs == []
        assert listener.accesses == []

    def test_monitoring_event_cost_charged(self):
        config = VMConfig(
            device=DeviceProfile("pc", heap_capacity=256 * 1024),
            gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
            monitoring_event_cost=1e-3,
        )
        session = LocalSession(config)
        define_counter(session)
        before = session.clock.now
        obj = session.ctx.new("t.Counter")
        after_alloc = session.clock.now
        assert after_alloc - before >= 1e-3

    def test_retain_keeps_object_alive_inside_frame(self):
        session, _ = make_session()
        define_counter(session)
        obj = session.ctx.new("t.Counter")
        assert session.ctx.retain(obj) is obj
