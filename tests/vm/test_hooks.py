"""Unit tests for the hook fanout."""

from repro.vm.gc import GCReport
from repro.vm.hooks import (
    HOOKS,
    AccessRecord,
    ExecutionListener,
    HookFanout,
    InvokeRecord,
)
from repro.vm.objectmodel import ClassBuilder, JObject


class Recorder(ExecutionListener):
    def __init__(self):
        self.calls = []

    def on_alloc(self, obj, site, creator):
        self.calls.append(("alloc", obj.oid, site, creator))

    def on_free(self, obj):
        self.calls.append(("free", obj.oid))

    def on_invoke(self, record):
        self.calls.append(("invoke", record.method))

    def on_access(self, record):
        self.calls.append(("access", record.field))

    def on_cpu(self, class_name, site, seconds):
        self.calls.append(("cpu", class_name, seconds))

    def on_gc_report(self, report, site):
        self.calls.append(("gc", report.cycle))


def sample_invoke():
    return InvokeRecord(
        caller_class="a", caller_oid=None, callee_class="b",
        callee_oid=None, method="m", kind="instance",
        native_stateless=False, arg_bytes=0, ret_bytes=0,
        cpu_seconds=0.0, caller_site="client", exec_site="client",
        remote=False,
    )


def sample_access():
    return AccessRecord(
        accessor_class="a", accessor_oid=None, owner_class="b",
        owner_oid=None, field="f", value_bytes=8, is_write=False,
        is_static=False, accessor_site="client", exec_site="client",
        remote=False,
    )


class TestHookFanout:
    def test_broadcast_order_and_coverage(self):
        fanout = HookFanout()
        first, second = Recorder(), Recorder()
        fanout.add(first)
        fanout.add(second)
        obj = JObject(ClassBuilder("t.A").build(), "client")
        fanout.on_alloc(obj, "client", "<main>")
        fanout.on_free(obj)
        fanout.on_invoke(sample_invoke())
        fanout.on_access(sample_access())
        fanout.on_cpu("t.A", "client", 0.5)
        fanout.on_gc_report(
            GCReport(cycle=1, reason="t", live_objects=0,
                     freed_objects=0, freed_bytes=0, used_bytes=0,
                     free_bytes=1, capacity=1), "client")
        assert first.calls == second.calls
        assert [c[0] for c in first.calls] == [
            "alloc", "free", "invoke", "access", "cpu", "gc",
        ]
        assert len(first.calls) == len(HOOKS)

    def test_remove_stops_delivery(self):
        fanout = HookFanout()
        listener = Recorder()
        fanout.add(listener)
        fanout.remove(listener)
        fanout.on_cpu("t.A", "client", 1.0)
        assert listener.calls == []

    def test_base_listener_methods_are_noops(self):
        listener = ExecutionListener()
        listener.on_cpu("x", "client", 1.0)
        listener.on_invoke(sample_invoke())
        listener.on_access(sample_access())
        listener.on_alloc(JObject(ClassBuilder("t.A").build(), "client"),
                          "client", "<main>")

    def test_invoke_record_native_flag(self):
        record = sample_invoke()
        assert not record.is_native

    def test_single_listener_fast_path(self):
        fanout = HookFanout()
        listener = Recorder()
        fanout.add(listener)
        fanout.on_invoke(sample_invoke())
        fanout.on_cpu("t.A", "client", 0.5)
        fanout.on_access(sample_access())
        assert [c[0] for c in listener.calls] == ["invoke", "cpu", "access"]

    def test_fast_path_tracks_add_and_remove(self):
        fanout = HookFanout()
        first, second = Recorder(), Recorder()
        fanout.add(first)
        fanout.add(second)  # two listeners: broadcast path
        fanout.on_cpu("t.A", "client", 1.0)
        fanout.remove(first)  # back to one: fast path again
        fanout.on_cpu("t.B", "client", 2.0)
        fanout.remove(second)  # zero listeners: nothing delivered
        fanout.on_cpu("t.C", "client", 3.0)
        assert first.calls == [("cpu", "t.A", 1.0)]
        assert second.calls == [("cpu", "t.A", 1.0), ("cpu", "t.B", 2.0)]


class TestSlottedRecords:
    def test_records_have_no_instance_dict(self):
        assert not hasattr(sample_invoke(), "__dict__")
        assert not hasattr(sample_access(), "__dict__")

    def test_records_compare_by_value(self):
        assert sample_invoke() == sample_invoke()
        assert sample_access() == sample_access()
        assert hash(sample_invoke()) == hash(sample_invoke())
        assert sample_invoke() != sample_access()

    def test_record_repr_names_fields(self):
        text = repr(sample_invoke())
        assert text.startswith("InvokeRecord(")
        assert "method='m'" in text


class CpuOnly(ExecutionListener):
    def __init__(self, log, name):
        self.log, self.name = log, name

    def on_cpu(self, class_name, site, seconds):
        self.log.append((self.name, "cpu", class_name))


class AccessOnly(ExecutionListener):
    def __init__(self, log, name):
        self.log, self.name = log, name

    def on_access(self, record):
        self.log.append((self.name, "access", record.field))


class TestPerHookFanout:
    def test_each_hook_holds_only_its_overriders_in_add_order(self):
        fanout = HookFanout()
        log = []
        cpu, access, full = CpuOnly(log, "c"), AccessOnly(log, "a"), Recorder()
        second_cpu = CpuOnly(log, "c2")
        for listener in (cpu, access, full, second_cpu):
            fanout.add(listener)
        assert fanout._on_cpu == (cpu.on_cpu, full.on_cpu, second_cpu.on_cpu)
        assert fanout._on_access == (access.on_access, full.on_access)
        assert fanout._on_alloc == (full.on_alloc,)
        assert fanout._on_free == (full.on_free,)
        fanout.on_cpu("t.A", "client", 1.0)
        fanout.on_access(sample_access())
        assert log == [("c", "cpu", "t.A"), ("c2", "cpu", "t.A"),
                       ("a", "access", "f")]
        assert full.calls == [("cpu", "t.A", 1.0), ("access", "f")]

    def test_a_hook_nobody_overrides_is_empty(self):
        fanout = HookFanout()
        fanout.add(CpuOnly([], "c"))
        assert fanout._on_free == ()
        fanout.on_free(JObject(ClassBuilder("t.A").build(), "client"))

    def test_an_instance_override_counts(self):
        fanout = HookFanout()
        listener = ExecutionListener()
        seen = []
        listener.on_cpu = lambda class_name, site, seconds: seen.append(
            class_name)
        fanout.add(listener)
        fanout.on_cpu("t.A", "client", 1.0)
        assert seen == ["t.A"]

    def test_add_and_remove_take_effect_on_the_next_event(self):
        fanout = HookFanout()
        log = []
        first, second = CpuOnly(log, "1"), CpuOnly(log, "2")
        fanout.add(first)
        fanout.on_cpu("t.A", "client", 1.0)
        fanout.add(second)
        fanout.on_cpu("t.B", "client", 1.0)
        fanout.remove(first)
        fanout.on_cpu("t.C", "client", 1.0)
        fanout.remove(second)
        fanout.on_cpu("t.D", "client", 1.0)
        assert log == [("1", "cpu", "t.A"), ("1", "cpu", "t.B"),
                       ("2", "cpu", "t.B"), ("2", "cpu", "t.C")]

    def test_a_listener_added_inside_a_hook_starts_on_the_next_event(self):
        fanout = HookFanout()
        late = Recorder()

        class Adder(ExecutionListener):
            def on_cpu(self, class_name, site, seconds):
                if late not in fanout.listeners:
                    fanout.add(late)

        fanout.add(Adder())
        fanout.on_cpu("t.A", "client", 1.0)
        fanout.on_cpu("t.B", "client", 2.0)
        assert late.calls == [("cpu", "t.B", 2.0)]

    def test_a_listener_added_mid_run_starts_receiving_hooks(self):
        from repro.config import VMConfig
        from repro.vm.session import LocalSession

        session = LocalSession(VMConfig(monitoring_event_cost=0.0))
        session.registry.define("t.Cell").field("x", "int").register()
        ctx = session.ctx
        early = Recorder()
        session.add_listener(early)
        first = ctx.new("t.Cell")
        late = Recorder()
        session.add_listener(late)
        ctx.set_global("cell", first)
        second = ctx.new("t.Cell")
        ctx.set_field(second, "x", 3)
        ctx.work(1e-3)
        assert [c[0] for c in late.calls] == ["alloc", "access", "cpu"]
        assert early.calls[-3:] == late.calls
        assert early.calls[0] == ("alloc", first.oid, "client", "<main>")


class TestDirectDelivery:
    """A hook with one overrider is that listener's bound method; with
    none it is the base no-op; with several the fanout broadcasts."""

    def test_a_single_overrider_is_bound_directly(self):
        fanout = HookFanout()
        listener = CpuOnly([], "c")
        fanout.add(listener)
        assert fanout.on_cpu == listener.on_cpu
        assert fanout.on_cpu.__self__ is listener

    def test_a_hook_with_no_overrider_delivers_nothing(self):
        fanout = HookFanout()
        log = []
        fanout.add(CpuOnly(log, "c"))
        assert fanout.on_access.__func__ is ExecutionListener.on_access
        fanout.on_access(sample_access())
        assert log == []

    def test_two_overriders_broadcast_in_add_order(self):
        fanout = HookFanout()
        log = []
        fanout.add(CpuOnly(log, "1"))
        fanout.add(CpuOnly(log, "2"))
        assert fanout.on_cpu.__func__ is HookFanout.on_cpu
        fanout.on_cpu("t.A", "client", 1.0)
        assert log == [("1", "cpu", "t.A"), ("2", "cpu", "t.A")]

    def test_binding_follows_add_and_remove(self):
        fanout = HookFanout()
        first, second = CpuOnly([], "1"), CpuOnly([], "2")
        fanout.add(first)
        fanout.add(second)
        fanout.remove(first)
        assert fanout.on_cpu.__self__ is second
        fanout.remove(second)
        assert fanout.on_cpu.__func__ is ExecutionListener.on_cpu

    def test_a_fanout_nested_in_a_fanout(self):
        outer, inner = HookFanout(), HookFanout()
        log = []
        outer.add(inner)
        outer.on_cpu("t.A", "client", 1.0)  # inner has no listener yet
        inner.add(CpuOnly(log, "1"))
        inner.add(CpuOnly(log, "2"))
        outer.remove(inner)
        outer.add(inner)
        outer.on_cpu("t.B", "client", 1.0)
        assert log == [("1", "cpu", "t.B"), ("2", "cpu", "t.B")]

    def test_a_listener_added_after_the_session_receives_frees(self):
        from repro.config import VMConfig
        from repro.vm.session import LocalSession

        session = LocalSession(VMConfig(monitoring_event_cost=0.0))
        session.registry.define("t.Cell").field("x", "int").register()
        garbage = session.ctx.new("t.Cell")
        session.ctx.new("t.Cell")  # no longer the last allocation
        listener = Recorder()
        session.add_listener(listener)
        session.vm.collect_garbage()
        assert ("free", garbage.oid) in listener.calls
