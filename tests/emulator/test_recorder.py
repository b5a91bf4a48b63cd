"""Unit tests for trace recording against a live session."""

import pytest

from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.emulator.recorder import record_application
from repro.errors import GuestError
from repro.vm.natives import MATH_CLASS


class TinyApp:
    """Two classes, one native call, one garbage object."""

    name = "tiny"

    def install(self, registry):
        if registry.has_class("t.Worker"):
            return

        def run(ctx, self_obj, amount):
            ctx.work(0.5)
            buffer = ctx.get_field(self_obj, "buffer")
            ctx.array_write(buffer, amount)
            ctx.invoke_static(MATH_CLASS, "sqrt", float(amount))
            ctx.new("t.Temp")  # garbage
            return amount

        registry.define("t.Worker") \
            .field("buffer") \
            .method("run", func=run, cpu_cost=1e-3) \
            .register()
        registry.define("t.Temp").register()

    def main(self, ctx):
        buffer = ctx.new_array("int", 100)
        ctx.set_global("buffer", buffer)
        worker = ctx.new("t.Worker", buffer=buffer)
        ctx.set_global("worker", worker)
        for amount in (10, 20):
            ctx.invoke(worker, "run", amount)


@pytest.fixture(scope="module")
def trace():
    return record_application(TinyApp())


class TestRecording:
    def test_all_event_kinds_present(self, trace):
        kinds = {type(e) for e in trace}
        assert {AllocEvent, FreeEvent, InvokeEvent, AccessEvent,
                WorkEvent} <= kinds

    def test_app_name_captured(self, trace):
        assert trace.app_name == "tiny"

    def test_class_traits_captured(self, trace):
        assert trace.class_traits["t.Worker"] == {
            "native": False, "stateful_native": False
        }
        assert trace.class_traits[MATH_CLASS]["native"]
        assert not trace.class_traits[MATH_CLASS]["stateful_native"]

    def test_allocations_name_their_creator(self, trace):
        creators = {
            e.class_name: e.creator_class
            for e in trace if isinstance(e, AllocEvent)
        }
        # The temp objects are created inside Worker.run.
        assert creators["t.Temp"] == "t.Worker"
        # The buffer is created at top level.
        assert creators["int[]"] == "<main>"

    def test_garbage_appears_in_free_stream(self, trace):
        temp_oids = {
            e.oid for e in trace
            if isinstance(e, AllocEvent) and e.class_name == "t.Temp"
        }
        freed = {e.oid for e in trace if isinstance(e, FreeEvent)}
        assert temp_oids <= freed

    def test_native_invocations_flagged(self, trace):
        natives = [
            e for e in trace
            if isinstance(e, InvokeEvent) and e.is_native
        ]
        assert natives
        assert all(e.callee_class == MATH_CLASS for e in natives)
        assert all(e.stateless for e in natives)

    def test_work_events_capture_declared_and_explicit_cpu(self, trace):
        worker_cpu = sum(
            e.seconds for e in trace
            if isinstance(e, WorkEvent) and e.class_name == "t.Worker"
        )
        # Two runs: 2 x (0.5 explicit + 1e-3 declared).
        assert worker_cpu == pytest.approx(2 * 0.501)

    def test_trace_is_deterministic(self):
        first = record_application(TinyApp())
        second = record_application(TinyApp())
        assert len(first) == len(second)
        assert [e.kind for e in first] == [e.kind for e in second]


class ThrowingApp:
    """A guest method allocates and then raises; ``main`` catches the
    error and allocates again."""

    name = "thrower"

    def install(self, registry):
        if registry.has_class("t.Thrower"):
            return

        def explode(ctx, self_obj):
            ctx.new("t.Temp")
            raise GuestError("boom")

        registry.define("t.Thrower").method("explode", func=explode) \
            .register()
        registry.define("t.Temp").register()
        registry.define("t.After").register()

    def main(self, ctx):
        thrower = ctx.new("t.Thrower")
        ctx.set_global("thrower", thrower)
        try:
            ctx.invoke(thrower, "explode")
        except GuestError:
            pass
        ctx.new("t.After")


def test_the_creator_after_a_caught_guest_error_is_the_catcher():
    trace = record_application(ThrowingApp())
    creators = {
        e.class_name: e.creator_class
        for e in trace if isinstance(e, AllocEvent)
    }
    assert creators["t.Temp"] == "t.Thrower"
    # The unwound frame no longer creates anything.
    assert creators["t.After"] == "<main>"
