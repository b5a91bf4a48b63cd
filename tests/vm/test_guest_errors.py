"""The error contract of the guest entry points.

``get_field``, ``set_field``, ``array_read``, ``array_write``,
``invoke`` and ``invoke_static`` each check their target and member
before they touch the recorder, the clock or the collector.  These pin
the exception type and the exact message of every check, the order the
checks run in, and that a raising call leaves no trace: no hook event
and no virtual time (the session charges every monitored event, so a
stray event would move the clock).
"""

import pytest

from repro.config import DeviceProfile, GCConfig, VMConfig
from repro.errors import (
    GuestError,
    NoSuchClassError,
    NoSuchFieldError,
    NoSuchMethodError,
    NullReferenceError,
    StaleObjectError,
)
from repro.vm.hooks import HOOKS, ExecutionListener
from repro.vm.session import LocalSession


class EventLog(ExecutionListener):
    """Every hook event, in order, as ``(hook name, args)``."""

    def __init__(self):
        self.events = []
        for name in HOOKS:
            setattr(self, name, self._recorder(name))

    def _recorder(self, name):
        def record(*args):
            self.events.append((name, args))
        return record


def make_session():
    config = VMConfig(
        device=DeviceProfile("pc", cpu_speed=1.0, heap_capacity=256 * 1024),
        gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
        monitoring_event_cost=1e-3,
    )
    session = LocalSession(config)
    session.registry.define("t.Doc") \
        .field("title", "ref", default="draft") \
        .field("words", "int", default=0) \
        .field("limit", "int", static=True, default=5) \
        .method("increment", func=lambda ctx, me: None, cpu_cost=1e-3) \
        .static_method("make", func=lambda ctx, me: None) \
        .register()
    log = EventLog()
    session.add_listener(log)
    return session, log


def collected(session, make):
    """An object ``make`` allocated, reclaimed by a collection."""
    obj = make()
    # A top-level allocation is a root until the next one replaces it.
    session.ctx.new("t.Doc")
    session.vm.collect_garbage()
    assert not obj.alive
    return obj


def doc(session):
    obj = session.ctx.new("t.Doc")
    session.ctx.set_global("doc", obj)
    return obj


def array(session):
    arr = session.ctx.new_array("int", 10)
    session.ctx.set_global("arr", arr)
    return arr


#: Each entry point, called on a target with a member name (``None``
#: where the entry point takes none).
CALLS = {
    "get_field": lambda ctx, target, name: ctx.get_field(target, name),
    "set_field": lambda ctx, target, name: ctx.set_field(target, name, 1),
    "array_read": lambda ctx, target, name: ctx.array_read(target, 3),
    "array_write": lambda ctx, target, name: ctx.array_write(target, 3),
    "invoke": lambda ctx, target, name: ctx.invoke(target, name),
}

FIELD_OPS = ("get_field", "set_field")
ARRAY_OPS = ("array_read", "array_write")


def assert_raises_quietly(session, log, call, error, message):
    """``call`` raises exactly ``error(message)``, recording no event
    and moving no clock."""
    before_events = len(log.events)
    before_now = session.clock.now
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert log.events[before_events:] == []
    assert session.clock.now == before_now


# -- null targets -------------------------------------------------------------

NULL_MESSAGES = {
    "get_field": "field access 'title' on null",
    "set_field": "field access 'title' on null",
    "array_read": "array access on null",
    "array_write": "array access on null",
    "invoke": "invoke of 'increment' on null",
}


@pytest.mark.parametrize("op", sorted(NULL_MESSAGES))
def test_a_null_target_raises(op):
    session, log = make_session()
    name = "increment" if op == "invoke" else "title"
    assert_raises_quietly(
        session, log, lambda: CALLS[op](session.ctx, None, name),
        NullReferenceError, NULL_MESSAGES[op])


@pytest.mark.parametrize("op", FIELD_OPS + ("invoke",))
def test_a_null_target_is_checked_before_the_member_name(op):
    session, log = make_session()
    assert_raises_quietly(
        session, log, lambda: CALLS[op](session.ctx, None, "bogus"),
        NullReferenceError,
        "invoke of 'bogus' on null" if op == "invoke"
        else "field access 'bogus' on null")


# -- collected targets --------------------------------------------------------

@pytest.mark.parametrize("op", FIELD_OPS + ARRAY_OPS + ("invoke",))
def test_a_collected_target_raises(op):
    session, log = make_session()
    if op in ARRAY_OPS:
        target = collected(session, lambda: session.ctx.new_array("int", 10))
        message = f"array access on collected array {target!r}"
    else:
        target = collected(session, lambda: session.ctx.new("t.Doc"))
        message = (f"invoke on collected object {target!r}" if op == "invoke"
                   else f"field access on collected object {target!r}")
    name = "increment" if op == "invoke" else "title"
    assert_raises_quietly(
        session, log, lambda: CALLS[op](session.ctx, target, name),
        StaleObjectError, message)


@pytest.mark.parametrize("op", FIELD_OPS + ("invoke",))
def test_a_collected_target_is_checked_before_the_member_name(op):
    session, log = make_session()
    target = collected(session, lambda: session.ctx.new("t.Doc"))
    assert_raises_quietly(
        session, log, lambda: CALLS[op](session.ctx, target, "bogus"),
        StaleObjectError,
        f"invoke on collected object {target!r}" if op == "invoke"
        else f"field access on collected object {target!r}")


def test_a_collected_target_of_a_static_field_raises():
    session, log = make_session()
    target = collected(session, lambda: session.ctx.new("t.Doc"))
    assert_raises_quietly(
        session, log, lambda: session.ctx.get_field(target, "limit"),
        StaleObjectError, f"field access on collected object {target!r}")


# -- unknown member names -----------------------------------------------------

@pytest.mark.parametrize("op,name,error,message", [
    ("get_field", "titel", NoSuchFieldError,
     "t.Doc.titel (did you mean 'title'?)"),
    ("set_field", "wrods", NoSuchFieldError,
     "t.Doc.wrods (did you mean 'words'?)"),
    ("get_field", "zzz", NoSuchFieldError, "t.Doc.zzz"),
    ("set_field", "zzz", NoSuchFieldError, "t.Doc.zzz"),
    ("invoke", "incremnt", NoSuchMethodError,
     "t.Doc.incremnt (did you mean 'increment'?)"),
    ("invoke", "zzz", NoSuchMethodError, "t.Doc.zzz"),
])
def test_an_unknown_member_raises_with_its_hint(op, name, error, message):
    session, log = make_session()
    target = doc(session)
    assert_raises_quietly(
        session, log, lambda: CALLS[op](session.ctx, target, name),
        error, message)


def test_an_unknown_field_leaves_the_target_unchanged():
    session, log = make_session()
    target = doc(session)
    before = dict(target.values)
    with pytest.raises(NoSuchFieldError):
        session.ctx.set_field(target, "titel", "x")
    assert target.values == before


@pytest.mark.parametrize("class_name,name,error,message", [
    ("t.Doc", "mkae", NoSuchMethodError,
     "t.Doc.mkae (did you mean 'make'?)"),
    ("t.Doc", "zzz", NoSuchMethodError, "t.Doc.zzz"),
    ("t.Dco", "make", NoSuchClassError,
     "t.Dco (did you mean 't.Doc'?)"),
])
def test_invoke_static_of_an_unknown_member_raises(class_name, name, error,
                                                   message):
    session, log = make_session()
    assert_raises_quietly(
        session, log,
        lambda: session.ctx.invoke_static(class_name, name),
        error, message)


def test_invoke_static_of_an_instance_method_raises():
    session, log = make_session()
    assert_raises_quietly(
        session, log,
        lambda: session.ctx.invoke_static("t.Doc", "increment"),
        GuestError,
        "t.Doc.increment is an instance method; use invoke() with a "
        "receiver")


# -- static fields through an instance ---------------------------------------

def test_a_static_field_read_through_an_instance_is_a_static_read():
    session, log = make_session()
    target = doc(session)
    before = len(log.events)
    assert session.ctx.get_field(target, "limit") == 5
    (name, (record,)), = log.events[before:]
    assert name == "on_access"
    assert record.is_static and not record.is_write
    assert record.owner_oid is None
    assert "limit" not in target.values


def test_a_static_field_written_through_an_instance_is_a_static_write():
    session, log = make_session()
    target = doc(session)
    before = len(log.events)
    session.ctx.set_field(target, "limit", 9)
    (name, (record,)), = log.events[before:]
    assert name == "on_access"
    assert record.is_static and record.is_write
    assert "limit" not in target.values
    assert session.ctx.get_static("t.Doc", "limit") == 9


# -- element counts -----------------------------------------------------------

@pytest.mark.parametrize("op", ARRAY_OPS)
@pytest.mark.parametrize("count", [-1, -10])
def test_a_negative_count_raises(op, count):
    session, log = make_session()
    arr = array(session)
    method = getattr(session.ctx, op)
    assert_raises_quietly(
        session, log, lambda: method(arr, count),
        GuestError, f"negative element count {count}")


@pytest.mark.parametrize("op", ARRAY_OPS)
def test_a_zero_count_is_silent(op):
    session, log = make_session()
    arr = array(session)
    before_events = len(log.events)
    before_now = session.clock.now
    assert getattr(session.ctx, op)(arr, 0) is None
    assert log.events[before_events:] == []
    assert session.clock.now == before_now


@pytest.mark.parametrize("op", ARRAY_OPS)
def test_a_zero_count_on_a_null_array_still_raises(op):
    session, log = make_session()
    method = getattr(session.ctx, op)
    assert_raises_quietly(
        session, log, lambda: method(None, 0),
        NullReferenceError, "array access on null")
