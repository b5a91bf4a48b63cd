"""Byte accounting of static field accesses in ``ExecutionContext``.

Static fields always live on the client (section 3.2), so a static
access from an offloaded method crosses the link.  These tests pin the
exact wire costs: a read ships an empty request and a value-sized
response, a write ships a value-sized request and an empty response,
and a ``None`` value falls back to one reference slot instead of its
marshalled deep size.
"""

import pytest

from repro.rpc.marshal import deep_size, message_size
from repro.vm.hooks import ExecutionListener
from repro.vm.objectmodel import SLOT_SIZES

from tests.helpers import make_platform


class AccessRecorder(ExecutionListener):
    def __init__(self):
        self.records = []

    def on_access(self, record):
        self.records.append(record)


@pytest.fixture
def platform():
    platform = make_platform()
    platform.registry.define("s.Conf") \
        .field("limit", "int", static=True, default=5) \
        .field("title", "ref", static=True, default="configuration") \
        .field("handle", "ref", static=True, default=None) \
        .register()

    def read_limit(ctx, self_obj):
        return ctx.get_static("s.Conf", "limit")

    def write_limit(ctx, self_obj, value):
        ctx.set_static("s.Conf", "limit", value)

    def read_title(ctx, self_obj):
        return ctx.get_static("s.Conf", "title")

    def read_handle(ctx, self_obj):
        return ctx.get_static("s.Conf", "handle")

    def noop(ctx, self_obj):
        return 5

    def noop_write(ctx, self_obj, value):
        return None

    platform.registry.define("s.Reader") \
        .method("read", func=read_limit) \
        .method("write", func=write_limit) \
        .method("read_title", func=read_title) \
        .method("read_handle", func=read_handle) \
        .method("noop", func=noop) \
        .method("noop_write", func=noop_write) \
        .register()
    recorder = AccessRecorder()
    platform.hooks.add(recorder)
    platform.recorder = recorder
    return platform


def offloaded_reader(platform):
    reader = platform.ctx.new("s.Reader")
    platform.client.vm.set_root("reader", reader)
    platform.migrator.apply_placement(frozenset({"s.Reader"}))
    return reader


def static_records(platform):
    return [r for r in platform.recorder.records if r.is_static]


class TestRemoteStaticAccounting:
    def invoke_wire_cost(self, platform, reader, method, *args):
        """RPC bytes one remote invocation adds to the link."""
        before = platform.traffic.category("rpc").bytes
        platform.ctx.invoke(reader, method, *args)
        return platform.traffic.category("rpc").bytes - before

    def test_remote_read_ships_empty_request_and_value_response(self, platform):
        reader = offloaded_reader(platform)
        baseline = self.invoke_wire_cost(platform, reader, "noop")
        messages_before = platform.traffic.messages
        with_read = self.invoke_wire_cost(platform, reader, "read")
        # The static read adds exactly two messages on top of the two
        # invocation messages: an empty request to the client and a
        # value-sized response back to the surrogate.
        assert platform.traffic.messages == messages_before + 4
        static_cost = message_size(0) + message_size(deep_size(5))
        assert with_read - baseline == static_cost

    def test_remote_read_of_string_uses_deep_size(self, platform):
        reader = offloaded_reader(platform)
        assert platform.ctx.invoke(reader, "read_title") == "configuration"
        record = static_records(platform)[-1]
        assert not record.is_write
        assert record.value_bytes == deep_size("configuration")
        assert record.value_bytes > SLOT_SIZES["ref"]

    def test_remote_write_ships_value_request_and_empty_response(self, platform):
        reader = offloaded_reader(platform)
        # noop_write takes the same argument and returns None, so the
        # only wire difference is the static write itself.
        noop_cost = self.invoke_wire_cost(platform, reader, "noop_write", 9)
        write_cost = self.invoke_wire_cost(platform, reader, "write", 9)
        record = static_records(platform)[-1]
        assert record.is_write
        assert record.value_bytes == deep_size(9)
        static_cost = message_size(deep_size(9)) + message_size(0)
        assert write_cost - noop_cost == static_cost

    def test_none_value_falls_back_to_ref_slot(self, platform):
        reader = offloaded_reader(platform)
        assert platform.ctx.invoke(reader, "read_handle") is None
        record = static_records(platform)[-1]
        assert not record.is_write
        assert record.value_bytes == SLOT_SIZES["ref"]

    def test_access_record_fields(self, platform):
        reader = offloaded_reader(platform)
        platform.ctx.invoke(reader, "read")
        record = static_records(platform)[-1]
        assert record.accessor_class == "s.Reader"
        assert record.owner_class == "s.Conf"
        assert record.owner_oid is None
        assert record.field == "limit"
        assert record.is_static
        assert record.remote
        assert record.accessor_site == "surrogate"
        assert record.exec_site == "client"


class TestLocalStaticAccounting:
    def test_client_side_access_is_free_and_not_remote(self, platform):
        before = platform.traffic.bytes
        assert platform.ctx.get_static("s.Conf", "limit") == 5
        platform.ctx.set_static("s.Conf", "limit", 6)
        assert platform.traffic.bytes == before
        reads = static_records(platform)
        assert len(reads) == 2
        assert all(not r.remote for r in reads)
        assert all(r.accessor_site == r.exec_site == "client" for r in reads)
