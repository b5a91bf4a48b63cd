"""The guest context's one access recorder, on a live platform.

Instance, static and array accesses take one route: the remote test,
the read cache, the coalescer or a naive transfer pair, the hook
record.  These pin its cache and charging rules: the owner writing its
own instance or static field makes the peer's cached copy stale, arrays
never touch the cache, and with the data plane off a local write
charges nothing.
"""

import pytest

from repro.rpc.batch import DataPlaneConfig

from tests.helpers import make_platform

CACHE_ONLY = DataPlaneConfig(read_cache=True)


def build(data_plane=None):
    """A client-side document and static config, and a peer object
    placed on the surrogate whose methods touch them remotely."""
    platform = make_platform(data_plane=data_plane)
    registry = platform.registry
    registry.define("c.Conf") \
        .field("limit", "int", static=True, default=5) \
        .register()
    registry.define("c.Doc") \
        .field("title", "ref", default="draft") \
        .register()
    registry.define("c.Peer") \
        .method("read_title",
                func=lambda ctx, me, doc: ctx.get_field(doc, "title")) \
        .method("read_limit",
                func=lambda ctx, me: ctx.get_static("c.Conf", "limit")) \
        .method("write_cells",
                func=lambda ctx, me, arr: ctx.array_write(arr, 4)) \
        .method("read_cells",
                func=lambda ctx, me, arr: ctx.array_read(arr, 4)) \
        .register()
    ctx = platform.ctx
    doc = ctx.new("c.Doc")
    ctx.set_global("doc", doc)
    peer = ctx.new("c.Peer")
    ctx.set_global("peer", peer)
    platform.migrator.apply_placement(frozenset({"c.Peer"}))
    assert doc.home == platform.client.vm.name
    assert peer.home == platform.surrogate.vm.name
    return platform, doc, peer


def spy(obj, name, calls):
    real = getattr(obj, name)

    def wrapper(*args):
        calls.append((name, args))
        return real(*args)

    setattr(obj, name, wrapper)


@pytest.mark.parametrize("kind", ["instance", "static"])
def test_an_owner_side_write_makes_the_next_remote_read_miss(kind):
    platform, doc, peer = build(CACHE_ONLY)
    ctx = platform.ctx
    if kind == "instance":
        def remote_read():
            ctx.invoke(peer, "read_title", doc)

        def owner_write():
            ctx.set_field(doc, "title", "final")
    else:
        def remote_read():
            ctx.invoke(peer, "read_limit")

        def owner_write():
            ctx.set_static("c.Conf", "limit", 9)
    stats = platform.data_plane.stats.cache
    remote_read()
    remote_read()
    assert (stats.misses, stats.hits) == (1, 1)
    # Top-level code runs on the client, which owns both fields: the
    # write is local, so nothing crosses the link ...
    before = (platform.clock.now, platform.traffic.category("rpc").messages)
    owner_write()
    assert (platform.clock.now,
            platform.traffic.category("rpc").messages) == before
    # ... but the peer's copy is stale now.
    assert stats.invalidations == 1
    remote_read()
    assert (stats.misses, stats.hits) == (2, 1)


def test_arrays_never_consult_the_cache():
    platform, doc, peer = build(CACHE_ONLY)
    ctx = platform.ctx
    calls = []
    cache = platform.data_plane.cache
    spy(cache, "note_read", calls)
    spy(cache, "invalidate", calls)
    cells = ctx.new_array("int", 16)
    ctx.set_global("cells", cells)
    ctx.array_write(cells, 4)
    ctx.array_read(cells, 4)
    ctx.invoke(peer, "write_cells", cells)
    ctx.invoke(peer, "read_cells", cells)
    assert calls == []
    # Both of the peer's element accesses crossed the link.
    assert platform.monitor.remote.remote_accesses == 2
    # The spies see a field read.
    ctx.invoke(peer, "read_title", doc)
    assert calls == [("note_read", (doc.oid,))]


def test_without_a_data_plane_a_local_write_charges_nothing():
    platform, doc, peer = build()
    assert platform.data_plane.cache is None
    assert platform.data_plane.coalescer is None
    ctx = platform.ctx
    cells = ctx.new_array("int", 16)
    ctx.set_global("cells", cells)
    transfers = []
    spy(platform.runtime, "transfer", transfers)
    before = platform.clock.now
    ctx.set_field(doc, "title", "final")
    ctx.set_static("c.Conf", "limit", 9)
    ctx.array_write(cells, 4)
    assert transfers == []
    assert platform.clock.now == before
    # A remote read is one transfer pair (inside the invoke's pair).
    ctx.invoke(peer, "read_title", doc)
    assert len(transfers) == 4
    assert platform.clock.now > before
