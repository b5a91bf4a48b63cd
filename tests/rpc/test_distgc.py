"""Unit tests for distributed garbage collection support."""

import pytest

from repro.rpc.distgc import (
    CrossHeapRootScanner,
    peer_reachable_oids,
    reconcile_exports,
)

from tests.helpers import define_worker_classes, make_platform


@pytest.fixture
def platform():
    platform = make_platform()
    define_worker_classes(platform.registry)
    return platform


def offload_worker_with_store(platform):
    """Worker on the surrogate holding a reference to a client store."""
    ctx = platform.ctx
    store = ctx.new("data.Store")
    worker = ctx.new("data.Worker", store=store)
    platform.client.vm.set_root("worker", worker)
    platform.migrator.apply_placement(frozenset({"data.Worker"}))
    assert worker.home == platform.surrogate.vm.name
    return worker, store


class TestCrossHeapLiveness:
    def test_client_object_survives_when_surrogate_references_it(self, platform):
        worker, store = offload_worker_with_store(platform)
        # The store has no client-side root; only the offloaded worker's
        # field keeps it alive.
        platform.client.vm.collect_garbage()
        assert store.alive
        assert platform.client.vm.heap.contains(store)

    def test_client_object_dies_when_surrogate_lets_go(self, platform):
        worker, store = offload_worker_with_store(platform)
        platform.ctx.set_field(worker, "store", None)
        platform.client.vm.collect_garbage()
        assert not store.alive

    def test_surrogate_object_survives_via_client_reference(self, platform):
        ctx = platform.ctx
        store = ctx.new("data.Store")
        worker = ctx.new("data.Worker", store=store)
        platform.client.vm.set_root("worker", worker)
        platform.migrator.apply_placement(frozenset({"data.Store"}))
        assert store.home == platform.surrogate.vm.name
        platform.surrogate.vm.collect_garbage()
        assert store.alive

    def test_exported_objects_survive_until_reconciled(self, platform):
        ctx = platform.ctx
        store = ctx.new("data.Store")
        # Exported through the channel but never referenced by a heap
        # object: the export pin keeps it alive...
        platform.channel.stub_for(store)
        platform.client.vm.collect_garbage()
        assert store.alive
        # ...until reconciliation notices the peer cannot reach it.
        exports = platform.channel.exports[platform.client.vm.name]
        dropped = reconcile_exports(
            exports, platform.surrogate.vm, platform.client.vm.name
        )
        assert dropped == 1
        # Displace the top-level allocation register, then collect.
        platform.ctx.new("data.Store")
        platform.client.vm.collect_garbage()
        assert not store.alive


class TestReconcile:
    def test_reachable_exports_are_kept(self, platform):
        worker, store = offload_worker_with_store(platform)
        exports = platform.channel.exports[platform.client.vm.name]
        exports.export(store)
        dropped = reconcile_exports(
            exports, platform.surrogate.vm, platform.client.vm.name
        )
        assert dropped == 0
        assert exports.is_exported(store)

    def test_dead_exports_are_pruned(self, platform):
        ctx = platform.ctx
        store = ctx.new("data.Store")
        exports = platform.channel.exports[platform.client.vm.name]
        exports.export(store)
        store.alive = False
        reconcile_exports(
            exports, platform.surrogate.vm, platform.client.vm.name
        )
        assert len(exports) == 0

    def test_extra_peer_roots_protect_exports(self, platform):
        ctx = platform.ctx
        store = ctx.new("data.Store")
        exports = platform.channel.exports[platform.client.vm.name]
        exports.export(store)
        dropped = reconcile_exports(
            exports, platform.surrogate.vm, platform.client.vm.name,
            extra_peer_roots=lambda: [store],
        )
        assert dropped == 0

    def test_peer_reachable_oids(self, platform):
        worker, store = offload_worker_with_store(platform)
        reachable = peer_reachable_oids(
            platform.surrogate.vm, platform.client.vm.name
        )
        assert store.oid in reachable


class TestScanner:
    def test_scanner_lists_cross_heap_references(self, platform):
        worker, store = offload_worker_with_store(platform)
        scanner = CrossHeapRootScanner(
            platform.client.vm, platform.surrogate.vm,
            platform.channel.exports[platform.client.vm.name],
        )
        assert store in scanner.roots()

    def test_scanner_ignores_references_to_other_sites(self, platform):
        worker, store = offload_worker_with_store(platform)
        scanner = CrossHeapRootScanner(
            platform.surrogate.vm, platform.client.vm,
            platform.channel.exports[platform.surrogate.vm.name],
        )
        # store is client-homed, so it is not a root *for the surrogate*.
        assert store not in scanner.roots()
        assert worker not in scanner.roots()

    @pytest.mark.parametrize("element_type,traced", [("ref", True),
                                                     ("int", False)])
    def test_scanner_reads_arrays_as_references_defines_them(
            self, platform, element_type, traced):
        """A reference array on the peer heap keeps its elements alive;
        a primitive array's ``data`` is never read as references."""
        store = platform.ctx.new("data.Store")
        holder = platform.surrogate.vm.new_array(
            element_type, 3, data=[None, 7, store])
        scanner = CrossHeapRootScanner(platform.client.vm,
                                       platform.surrogate.vm)
        assert (store in scanner.roots()) is traced
        assert (store in holder.references()) is traced
