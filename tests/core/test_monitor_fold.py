"""The monitor folds its hook log on read, to the eager rules.

``monitor_graph_goldens.json`` holds digests recorded from the monitor
that updated its graph on every hook; the folded graph must match them
at every read of a platform run.  The other tests fail if a reader
skips the fold.
"""

from functools import lru_cache

import pytest

from repro.core import monitor as monitor_module
from repro.core.graph import ExecutionGraph
from repro.core.monitor import ExecutionMonitor
from repro.errors import PartitioningError
from repro.units import KB
from repro.vm.hooks import AccessRecord
from repro.vm.objectmodel import ClassBuilder, ClassDef, JArray, JObject

from tests.core.monitor_graph_goldens import KEYS, goldens, probe_run


@lru_cache(maxsize=None)
def probed(key):
    return probe_run(key)


@pytest.mark.parametrize("key", KEYS)
def test_folded_graph_matches_eager_golden(key):
    assert probed(key)[0] == goldens()[key]


@pytest.mark.parametrize("key", KEYS)
def test_version_moves_exactly_when_the_graph_does(key):
    reads = probed(key)[1]
    assert reads
    for (content, version), (next_content, next_version) in zip(
            reads, reads[1:]):
        assert next_version >= version
        assert (next_content != content) == (next_version != version)


def access(accessor, owner, nbytes=8):
    return AccessRecord(accessor, None, owner, None, "f", nbytes, False,
                        False, "client", "client", False)


def make_obj(class_name):
    return JObject(ClassBuilder(class_name).field("x", "int").build(),
                   "client")


class TestFoldOnRead:
    def test_hooks_only_log_until_a_read(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access("t.A", "t.B"))
        assert monitor._graph.link_count == 0
        assert monitor.graph.edge("t.A", "t.B").count == 1
        assert not monitor._log

    def test_a_run_over_one_pair_collapses_to_one_update(self):
        monitor = ExecutionMonitor()
        for _ in range(5):
            monitor.on_access(access("t.A", "t.B", 4))
            monitor.on_access(access("t.B", "t.A", 2))
        graph = monitor.graph
        assert graph.edge("t.A", "t.B").count == 10
        assert graph.edge("t.A", "t.B").bytes == 30
        assert list(graph.nodes()) == ["t.A", "t.B"]
        assert graph.version == 3  # two nodes and one edge update

    def test_any_other_entry_ends_a_run(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access("t.A", "t.B"))
        monitor.on_cpu("t.C", "client", 0.5)
        monitor.on_access(access("t.A", "t.B"))
        # Node order is the eager order: the first interaction created
        # t.A and t.B before the CPU charge created t.C.
        assert list(monitor.graph.nodes()) == ["t.A", "t.B", "t.C"]
        assert monitor.graph.edge("t.A", "t.B").count == 2

    def test_log_folds_itself_at_the_fixed_size(self):
        monitor = ExecutionMonitor()
        for _ in range(monitor_module.FOLD_AT - 1):
            monitor.on_access(access("t.A", "t.B"))
        assert len(monitor._log) == monitor_module.FOLD_AT - 1
        monitor.on_access(access("t.A", "t.B"))
        assert not monitor._log
        assert monitor._graph.edge("t.A", "t.B").count == (
            monitor_module.FOLD_AT)

    def test_counters_fold_on_read(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access("t.A", "t.B"))
        monitor.on_alloc(make_obj("t.A"), "client")
        assert monitor.counters.access_events == 1
        assert monitor.counters.objects_created == 1
        assert monitor.live_objects == 1


class TestReadersFold:
    def test_warm_start_free_below_zero_raises_by_the_next_read(self):
        profile = ExecutionGraph()
        profile.ensure_node("t.A")
        monitor = ExecutionMonitor(profile=profile)
        with pytest.raises(PartitioningError, match="negative"):
            monitor.on_free(make_obj("t.A"))
            monitor.graph

    def test_gc_report_reads_the_folded_link_count(self):
        from repro.vm.gc import GCReport

        monitor = ExecutionMonitor()
        monitor.on_access(access("t.A", "t.B"))
        monitor.on_gc_report(
            GCReport(cycle=1, reason="t", live_objects=0, freed_objects=0,
                     freed_bytes=0, used_bytes=0, free_bytes=1, capacity=1),
            "client")
        assert monitor.links_series.maximum == 1

    def test_migrator_assign_sees_interactions_logged_after_it_was_built(self):
        from tests.platform.test_multi import make_cluster, spec

        cluster = make_cluster(spec("s1", 64 * KB), spec("s2", 64 * KB))
        free = min(vm.heap.free for vm in cluster.migrator.surrogates)
        assert len(cluster.migrator.surrogates) == 2
        # Two nodes that each fill more than half of a surrogate's free
        # heap: only their logged allocations say so.
        monitor = cluster.monitor
        for element_type in ("int", "long"):
            cls = ClassDef(f"{element_type}[]", is_array_class=True)
            arr = JArray(cls, "client", element_type, 1)
            while arr.size_bytes <= free // 2:
                arr = JArray(cls, "client", element_type, arr.length * 2)
            assert arr.size_bytes < free
            monitor.on_alloc(arr, "client")
        monitor.on_access(access("int[]", "long[]"))
        assert monitor._log
        placed = cluster.migrator._assign(frozenset({"int[]", "long[]"}))
        assert sorted(placed.values()) == ["s1", "s2"]
