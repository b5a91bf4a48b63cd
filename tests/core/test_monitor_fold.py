"""The monitor folds its hook log on read, to the eager rules.

``monitor_graph_goldens.json`` holds digests recorded from the monitor
that updated its graph on every hook; the folded graph must match them
at every read of a platform run.  The fold writes the graph's columns
by index; on random hook streams it must leave the store, counters and
dirty sets exactly as :class:`~tests.core.monitor_oracle.EagerMonitor`
leaves them through the string mutators.  The other tests fail if a
reader skips the fold.
"""

from functools import lru_cache
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import monitor as monitor_module
from repro.core.graph import ExecutionGraph
from repro.core.monitor import ExecutionMonitor
from repro.errors import PartitioningError
from repro.units import KB
from repro.vm.hooks import AccessRecord, InvokeRecord
from repro.vm.objectmodel import ClassBuilder, ClassDef, JArray, JObject

from tests.core.monitor_graph_goldens import KEYS, goldens, probe_run
from tests.core.monitor_oracle import EagerMonitor
from tests.helpers import delta_names


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


# -- the index fold against the eager reference ------------------------------

class Obj(NamedTuple):
    """What the monitor reads of an allocated or freed object."""

    class_name: str
    oid: int
    size_bytes: int


#: Interaction endpoints: app classes, the top level, and primitive
#: arrays (granular when the case says so).
CLASSES = ("t.A", "t.B", "t.C", "<main>", "int[]")
#: Never allocated, interacted with, or in a profile: its frees find no
#: node.
GHOST = "t.Ghost"

endpoints = st.tuples(st.sampled_from(CLASSES),
                      st.sampled_from((None, 1, 2, 3)))
accesses = st.builds(
    lambda a, b, nbytes, remote, cached: AccessRecord(
        a[0], a[1], b[0], b[1], "f", nbytes, False, False, "client",
        "surrogate" if remote else "client", remote, remote and cached),
    endpoints, endpoints, st.integers(0, 64), st.booleans(), st.booleans())
invokes = st.builds(
    lambda a, b, arg, ret, kind, remote: InvokeRecord(
        a[0], a[1], b[0], b[1], "m", kind, False, arg, ret, 0.0, "client",
        "surrogate" if remote else "client", remote),
    endpoints, endpoints, st.integers(0, 64), st.integers(0, 64),
    st.sampled_from(("instance", "static", "native")), st.booleans())
hooks = st.one_of(
    st.tuples(st.just("record"), st.one_of(accesses, invokes)),
    # A run long enough to cross the monitor's self-fold threshold.
    st.tuples(st.just("burst"), accesses,
              st.integers(1, 2 * monitor_module.FOLD_AT + 10)),
    st.tuples(st.just("cpu"), st.sampled_from(CLASSES),
              st.sampled_from((0.125, 0.5, 3e-3))),
    st.tuples(st.just("alloc"), st.sampled_from(CLASSES),
              st.integers(16, 4096)),
    st.tuples(st.just("free"), st.integers(0, 1000)),
    st.tuples(st.just("ghost"), st.booleans()),
    st.tuples(st.just("read")),
)


@st.composite
def profiles(draw):
    """A warm-start profile: interaction history and CPU, no memory."""
    profile = ExecutionGraph()
    for a, b, nbytes, count in draw(st.lists(st.tuples(
            st.sampled_from(CLASSES), st.sampled_from(CLASSES),
            st.integers(0, 100), st.integers(1, 5)), max_size=4)):
        profile.record_interaction(a, b, nbytes, count=count)
    for name in draw(st.lists(st.sampled_from(CLASSES), max_size=2)):
        profile.add_cpu(name, 0.25)
    return profile


def store_state(graph):
    """Everything a reader of the store sees but the version."""
    return (graph.to_dict(), list(graph.nodes()),
            [key for key, _ in graph.edges()],
            [(node, list(graph.neighbors(node))) for node in graph.nodes()])


def monitor_state(monitor, live_classes):
    return (store_state(monitor.graph), monitor.counters, monitor.remote,
            monitor.live_objects, live_classes)


@given(granular=st.sampled_from((set(), {"int[]"})),
       profile=st.none() | profiles(),
       stream=st.lists(hooks, max_size=40))
@settings(max_examples=200, deadline=None)
def test_index_fold_matches_the_eager_string_mutators(granular, profile,
                                                      stream):
    monitor = ExecutionMonitor(object_granularity_classes=granular,
                               profile=profile)
    oracle = EagerMonitor(granular, profile)
    live, next_oid = [], 1
    reads = []

    def read():
        oracle.read()
        state = monitor_state(monitor, monitor._live_classes)
        assert state == monitor_state(oracle, oracle.live_classes)
        graph = monitor.graph
        assert graph.version == oracle.graph.version
        assert (delta_names(graph, graph.drain_dirty())
                == delta_names(oracle.graph, oracle.graph.drain_dirty()))
        reads.append((state[0], graph.version))

    for hook in stream:
        kind = hook[0]
        if kind == "read":
            read()
            continue
        if kind == "record":
            calls = [hook[1]]
        elif kind == "burst":
            calls = [hook[1]] * hook[2]
        elif kind == "cpu":
            monitor.on_cpu(hook[1], "client", hook[2])
            oracle.on_cpu(hook[1], "client", hook[2])
            continue
        elif kind == "alloc":
            obj = Obj(hook[1], next_oid, hook[2])
            next_oid += 1
            live.append(obj)
            monitor.on_alloc(obj, "client")
            oracle.on_alloc(obj, "client")
            continue
        else:
            if kind == "free" and live:
                obj = live.pop(hook[1] % len(live))
            elif kind == "ghost" and hook[1] and granular:
                obj = Obj("int[]", 10_000 + next_oid, 64)  # never allocated
                next_oid += 1
            else:
                obj = Obj(GHOST, 10_000 + next_oid, 32)
                next_oid += 1
            monitor.on_free(obj)
            oracle.on_free(obj)
            continue
        for record in calls:
            if type(record) is AccessRecord:
                monitor.on_access(record)
                oracle.on_access(record)
            else:
                monitor.on_invoke(record)
                oracle.on_invoke(record)
    read()
    # The version moves exactly when what a reader sees does.
    for (content, version), (next_content, next_version) in zip(
            reads, reads[1:]):
        assert next_version >= version
        assert (next_content != content) == (next_version != version)
