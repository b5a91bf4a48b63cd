"""The monitor folds its hook log on read, by the replay's rules.

``monitor_graph_goldens.json`` holds the folded graph's digests at every
read of a platform run.  The fold writes the graph's columns by index;
on random hook streams it must leave the store, dirty sets and version
exactly as the replay's :class:`~repro.emulator.graphfold.GraphFold`
leaves them on a trace of the same hooks, with each free a reclaim and
each read a mark; and the monitor folding on its own every
:data:`~repro.core.monitor.FOLD_AT` hooks must not change that.  The
other tests fail if a reader skips the fold.
"""

from functools import lru_cache
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import monitor as monitor_module
from repro.core.graph import ExecutionGraph, object_node_id
from repro.core.monitor import (
    ExecutionMonitor, MonitorCounters, RemoteCounters,
)
from repro.emulator.graphfold import GraphFold
from repro.emulator.recorder import TraceRecorder
from repro.errors import PartitioningError
from repro.units import KB
from repro.vm.context import MAIN_CLASS
from repro.vm.hooks import AccessRecord, HookFanout, InvokeRecord
from repro.vm.objectmodel import ClassBuilder, ClassDef, JArray, JObject

from tests.core.monitor_graph_goldens import KEYS, goldens, probe_run
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

    def test_only_another_pair_or_a_mark_ends_a_run(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access("t.B", "t.A"))
        monitor.on_cpu("t.C", "client", 0.5)
        monitor.on_alloc(make_obj("t.D"), "client", MAIN_CLASS)
        monitor.on_free(make_obj("t.Ghost"))
        monitor.on_access(access("t.A", "t.B"))
        graph = monitor.graph
        assert graph.edge("t.A", "t.B").count == 2
        # The read wrote the run, creating its ends (the smaller name
        # first) after the CPU charge's node and the allocation's two.
        assert list(graph.nodes()) == ["t.C", "t.D", MAIN_CLASS, "t.A", "t.B"]
        # Five nodes, the charge, the allocation's two and one edge update.
        assert graph.version == 9
        monitor.on_access(access("t.A", "t.B"))
        assert monitor.graph.edge("t.A", "t.B").count == 3  # a mark
        monitor.on_access(access("t.A", "t.B"))
        monitor.on_access(access("t.A", "t.C"))
        graph = monitor.graph
        assert graph.edge("t.A", "t.B").count == 4
        assert graph.edge("t.A", "t.C").count == 1
        assert graph.version == 12

    def test_an_allocation_ensures_its_creator_after_its_node(self):
        monitor = ExecutionMonitor(object_granularity_classes={"int[]"})
        arr = JArray(ClassDef("int[]", is_array_class=True), "client", "int",
                     4)
        monitor.on_alloc(make_obj("t.A"), "client", "t.Maker")
        monitor.on_alloc(arr, "client", "t.Maker")
        graph = monitor.graph
        assert list(graph.nodes()) == [
            "t.A", "t.Maker", object_node_id("int[]", arr.oid)]
        assert graph.node("t.Maker").created_objects == 0

    def test_log_folds_itself_at_the_fixed_size(self):
        monitor = ExecutionMonitor()
        for _ in range(monitor_module.FOLD_AT - 1):
            monitor.on_access(access("t.A", "t.B"))
        assert len(monitor._log) == monitor_module.FOLD_AT - 1
        monitor.on_access(access("t.A", "t.B"))
        assert not monitor._log
        # Folding on its own is no mark: the run is still open.
        assert monitor._graph.link_count == 0
        assert monitor.graph.edge("t.A", "t.B").count == (
            monitor_module.FOLD_AT)
        assert monitor.graph.version == 3

    def test_counters_fold_on_read(self):
        monitor = ExecutionMonitor()
        monitor.on_access(access("t.A", "t.B"))
        monitor.on_alloc(make_obj("t.A"), "client", MAIN_CLASS)
        assert monitor.counters.access_events == 1
        assert monitor.counters.objects_created == 1
        assert monitor.live_objects == 1
        # Reading the counters is no mark.
        assert monitor._graph.link_count == 0


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
        monitor.on_access(access("t.A", "t.C"))
        monitor.on_gc_report(
            GCReport(cycle=1, reason="t", live_objects=0, freed_objects=0,
                     freed_bytes=0, used_bytes=0, free_bytes=1, capacity=1),
            "client")
        # The report folds but does not mark: the open run is no link yet.
        assert monitor.links_series.maximum == 1
        assert monitor.graph.link_count == 2

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
            monitor.on_alloc(arr, "client", MAIN_CLASS)
        monitor.on_access(access("int[]", "long[]"))
        assert monitor._log
        placed = cluster.migrator._assign(frozenset({"int[]", "long[]"}))
        assert sorted(placed.values()) == ["s1", "s2"]


# -- the monitor against the replay's fold ------------------------------------

class Obj(NamedTuple):
    """What the monitor reads of an allocated or freed object."""

    class_name: str
    oid: int
    size_bytes: int


#: Interaction endpoints and creators: app classes, the top level, and
#: primitive arrays (granular when the case says so).
CLASSES = ("t.A", "t.B", "t.C", MAIN_CLASS, "int[]")
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
              st.integers(16, 4096), st.sampled_from(CLASSES)),
    st.tuples(st.just("free"), st.integers(0, 1000)),
    st.tuples(st.just("ghost"), st.booleans()),
    st.tuples(st.just("read")),
)
granularities = st.sampled_from((set(), {"int[]"}))


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
    """Everything a reader of the store sees, dirty sets drained."""
    return (graph.to_dict(), list(graph.nodes()),
            [key for key, _ in graph.edges()],
            [(node, list(graph.neighbors(node))) for node in graph.nodes()],
            graph.version, delta_names(graph, graph.drain_dirty()))


def run_stream(stream, granular, profile, recorder=None):
    """Deliver ``stream`` through a hook fanout to a fresh monitor and,
    if given, a trace recorder.

    Returns the monitor, the store state at every read (the last one
    after the stream), the counters and live populations the stream
    implies, and the replay side log: ``("reclaim", at, node, bytes)``
    for each free and ``("read", at)`` for each read, ``at`` counting
    the trace's events before it.
    """
    monitor = ExecutionMonitor(object_granularity_classes=granular,
                               profile=profile)
    fanout = HookFanout()
    fanout.add(monitor)
    if recorder is not None:
        fanout.add(recorder)
    counters, remote = MonitorCounters(), RemoteCounters()
    live, next_oid = [], 1
    # The live populations never go below zero, whatever is freed.
    live_objects, live_classes = 0, {}
    states, side = [], []

    def at():
        return len(recorder.trace) if recorder is not None else 0

    def read():
        side.append(("read", at()))
        states.append(store_state(monitor.graph))

    for hook in stream:
        kind = hook[0]
        if kind == "read":
            read()
        elif kind in ("record", "burst"):
            record = hook[1]
            for _ in range(hook[2] if kind == "burst" else 1):
                if type(record) is AccessRecord:
                    counters.access_events += 1
                    if record.remote and record.cached:
                        remote.cached_reads += 1
                    elif record.remote:
                        remote.remote_accesses += 1
                        remote.remote_bytes += record.value_bytes
                    fanout.on_access(record)
                else:
                    counters.invocation_events += 1
                    if record.remote:
                        remote.remote_invocations += 1
                        remote.remote_bytes += (record.arg_bytes
                                                + record.ret_bytes)
                        remote.remote_native_invocations += (
                            record.kind == "native")
                    fanout.on_invoke(record)
        elif kind == "cpu":
            fanout.on_cpu(hook[1], "client", hook[2])
        elif kind == "alloc":
            obj = Obj(hook[1], next_oid, hook[2])
            next_oid += 1
            live.append(obj)
            counters.objects_created += 1
            counters.allocations_bytes += obj.size_bytes
            live_objects += 1
            live_classes[obj.class_name] = (
                live_classes.get(obj.class_name, 0) + 1)
            fanout.on_alloc(obj, "client", hook[3])
        else:
            if kind == "free" and live:
                obj = live.pop(hook[1] % len(live))
            elif kind == "ghost" and hook[1] and granular:
                obj = Obj("int[]", 10_000 + next_oid, 64)  # never allocated
                next_oid += 1
            else:
                obj = Obj(GHOST, 10_000 + next_oid, 32)
                next_oid += 1
            node = (object_node_id(obj.class_name, obj.oid)
                    if obj.class_name in granular else obj.class_name)
            side.append(("reclaim", at(), node, obj.size_bytes))
            counters.objects_freed += 1
            live_objects = max(0, live_objects - 1)
            if live_classes.get(obj.class_name, 0) > 1:
                live_classes[obj.class_name] -= 1
            else:
                live_classes.pop(obj.class_name, None)
            fanout.on_free(obj)
    read()
    return (monitor, states,
            (counters, remote, live_objects, live_classes), side)


@given(granular=granularities, profile=st.none() | profiles(),
       stream=st.lists(hooks, max_size=40))
@settings(max_examples=150, deadline=None)
def test_the_monitor_folds_by_the_replays_rules(granular, profile, stream):
    recorder = TraceRecorder()
    monitor, states, counters, side = run_stream(stream, granular, profile,
                                                 recorder)
    assert (monitor.counters, monitor.remote, monitor.live_objects,
            monitor._live_classes) == counters
    # The replay folds the recorded trace into the same start, with each
    # free a reclaim and each read a mark, at the same positions.
    fold = GraphFold(recorder.trace,
                     profile.copy() if profile is not None
                     else ExecutionGraph(), granular)
    replayed = []
    for entry in side:
        if entry[0] == "reclaim":
            fold.reclaim(*entry[1:])
        else:
            fold.mark(entry[1])
            replayed.append(store_state(fold.advance(entry[1])))
    assert replayed == states
    # The version moves exactly when what a reader sees does.
    for state, later in zip(states, states[1:]):
        assert later[4] >= state[4]
        assert (later[:4] != state[:4]) == (later[4] != state[4])


@given(granular=granularities, profile=st.none() | profiles(),
       stream=st.lists(hooks, max_size=40))
@settings(max_examples=60, deadline=None)
def test_folding_on_its_own_does_not_shape_the_graph(granular, profile,
                                                     stream):
    runs = []
    for fold_at in (1, 7, 256):
        with mock.patch.object(monitor_module, "FOLD_AT", fold_at):
            runs.append(run_stream(stream, granular, profile)[1])
    assert runs[0] == runs[1] == runs[2]
