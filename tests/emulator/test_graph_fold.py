"""The replay's execution graph is folded on read, to the eager rules.

``graph_goldens.json`` holds digests recorded from the loop that updated
the graph on every event.  The folded graph must match them after every
offload attempt and after ``run``; reading it at other points must not
change it; and a forced placement, which never reads it, folds nothing.
The fold writes the graph's columns by index; on random traces it must
leave the store exactly as the string mutators leave it under the same
rules, dirty sets and version included, also when a second fold reads
the plan the first cached on the trace, and after the trace grows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ExecutionGraph, object_node_id
from repro.emulator.columnar import ColumnarTrace
from repro.emulator.events import (
    AccessEvent, AllocEvent, InvokeEvent, WorkEvent,
)
from repro.emulator.graphfold import GraphFold, fold_plan
from repro.emulator.replay import TraceReplayer
from repro.errors import PartitioningError
from tests.helpers import delta_names

from .graph_goldens import goldens, graph_digest, graph_runs, probe_replay
from .test_replay_properties import config, random_traces

RUNS = {key: (trace, config) for key, trace, config in graph_runs()}


@pytest.mark.parametrize("key", sorted(RUNS))
def test_folded_graph_matches_eager_golden(key):
    assert probe_replay(*RUNS[key]) == goldens()[key]


class RecordingFold(GraphFold):
    """A fold that also keeps every side-log entry it is given."""

    def __init__(self, *args):
        super().__init__(*args)
        self.entries = []

    def mark(self, at):
        self.entries.append(("mark", at))
        super().mark(at)

    def reclaim(self, at, node, nbytes):
        self.entries.append(("reclaim", at, node, nbytes))
        super().reclaim(at, node, nbytes)


@pytest.mark.parametrize("key,every", [
    ("dia/array/reeval", 1),
    ("dia/class/partition", 997),
    ("javanote/array/memory", 997),
])
def test_reading_every_n_events_leaves_the_graph_unchanged(key, every):
    trace, config = RUNS[key]
    replayer = TraceReplayer(trace, config)
    fold = replayer._fold
    recorder = replayer._fold = RecordingFold(
        fold.trace, fold.graph, fold.granular_classes)
    replayer.run()
    # Fold the same events and side log again afresh, reading
    # the graph every ``every`` events on the way.
    refold = TraceReplayer(trace, config)._fold
    for entry in recorder.entries:
        getattr(refold, entry[0])(*entry[1:])
    refold.end = recorder.end
    for upto in range(0, replayer.result.events_processed, every):
        refold.advance(upto)
    final = refold.advance(replayer.result.events_processed)
    assert graph_digest(final) == goldens()[key]["final"]


def test_forced_placement_folds_nothing_until_read():
    trace, config = RUNS["dia/class/loss"]
    assert config.forced_offload_nodes is not None
    replayer = TraceReplayer(trace, config)
    replayer.run()
    assert replayer._fold.folded == 0
    assert graph_digest(replayer.graph) == goldens()["dia/class/loss"]["final"]
    assert replayer._fold.folded == len(trace)


# -- the two writers of the one store ------------------------------------------

class NameFold:
    """The fold's rules through the graph's string mutators, one event at
    a time: the reference for :class:`GraphFold`'s index writes."""

    def __init__(self, graph, granular):
        self.graph = graph
        self.granular = granular
        self.run = None
        self.run_bytes = self.run_count = 0
        self.creators = set()

    def node(self, cls, oid):
        if cls in self.granular and oid is not None:
            return object_node_id(cls, oid)
        return cls

    def close_run(self):
        if self.run is not None:
            self.graph.record_interaction(*self.run, self.run_bytes,
                                          count=self.run_count)
            self.run = None

    def entry(self, entry):
        if entry[1] == "mark":
            self.close_run()
        else:
            # The one free rule: a node the graph lacks is left alone.
            _, _, node, nbytes = entry
            if self.graph.has_node(node):
                self.graph.add_memory(node, -nbytes)
                self.graph.note_object_freed(node)

    def event(self, event):
        graph = self.graph
        if isinstance(event, AllocEvent):
            node = self.node(event.class_name, event.oid)
            graph.add_memory(node, event.size)
            graph.note_object_created(node)
            if event.creator_class not in self.creators:
                self.creators.add(event.creator_class)
                graph.ensure_node(event.creator_class)
        elif isinstance(event, WorkEvent):
            graph.add_cpu(event.class_name, event.seconds)
        elif isinstance(event, (AccessEvent, InvokeEvent)):
            if isinstance(event, AccessEvent):
                a = self.node(event.accessor_class, event.accessor_oid)
                b = self.node(event.owner_class, event.owner_oid)
                nbytes = event.nbytes
            else:
                a = self.node(event.caller_class, event.caller_oid)
                b = self.node(event.callee_class, event.callee_oid)
                nbytes = event.arg_bytes + event.ret_bytes
            if a == b:
                return
            pair = (a, b) if a <= b else (b, a)
            if pair == self.run:
                self.run_bytes += nbytes
                self.run_count += 1
                return
            self.close_run()
            self.run, self.run_bytes, self.run_count = pair, nbytes, 1


def store_state(graph):
    """Everything a reader of the store can see, dirty sets drained."""
    return (graph.to_dict(), list(graph.nodes()),
            [key for key, _ in graph.edges()],
            [(node, list(graph.neighbors(node))) for node in graph.nodes()],
            graph.version, delta_names(graph, graph.drain_dirty()))


@st.composite
def side_logs(draw, trace, granular):
    """A side log of marks and reclaims for ``trace`` at ``granular``,
    and the positions at which the graph is read and drained."""
    n = len(trace)
    entries = [(at, "mark") for at in draw(
        st.lists(st.integers(0, n), max_size=8))]
    for i, event in enumerate(trace.events):
        if isinstance(event, AllocEvent) and draw(st.booleans()):
            node = (object_node_id(event.class_name, event.oid)
                    if event.class_name in granular else event.class_name)
            at = draw(st.integers(i + 1, n))
            entries.append((at, "reclaim", node, event.size))
    entries.sort(key=lambda entry: entry[0])
    reads = sorted(set(draw(st.lists(st.integers(0, n), max_size=6))) | {n})
    return entries, reads


@st.composite
def fold_cases(draw):
    """A trace, a granularity, a side log of marks and reclaims, and the
    positions at which the graph is read and drained."""
    trace = draw(random_traces(object_refs=True))
    granular = draw(st.sampled_from((set(), {"app.A"})))
    return (trace, granular, *draw(side_logs(trace, granular)))


def assert_folds_like_the_string_mutators(trace, granular, entries, reads):
    by_index = ExecutionGraph()
    by_index.ensure_node("<main>")
    fold = GraphFold(trace, by_index, granular)
    by_name = ExecutionGraph()
    by_name.ensure_node("<main>")
    reference = NameFold(by_name, granular)
    events = list(trace.events)
    logged = applied = done = 0
    for upto in reads:
        while logged < len(entries) and entries[logged][0] <= upto:
            entry = entries[logged]
            if entry[1] == "mark":
                fold.mark(entry[0])
            else:
                fold.reclaim(entry[0], *entry[2:])
            logged += 1
        fold.advance(upto)
        while done < upto or (applied < len(entries)
                              and entries[applied][0] <= upto):
            if applied < len(entries) and entries[applied][0] <= done:
                reference.entry(entries[applied])
                applied += 1
            else:
                reference.event(events[done])
                done += 1
        assert store_state(by_index) == store_state(by_name)


@given(fold_cases())
@settings(max_examples=150, deadline=None)
def test_index_fold_and_string_mutators_write_the_same_store(case):
    assert_folds_like_the_string_mutators(*case)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_replays_of_one_trace_share_its_plan(data):
    # The second fold at each granular set reads the plan the first one
    # built and cached on the trace object, under another side log.
    trace = data.draw(random_traces(object_refs=True))
    for granular in (set(), {"app.A"}):
        for _ in range(2):
            entries, reads = data.draw(side_logs(trace, granular))
            assert_folds_like_the_string_mutators(trace, granular, entries,
                                                  reads)
        assert fold_plan(trace, granular) is fold_plan(trace, set(granular))


@given(random_traces(object_refs=True))
@settings(max_examples=40, deadline=None)
def test_a_trace_that_grows_after_a_replay_is_planned_again(trace):
    cfg = config()
    first = TraceReplayer(trace, cfg)
    first.run()
    # Fold it all, so the plan is built at the trace's first length.
    first._fold.advance(len(trace))
    for event in (WorkEvent("app.C", None, 0.25),
                  InvokeEvent("app.B", None, "app.C", None, "m", "instance",
                              False, 16, 8),
                  AllocEvent(10**6, "app.B", 64, "app.C", None)):
        trace.append(event)
    fresh = ColumnarTrace(app_name=trace.app_name,
                          class_traits=trace.class_traits)
    for event in trace.events:
        fresh.append(event)
    grown = TraceReplayer(trace, cfg)
    grown.run()
    replayed = TraceReplayer(fresh, cfg)
    replayed.run()
    assert store_state(grown.graph) == store_state(replayed.graph)


def test_a_reclaim_of_more_than_its_node_holds_raises():
    trace = ColumnarTrace(app_name="t")
    trace.append(AllocEvent(1, "app.A", 64, "<main>", None))
    trace.append(WorkEvent("app.A", None, 0.5))
    fold = GraphFold(trace, ExecutionGraph(), set())
    fold.reclaim(1, "app.A", 65)
    with pytest.raises(PartitioningError,
                       match=r"'app.A' memory went negative \(-1\)"):
        fold.advance(2)
