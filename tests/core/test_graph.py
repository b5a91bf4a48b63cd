"""Unit and property tests for the execution graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import (
    EdgeStats,
    ExecutionGraph,
    edge_key,
    node_class,
    object_node_id,
)
from repro.errors import PartitioningError
from tests.helpers import delta_names


def make_triangle():
    """a-b heavy, b-c light, a-c medium."""
    graph = ExecutionGraph()
    graph.record_interaction("a", "b", 1000, count=10)
    graph.record_interaction("b", "c", 10, count=1)
    graph.record_interaction("a", "c", 100, count=2)
    graph.add_memory("a", 500)
    graph.add_memory("b", 300)
    graph.add_memory("c", 200)
    return graph


class TestNodeNaming:
    def test_object_node_id_roundtrip(self):
        node = object_node_id("int[]", 42)
        assert node == "int[]#42"
        assert node_class(node) == "int[]"

    def test_node_class_of_plain_node(self):
        assert node_class("editor.Document") == "editor.Document"

    def test_edge_key_is_order_independent(self):
        assert edge_key("b", "a") == edge_key("a", "b")


class TestConstruction:
    def test_self_interactions_ignored(self):
        graph = ExecutionGraph()
        graph.record_interaction("a", "a", 100)
        assert graph.link_count == 0

    def test_interactions_accumulate_per_pair(self):
        graph = ExecutionGraph()
        graph.record_interaction("a", "b", 10)
        graph.record_interaction("b", "a", 5, count=2)
        edge = graph.edge("a", "b")
        assert edge.count == 3
        assert edge.bytes == 15
        assert graph.link_count == 1

    def test_memory_tracking(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 100)
        graph.add_memory("a", -40)
        assert graph.node("a").memory_bytes == 60

    def test_memory_cannot_go_negative(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 10)
        with pytest.raises(PartitioningError):
            graph.add_memory("a", -20)

    def test_object_population_tracking(self):
        graph = ExecutionGraph()
        graph.note_object_created("a")
        graph.note_object_created("a")
        graph.note_object_freed("a")
        node = graph.node("a")
        assert node.live_objects == 1
        assert node.created_objects == 2

    def test_cpu_accumulates(self):
        graph = ExecutionGraph()
        graph.add_cpu("a", 0.5)
        graph.add_cpu("a", 0.25)
        assert graph.node("a").cpu_seconds == pytest.approx(0.75)

    def test_negative_cpu_rejected(self):
        with pytest.raises(PartitioningError):
            ExecutionGraph().add_cpu("a", -1.0)

    def test_unknown_node_lookup_raises(self):
        with pytest.raises(PartitioningError):
            ExecutionGraph().node("ghost")

    @pytest.mark.parametrize("nbytes, count", [(-11, 0), (0, -4), (-11, -4)])
    def test_negative_edge_rejected_without_mutation(self, nbytes, count):
        graph = ExecutionGraph()
        graph.record_interaction("a", "b", 10, count=3)
        graph.drain_dirty()
        graph.add_memory("c", 5)  # leaves a dirty node behind
        version = graph.version
        for a, b in (("a", "b"), ("a", "new")):  # existing, then new edge
            with pytest.raises(PartitioningError):
                graph.record_interaction(a, b, nbytes, count=count)
        assert sorted(graph.nodes()) == ["a", "b", "c"]
        assert graph.link_count == 1
        assert graph.edge("a", "b") == EdgeStats(count=3, bytes=10)
        assert graph.neighbors("a") == {"b"}
        assert graph.version == version
        nodes, edges = delta_names(graph, graph.drain_dirty())
        assert nodes == {"c"} and edges == frozenset()

    def test_negative_delta_may_shrink_edge_to_zero(self):
        graph = ExecutionGraph()
        graph.record_interaction("a", "b", 10, count=3)
        graph.record_interaction("b", "a", -4, count=0)
        assert graph.edge("a", "b") == EdgeStats(count=3, bytes=6)
        graph.record_interaction("a", "b", -6, count=-3)
        assert graph.edge("a", "b") == EdgeStats(count=0, bytes=0)
        _, edges = delta_names(graph, graph.drain_dirty())
        assert edges == {("a", "b")}


class TestQueries:
    def test_cut_counts_crossing_edges_only(self):
        graph = make_triangle()
        count, nbytes = graph.cut(frozenset({"a"}))
        assert count == 12
        assert nbytes == 1100

    def test_cut_of_everything_is_empty(self):
        graph = make_triangle()
        assert graph.cut(frozenset({"a", "b", "c"})) == (0, 0)

    def test_connectivity(self):
        graph = make_triangle()
        assert graph.connectivity("c", {"a", "b"}) == 110
        assert graph.connectivity("c", {"a"}) == 100
        assert graph.connectivity("c", set()) == 0

    def test_totals(self):
        graph = make_triangle()
        assert graph.total_memory() == 1000
        assert graph.total_memory(["a", "b"]) == 800
        assert graph.total_interaction_bytes() == 1110
        assert graph.total_interaction_count() == 13

    def test_neighbors(self):
        graph = make_triangle()
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.neighbors("ghost") == set()

    def test_neighbors_view_is_read_only(self):
        graph = make_triangle()
        view = graph.neighbors("a")
        with pytest.raises(AttributeError):
            view.add("z")
        with pytest.raises(AttributeError):
            view.discard("b")
        assert graph.neighbors("a") == {"b", "c"}

    def test_neighbors_view_is_live(self):
        graph = make_triangle()
        view = graph.neighbors("a")
        graph.record_interaction("a", "d", 1)
        assert "d" in view

    def test_neighbors_view_set_operators_return_sets(self):
        graph = make_triangle()
        view = graph.neighbors("a")
        assert view & {"b"} == {"b"}
        assert view | {"z"} == {"b", "c", "z"}
        assert view - {"b"} == {"c"}
        assert view ^ {"b", "z"} == {"c", "z"}

    def test_adjacent_edges_pairs_neighbors_with_stats(self):
        graph = make_triangle()
        pairs = dict(graph.adjacent_edges("a"))
        assert set(pairs) == {"b", "c"}
        assert pairs["b"].bytes == 1000
        assert pairs["c"].count == 2
        assert dict(graph.adjacent_edges("ghost")) == {}


class TestSerialisation:
    def test_roundtrip_preserves_everything(self):
        graph = make_triangle()
        graph.add_cpu("a", 1.5)
        graph.note_object_created("a")
        clone = ExecutionGraph.from_dict(graph.to_dict())
        assert clone.node_count == graph.node_count
        assert clone.link_count == graph.link_count
        assert clone.total_memory() == graph.total_memory()
        assert clone.node("a").cpu_seconds == pytest.approx(1.5)
        assert clone.node("a").created_objects == 1
        assert clone.edge("a", "b").bytes == 1000

    def test_from_dict_rejects_negative_edge(self):
        data = make_triangle().to_dict()
        data["edges"][0]["bytes"] = -1
        with pytest.raises(PartitioningError):
            ExecutionGraph.from_dict(data)

    def test_copy_is_independent(self):
        graph = make_triangle()
        clone = graph.copy()
        clone.add_memory("a", 100)
        assert graph.node("a").memory_bytes == 500


class TestCopy:
    def make_source(self):
        graph = make_triangle()
        graph.add_cpu("a", 1.5)
        graph.note_object_created("a")
        graph.note_object_created("b")
        graph.note_object_freed("b")
        # Object-granularity node ids survive copying too.
        arr = object_node_id("int[]", 42)
        graph.add_memory(arr, 400)
        graph.record_interaction("a", arr, 64, count=4)
        return graph

    def test_copy_is_structurally_equal(self):
        graph = self.make_source()
        clone = graph.copy()
        assert clone.to_dict() == graph.to_dict()
        assert clone.node_count == graph.node_count
        assert clone.link_count == graph.link_count
        assert sorted(clone.nodes()) == sorted(graph.nodes())
        for node_id in graph.nodes():
            assert clone.neighbors(node_id) == graph.neighbors(node_id)

    def test_copy_preserves_object_granularity_nodes(self):
        graph = self.make_source()
        clone = graph.copy()
        arr = object_node_id("int[]", 42)
        assert clone.has_node(arr)
        assert clone.node(arr).memory_bytes == 400
        assert clone.edge("a", arr).count == 4

    def test_mutating_copy_never_leaks_back(self):
        graph = self.make_source()
        clone = graph.copy()
        clone.add_memory("a", 111)
        clone.add_cpu("a", 9.0)
        clone.note_object_created("a")
        clone.record_interaction("a", "b", 5, count=1)
        clone.record_interaction("new1", "new2", 10)
        assert graph.node("a").memory_bytes == 500
        assert graph.node("a").cpu_seconds == pytest.approx(1.5)
        assert graph.node("a").created_objects == 1
        assert graph.edge("a", "b").bytes == 1000
        assert graph.edge("a", "b").count == 10
        assert not graph.has_node("new1")
        assert "new2" not in graph.neighbors("new1")

    def test_mutating_source_never_reaches_copy(self):
        graph = self.make_source()
        clone = graph.copy()
        graph.add_memory("b", 77)
        graph.record_interaction("b", "c", 990, count=9)
        graph.record_interaction("only-source", "c", 1)
        assert clone.node("b").memory_bytes == 300
        assert clone.edge("b", "c").bytes == 10
        assert clone.edge("b", "c").count == 1
        assert not clone.has_node("only-source")
        assert "only-source" not in clone.neighbors("c")


@st.composite
def random_graph(draw):
    node_count = draw(st.integers(min_value=2, max_value=8))
    nodes = [f"n{i}" for i in range(node_count)]
    graph = ExecutionGraph()
    for node in nodes:
        graph.add_memory(node, draw(st.integers(min_value=0, max_value=1000)))
    edge_count = draw(st.integers(min_value=0, max_value=12))
    for _ in range(edge_count):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        graph.record_interaction(
            a, b,
            draw(st.integers(min_value=1, max_value=500)),
            count=draw(st.integers(min_value=1, max_value=5)),
        )
    return graph, nodes


class TestCutProperties:
    @given(random_graph(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cut_is_symmetric(self, graph_nodes, data):
        graph, nodes = graph_nodes
        subset = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
        )
        complement = frozenset(nodes) - subset
        assert graph.cut(subset) == graph.cut(complement)

    @given(random_graph(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cut_matches_bruteforce(self, graph_nodes, data):
        graph, nodes = graph_nodes
        subset = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
        )
        expected_bytes = 0
        expected_count = 0
        for (a, b), edge in graph.edges():
            if (a in subset) != (b in subset):
                expected_bytes += edge.bytes
                expected_count += edge.count
        assert graph.cut(subset) == (expected_count, expected_bytes)

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_serialisation_roundtrip(self, graph_nodes):
        graph, _nodes = graph_nodes
        clone = ExecutionGraph.from_dict(graph.to_dict())
        assert clone.to_dict() == graph.to_dict()


class TestDotExport:
    def test_plain_dot_contains_nodes_and_edges(self):
        graph = make_triangle()
        dot = graph.to_dot()
        assert dot.startswith("graph execution {")
        assert '"a" -- "b"' in dot
        assert dot.rstrip().endswith("}")

    def test_partitioned_dot_marks_cut_edges(self):
        graph = make_triangle()
        dot = graph.to_dot(partition=frozenset({"c"}))
        # Edges crossing to c are dashed; the internal a-b edge is not.
        assert dot.count("style=dashed") == 2
        assert "lightsteelblue" in dot

    def test_min_edge_bytes_filters(self):
        graph = make_triangle()
        dot = graph.to_dot(min_edge_bytes=50)
        assert '"b" -- "c"' not in dot
        assert '"a" -- "b"' in dot
