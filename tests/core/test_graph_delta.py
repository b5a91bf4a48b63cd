"""Dirty tracking and graph deltas."""

from repro.core.graph import ExecutionGraph, edge_key
from tests.helpers import delta_names


def small_graph():
    graph = ExecutionGraph()
    graph.add_memory("a", 100)
    graph.add_memory("b", 200)
    graph.add_memory("c", 300)
    graph.record_interaction("a", "b", 10)
    graph.record_interaction("b", "c", 20)
    return graph


class TestDirtyTracking:
    def test_every_mutator_bumps_the_version(self):
        graph = ExecutionGraph()
        versions = [graph.version]
        graph.ensure_node("a")
        versions.append(graph.version)
        graph.add_memory("a", 64)
        versions.append(graph.version)
        graph.note_object_created("a")
        versions.append(graph.version)
        graph.note_object_freed("a")
        versions.append(graph.version)
        graph.add_cpu("a", 0.5)
        versions.append(graph.version)
        graph.record_interaction("a", "b", 8)
        versions.append(graph.version)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_drain_returns_dirty_sets_and_clears_them(self):
        graph = small_graph()
        delta = graph.drain_dirty()
        nodes, edges = delta_names(graph, delta)
        assert nodes == {"a", "b", "c"}
        assert edges == {("a", "b"), ("b", "c")}
        assert not delta.empty
        assert delta.size() == 5
        second = graph.drain_dirty()
        assert second.empty
        assert second.size() == 0

    def test_mutation_after_drain_dirties_only_what_changed(self):
        graph = small_graph()
        graph.drain_dirty()
        graph.record_interaction("a", "b", 5)
        graph.add_cpu("c", 1.0)
        nodes, edges = delta_names(graph, graph.drain_dirty())
        assert edges == {edge_key("a", "b")}
        assert nodes == {"c"}

    def test_copy_starts_clean_at_the_same_version(self):
        graph = small_graph()
        clone = graph.copy()
        assert clone.version == graph.version
        assert clone.drain_dirty().empty
