"""Unit and property tests for the partitioning heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ExecutionGraph
from repro.errors import PartitioningError

from .mincut_oracle import (
    generate_candidates,
    min_bandwidth_candidate,
    stoer_wagner,
)


def clustered_graph():
    """Two tight clusters joined by one thin edge.

    Cluster 1 (pinned ui + model), cluster 2 (data + cache), joined by
    a single 5-byte edge: the natural cut separates the clusters.
    """
    graph = ExecutionGraph()
    graph.record_interaction("ui", "model", 10_000, count=100)
    graph.record_interaction("data", "cache", 8_000, count=80)
    graph.record_interaction("model", "data", 5, count=1)
    for node, memory in [
        ("ui", 100), ("model", 200), ("data", 5000), ("cache", 3000)
    ]:
        graph.add_memory(node, memory)
    return graph


class TestGenerateCandidates:
    def test_candidate_count_is_less_than_node_count(self):
        graph = clustered_graph()
        candidates = generate_candidates(graph, pinned=["ui"])
        assert 0 < len(candidates) < graph.node_count

    def test_pinned_nodes_always_stay_on_client(self):
        graph = clustered_graph()
        for candidate in generate_candidates(graph, pinned=["ui"]):
            assert "ui" in candidate.client_nodes
            assert "ui" not in candidate.surrogate_nodes

    def test_partitions_cover_all_nodes_disjointly(self):
        graph = clustered_graph()
        all_nodes = set(graph.nodes())
        for candidate in generate_candidates(graph, pinned=["ui"]):
            assert candidate.client_nodes | candidate.surrogate_nodes == all_nodes
            assert not candidate.client_nodes & candidate.surrogate_nodes

    def test_first_candidate_offloads_everything_unpinned(self):
        graph = clustered_graph()
        first = generate_candidates(graph, pinned=["ui"])[0]
        assert first.client_nodes == frozenset({"ui"})
        assert first.surrogate_nodes == frozenset({"model", "data", "cache"})

    def test_last_candidate_offloads_single_node(self):
        graph = clustered_graph()
        last = generate_candidates(graph, pinned=["ui"])[-1]
        assert len(last.surrogate_nodes) == 1

    def test_moves_most_connected_node_first(self):
        graph = clustered_graph()
        candidates = generate_candidates(graph, pinned=["ui"])
        # 'model' has the greatest connectivity to the client seed {ui},
        # so the second candidate must have pulled it back to the client.
        assert "model" in candidates[1].client_nodes

    def test_cluster_cut_is_among_candidates(self):
        graph = clustered_graph()
        candidates = generate_candidates(graph, pinned=["ui"])
        best = min_bandwidth_candidate(candidates)
        assert best.cut_bytes == 5
        assert best.surrogate_nodes == frozenset({"data", "cache"})

    def test_memory_and_cpu_annotations(self):
        graph = clustered_graph()
        graph.add_cpu("data", 2.0)
        graph.add_cpu("ui", 1.0)
        candidates = generate_candidates(graph, pinned=["ui"])
        best = min_bandwidth_candidate(candidates)
        assert best.surrogate_memory == 8000
        assert best.surrogate_cpu == pytest.approx(2.0)
        assert best.client_cpu == pytest.approx(1.0)

    def test_everything_pinned_yields_no_candidates(self):
        graph = clustered_graph()
        assert generate_candidates(
            graph, pinned=["ui", "model", "data", "cache"]
        ) == []

    def test_no_pins_seeds_with_most_connected_node(self):
        graph = clustered_graph()
        candidates = generate_candidates(graph, pinned=[])
        assert candidates
        seed_client = candidates[0].client_nodes
        assert len(seed_client) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(PartitioningError):
            generate_candidates(ExecutionGraph(), pinned=[])

    def test_disconnected_nodes_are_still_placed(self):
        graph = clustered_graph()
        graph.add_memory("island", 42)
        candidates = generate_candidates(graph, pinned=["ui"])
        for candidate in candidates:
            assert (
                "island" in candidate.client_nodes
                or "island" in candidate.surrogate_nodes
            )

    def test_min_bandwidth_of_empty_is_none(self):
        assert min_bandwidth_candidate([]) is None


class TestCandidateCutCorrectness:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_incremental_cut_matches_recomputation(self, data):
        node_count = data.draw(st.integers(min_value=3, max_value=7))
        nodes = [f"n{i}" for i in range(node_count)]
        graph = ExecutionGraph()
        for node in nodes:
            graph.add_memory(node, data.draw(st.integers(0, 100)))
        for i in range(node_count):
            for j in range(i + 1, node_count):
                if data.draw(st.booleans()):
                    graph.record_interaction(
                        nodes[i], nodes[j],
                        data.draw(st.integers(1, 100)),
                        count=data.draw(st.integers(1, 4)),
                    )
        pinned = [nodes[0]]
        for candidate in generate_candidates(graph, pinned):
            count, nbytes = graph.cut(candidate.client_nodes)
            assert candidate.cut_count == count
            assert candidate.cut_bytes == nbytes
            assert candidate.surrogate_memory == graph.total_memory(
                candidate.surrogate_nodes
            )


class TestStoerWagner:
    def test_finds_the_thin_cluster_cut(self):
        graph = clustered_graph()
        cut_bytes, partition = stoer_wagner(graph)
        assert cut_bytes == 5
        assert partition in (
            frozenset({"ui", "model"}),
            frozenset({"data", "cache"}),
        )

    def test_two_node_graph(self):
        graph = ExecutionGraph()
        graph.record_interaction("a", "b", 7)
        cut_bytes, partition = stoer_wagner(graph)
        assert cut_bytes == 7
        assert len(partition) == 1

    def test_single_node_rejected(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 1)
        with pytest.raises(PartitioningError):
            stoer_wagner(graph)

    def test_global_min_cut_can_free_almost_no_memory(self):
        """The paper's motivation for modifying MINCUT.

        A leaf node attached by a feather-weight edge is the global
        minimum cut, but offloading it frees almost nothing; the
        modified heuristic exposes better candidates to the policy.
        """
        graph = clustered_graph()
        graph.record_interaction("ui", "tiny", 1, count=1)
        graph.add_memory("tiny", 8)
        cut_bytes, partition = stoer_wagner(graph)
        assert partition == frozenset({"tiny"})
        assert graph.total_memory(partition) == 8
        candidates = generate_candidates(graph, pinned=["ui"])
        assert any(
            c.surrogate_memory >= 8000 for c in candidates
        ), "heuristic must still expose the high-memory candidates"

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_stoer_wagner_matches_bruteforce(self, data):
        node_count = data.draw(st.integers(min_value=2, max_value=6))
        nodes = [f"n{i}" for i in range(node_count)]
        graph = ExecutionGraph()
        for node in nodes:
            graph.ensure_node(node)
        for i in range(node_count):
            for j in range(i + 1, node_count):
                graph.record_interaction(
                    nodes[i], nodes[j], data.draw(st.integers(1, 50))
                )
        best = min(
            graph.cut(frozenset(
                n for k, n in enumerate(nodes) if mask & (1 << k)
            ))[1]
            for mask in range(1, (1 << node_count) - 1)
        )
        cut_bytes, _partition = stoer_wagner(graph)
        assert cut_bytes == best
