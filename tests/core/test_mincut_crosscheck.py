"""Cross-check: Stoer–Wagner global min cut vs the candidate generator.

The modified MINCUT heuristic explores only the cuts along one greedy
move order, so the globally minimal cut weight found by Stoer–Wagner
must be a lower bound on the best (min-bandwidth) candidate's cut
bytes.  Both algorithms' reported weights must also agree with
``graph.cut`` recomputed from scratch on the partition they return.
"""

import random

import pytest

from repro.core.graph import ExecutionGraph

from .mincut_oracle import (
    generate_candidates,
    min_bandwidth_candidate,
    stoer_wagner,
)


def random_connected_graph(seed):
    rng = random.Random(seed)
    node_count = rng.randrange(4, 40)
    graph = ExecutionGraph()
    nodes = [f"n{i:03d}" for i in range(node_count)]
    for node in nodes:
        graph.add_memory(node, rng.randrange(16, 4_096))
    # A random spanning chain keeps the graph connected, then extra
    # random edges raise the density.
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        graph.record_interaction(a, b, rng.randrange(1, 2_000))
    for _ in range(int(node_count * rng.uniform(0.5, 3.0))):
        a, b = rng.sample(nodes, 2)
        graph.record_interaction(a, b, rng.randrange(1, 2_000))
    return graph, nodes


@pytest.mark.parametrize("seed", range(50))
def test_global_min_cut_lower_bounds_the_heuristic(seed):
    graph, nodes = random_connected_graph(seed)
    rng = random.Random(seed + 1_000)
    stride = rng.choice((0, 3, 5))
    pinned = nodes[::stride] if stride else []

    sw_bytes, sw_partition = stoer_wagner(graph)
    # The reported weight matches a from-scratch cut recomputation.
    _, recomputed_bytes = graph.cut(sw_partition)
    assert sw_bytes == recomputed_bytes
    assert 0 < len(sw_partition) < graph.node_count

    candidates = generate_candidates(graph, pinned)
    best = min_bandwidth_candidate(candidates)
    if best is None:
        return
    # The heuristic's candidate statistics are self-consistent too.
    _, best_bytes = graph.cut(best.client_nodes)
    assert best.cut_bytes == best_bytes
    # Stoer–Wagner is unconstrained: it can never do worse than any cut
    # the constrained heuristic produced.
    assert sw_bytes <= best.cut_bytes
