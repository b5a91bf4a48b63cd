"""Parity: the heap-based candidate generator vs the O(V^2) oracle.

The heap-based ``generate_candidates`` must be a pure optimisation — on
any graph it has to emit the *identical* candidate sequence (same node
sets, same cut statistics, same order) as the original implementation,
which re-scanned every surrogate node per move.  The oracle below is
that original implementation, kept verbatim-in-spirit as a reference.
"""

import random

import pytest

from repro.core.graph import ExecutionGraph

from .mincut_oracle import generate_candidates


def oracle_generate_candidates(graph, pinned):
    """The seed O(V^2) generator: per-move ``max()`` scan, eager sets."""
    nodes = set(graph.nodes())
    client = {node for node in pinned if node in nodes}
    if not client:
        client = {
            max(nodes,
                key=lambda n: (graph.connectivity(n, nodes - {n}), n))
        }
    surrogate = set(nodes) - client
    if not surrogate:
        return []

    total_memory = graph.total_memory()
    total_cpu = graph.total_cpu()
    cut_count, cut_bytes = graph.cut(frozenset(client))
    conn_bytes = {}
    conn_count = {}
    for node in surrogate:
        nbytes = ncount = 0
        for neighbor in graph.neighbors(node):
            if neighbor in client:
                edge = graph.edge(node, neighbor)
                nbytes += edge.bytes
                ncount += edge.count
        conn_bytes[node] = nbytes
        conn_count[node] = ncount

    client_memory = graph.total_memory(client)
    client_cpu = graph.total_cpu(client)

    candidates = []

    def record():
        candidates.append({
            "client_nodes": frozenset(client),
            "surrogate_nodes": frozenset(surrogate),
            "cut_count": cut_count,
            "cut_bytes": cut_bytes,
            "surrogate_memory": total_memory - client_memory,
            "surrogate_cpu": total_cpu - client_cpu,
            "client_cpu": client_cpu,
        })

    record()
    while len(surrogate) > 1:
        moved = max(
            surrogate,
            key=lambda n: (conn_bytes[n], conn_count[n], n),
        )
        surrogate.discard(moved)
        client.add(moved)
        client_memory += graph.node(moved).memory_bytes
        client_cpu += graph.node(moved).cpu_seconds
        cut_bytes -= conn_bytes.pop(moved)
        cut_count -= conn_count.pop(moved)
        for neighbor in graph.neighbors(moved):
            if neighbor in surrogate:
                edge = graph.edge(moved, neighbor)
                cut_bytes += edge.bytes
                cut_count += edge.count
                conn_bytes[neighbor] += edge.bytes
                conn_count[neighbor] += edge.count
        record()
    return candidates


def random_graph(seed, node_count, edge_factor, with_cpu=False):
    """A seeded random graph; ``edge_factor`` scales edge density."""
    rng = random.Random(seed)
    graph = ExecutionGraph()
    nodes = [f"n{i:03d}" for i in range(node_count)]
    for node in nodes:
        graph.add_memory(node, rng.randrange(0, 10_000))
        if with_cpu:
            graph.add_cpu(node, rng.random() * 5.0)
    edge_count = int(node_count * edge_factor)
    for _ in range(edge_count):
        a, b = rng.sample(nodes, 2)
        graph.record_interaction(
            a, b, rng.randrange(1, 5_000), count=rng.randrange(1, 20)
        )
    return graph, nodes


# 20 seeded scenarios: (seed, node_count, edge_factor, pinned_stride).
# pinned_stride 0 means no pinned seeds (most-connected-node seeding).
SCENARIOS = [
    (1, 5, 1.0, 1),
    (2, 8, 0.5, 0),
    (3, 8, 3.0, 2),
    (4, 12, 1.5, 0),
    (5, 12, 4.0, 3),
    (6, 20, 0.2, 0),
    (7, 20, 2.0, 4),
    (8, 20, 6.0, 1),
    (9, 30, 1.0, 0),
    (10, 30, 3.0, 5),
    (11, 40, 0.5, 0),
    (12, 40, 2.5, 7),
    (13, 50, 1.0, 10),
    (14, 50, 5.0, 0),
    (15, 60, 0.1, 0),
    (16, 60, 2.0, 6),
    (17, 75, 1.5, 0),
    (18, 75, 4.0, 15),
    (19, 90, 0.8, 9),
    (20, 90, 3.5, 0),
]


@pytest.mark.parametrize("seed,node_count,edge_factor,pinned_stride",
                         SCENARIOS)
def test_heap_generator_matches_oracle(seed, node_count, edge_factor,
                                       pinned_stride):
    with_cpu = seed % 2 == 0
    graph, nodes = random_graph(seed, node_count, edge_factor,
                                with_cpu=with_cpu)
    if pinned_stride:
        pinned = nodes[::pinned_stride]
    else:
        pinned = []

    actual = generate_candidates(graph, pinned)
    expected = oracle_generate_candidates(graph, pinned)

    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got.client_nodes == want["client_nodes"], index
        assert got.surrogate_nodes == want["surrogate_nodes"], index
        assert got.cut_count == want["cut_count"], index
        assert got.cut_bytes == want["cut_bytes"], index
        assert got.surrogate_memory == want["surrogate_memory"], index
        assert got.surrogate_cpu == pytest.approx(want["surrogate_cpu"]), index
        assert got.client_cpu == pytest.approx(want["client_cpu"]), index


def test_parity_on_disconnected_graph():
    graph = ExecutionGraph()
    graph.record_interaction("a", "b", 100, count=3)
    graph.record_interaction("c", "d", 50, count=2)
    graph.add_memory("e", 10)  # isolated node, no edges at all
    for node in ("a", "b", "c", "d"):
        graph.add_memory(node, 1000)

    actual = generate_candidates(graph, ["a"])
    expected = oracle_generate_candidates(graph, ["a"])
    assert [
        (c.client_nodes, c.surrogate_nodes, c.cut_count, c.cut_bytes)
        for c in actual
    ] == [
        (w["client_nodes"], w["surrogate_nodes"], w["cut_count"],
         w["cut_bytes"])
        for w in expected
    ]
