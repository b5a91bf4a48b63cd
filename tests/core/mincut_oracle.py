"""Reference MINCUT kernel and Stoer–Wagner: the partitioner's test oracle.

The paper derives its heuristic from Stoer & Wagner's simple min-cut
algorithm: seed the client partition with every class that cannot be
offloaded (native methods), then repeatedly move the node with the
greatest connectivity to the client partition, recording *every*
intermediate partitioning.  The policy layer then evaluates all of the
candidates and picks the one that best satisfies the policy — which may
not be the global minimum cut, but will, for example, actually free
enough memory.

The classic Stoer–Wagner global minimum cut is here too, both as the
ancestry of the heuristic and as an ablation baseline (it can return a
cut that frees almost nothing, which is precisely the paper's argument
for the modification).

Both algorithms select their next vertex through a lazy-deletion heap
rather than a linear scan, so one candidate chain costs
O((V + E) log V) instead of O(V^2 + E); connectivities only ever grow
while a vertex is selectable, so the freshest heap entry for a vertex is
always the largest and stale entries can simply be skipped on pop.

Nothing in ``src/`` runs this kernel.  ``Partitioner`` and
``IncrementalPartitioner`` run the flat-index rewrite of the same
heuristic (``repro.core.flatgraph``), which adds warm starts by bounded
local repair; this cold string-keyed generator is what that kernel, the
chain-scanning policies and the benchmark ablations are tested
against.  The two must stay bit-identical — same candidate chains,
statistics, and float accumulation order — which
``tests/core/test_flatgraph_parity.py`` enforces on randomized graphs;
behavioural changes to either must be mirrored in the other.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.flatgraph import CandidatePartition, _MoveLog
from repro.core.graph import ExecutionGraph
from repro.errors import PartitioningError


class _MaxOrderStr:
    """Reverses string ordering so heapq's min-heap pops the max id.

    The heuristic breaks connectivity ties towards the *largest* node
    id (the historical ``max()`` scan compared ``(bytes, count, node)``
    tuples); wrapping the id keeps that exact tie-break under heapq.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_MaxOrderStr") -> bool:
        return self.value > other.value


def _seed_nodes(graph: ExecutionGraph, pinned: Iterable[str]) -> Set[str]:
    """Client-partition seed: pinned nodes present in the graph.

    If nothing is pinned (an application with no native classes), seed
    with the most-connected node, mirroring Stoer–Wagner's arbitrary
    start vertex but made deterministic.
    """
    nodes = set(graph.nodes())
    seed = {node for node in pinned if node in nodes}
    if seed:
        return seed
    if not nodes:
        raise PartitioningError("cannot partition an empty execution graph")
    best = max(
        nodes,
        key=lambda n: (graph.connectivity(n, nodes - {n}), n),
    )
    return {best}


def generate_candidates(
    graph: ExecutionGraph,
    pinned: Iterable[str],
) -> List[CandidatePartition]:
    """Run the modified MINCUT heuristic, returning all candidates.

    Candidates are ordered from the largest offload (everything that is
    not pinned) down to offloading a single node.  The number of
    candidates is strictly smaller than the number of nodes, as the
    paper notes.

    The most-connected surrogate node is drawn from a lazy-deletion
    heap keyed on ``(conn_bytes, conn_count, node)``: connectivity to
    the client only grows, so each relaxation pushes a fresh entry and
    pops discard entries that no longer match the live connectivity.
    """
    client: Set[str] = _seed_nodes(graph, pinned)
    surrogate: Set[str] = set(graph.nodes()) - client
    if not surrogate:
        return []

    total_memory = graph.total_memory()
    total_cpu = graph.total_cpu()

    # Incrementally maintained cut statistics and per-node connectivity
    # (bytes and counts towards the client partition).
    cut_count, cut_bytes = graph.cut(frozenset(client))
    conn_bytes: Dict[str, int] = {}
    conn_count: Dict[str, int] = {}
    for node in surrogate:
        nbytes = ncount = 0
        for neighbor, edge in graph.adjacent_edges(node):
            if neighbor in client:
                nbytes += edge.bytes
                ncount += edge.count
        conn_bytes[node] = nbytes
        conn_count[node] = ncount

    heap: List[Tuple[int, int, _MaxOrderStr]] = [
        (-conn_bytes[node], -conn_count[node], _MaxOrderStr(node))
        for node in surrogate
    ]
    heapq.heapify(heap)

    client_memory = graph.total_memory(client)
    client_cpu = graph.total_cpu(client)

    log = _MoveLog(frozenset(client))
    candidates: List[CandidatePartition] = []

    def record() -> None:
        candidates.append(
            CandidatePartition._deferred(
                log=log,
                moves_applied=len(log.order),
                cut_count=cut_count,
                cut_bytes=cut_bytes,
                surrogate_memory=total_memory - client_memory,
                surrogate_cpu=total_cpu - client_cpu,
                client_cpu=client_cpu,
            )
        )

    record()
    remaining = len(surrogate)
    while remaining > 1:
        # Most tightly coupled to the client partition; deterministic
        # tie-break on (count, node id).  Stale heap entries (pushed
        # before a later relaxation raised the node's connectivity, or
        # for already-moved nodes) are skipped.
        while True:
            neg_bytes, neg_count, wrapped = heapq.heappop(heap)
            moved = wrapped.value
            current = conn_bytes.get(moved)
            if (
                current is not None
                and current == -neg_bytes
                and conn_count[moved] == -neg_count
            ):
                break
        remaining -= 1
        stats = graph.node(moved)
        client_memory += stats.memory_bytes
        client_cpu += stats.cpu_seconds
        # The moved node's client-side edges leave the cut; its edges to
        # the remaining surrogate nodes join the cut.
        cut_bytes -= conn_bytes.pop(moved)
        cut_count -= conn_count.pop(moved)
        for neighbor, edge in graph.adjacent_edges(moved):
            neighbor_bytes = conn_bytes.get(neighbor)
            if neighbor_bytes is None:
                continue
            cut_bytes += edge.bytes
            cut_count += edge.count
            neighbor_bytes += edge.bytes
            neighbor_count = conn_count[neighbor] + edge.count
            conn_bytes[neighbor] = neighbor_bytes
            conn_count[neighbor] = neighbor_count
            heapq.heappush(
                heap,
                (-neighbor_bytes, -neighbor_count, _MaxOrderStr(neighbor)),
            )
        log.order.append(moved)
        record()
    # The never-moved remainder closes the move order so lazy candidates
    # can slice their surrogate side out of it.
    log.order.extend(conn_bytes)
    return candidates


def min_bandwidth_candidate(
    candidates: List[CandidatePartition],
) -> Optional[CandidatePartition]:
    """The candidate with the globally smallest cut bytes (no constraints)."""
    if not candidates:
        return None
    return min(candidates, key=lambda c: (c.cut_bytes, c.cut_count))


def stoer_wagner(graph: ExecutionGraph) -> Tuple[int, FrozenSet[str]]:
    """Classic Stoer–Wagner global minimum cut (weight = edge bytes).

    Returns ``(cut_bytes, partition)`` where ``partition`` is one side of
    the minimum cut.  Used as an ablation baseline: the unmodified
    algorithm is free to return a cut that isolates a single node and
    frees almost no memory.

    Contractions are carried out on per-vertex adjacency maps, so each
    maximum-adjacency phase walks only real edges (heap-ordered) and a
    merge touches only the merged vertex's neighbors instead of every
    active vertex pair.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise PartitioningError("minimum cut requires at least two nodes")

    # Contractible per-vertex weight maps (vertex -> neighbor -> bytes).
    adjacency: Dict[str, Dict[str, int]] = {n: {} for n in nodes}
    for (a, b), edge in graph.edges():
        adjacency[a][b] = edge.bytes
        adjacency[b][a] = edge.bytes

    groups: Dict[str, Set[str]] = {n: {n} for n in nodes}
    active = set(nodes)

    best_cut = None
    best_partition: FrozenSet[str] = frozenset()

    while len(active) > 1:
        # Minimum cut phase (maximum adjacency ordering), drawn from a
        # lazy-deletion heap with the historical (conn, node) tie-break.
        order = []
        conn: Dict[str, int] = {n: 0 for n in active}
        remaining = set(active)
        heap = [(0, _MaxOrderStr(n)) for n in active]
        heapq.heapify(heap)
        while remaining:
            while True:
                neg_conn, wrapped = heapq.heappop(heap)
                nxt = wrapped.value
                if nxt in remaining and conn[nxt] == -neg_conn:
                    break
            remaining.discard(nxt)
            order.append(nxt)
            for other, other_weight in adjacency[nxt].items():
                if other_weight and other in remaining:
                    connected = conn[other] + other_weight
                    conn[other] = connected
                    heapq.heappush(heap, (-connected, _MaxOrderStr(other)))
        last = order[-1]
        cut_of_phase = conn[last]
        if best_cut is None or cut_of_phase < best_cut:
            best_cut = cut_of_phase
            best_partition = frozenset(groups[last])
        # Merge the last two vertices of the ordering.
        merged_into = order[-2]
        groups[merged_into] |= groups[last]
        merged_adjacency = adjacency[merged_into]
        merged_adjacency.pop(last, None)
        for other, joining_weight in adjacency.pop(last).items():
            if other == merged_into:
                continue
            adjacency[other].pop(last, None)
            if joining_weight:
                combined = merged_adjacency.get(other, 0) + joining_weight
                merged_adjacency[other] = combined
                adjacency[other][merged_into] = combined
        active.discard(last)
    assert best_cut is not None
    return best_cut, best_partition
