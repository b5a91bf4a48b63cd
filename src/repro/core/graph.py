"""The execution graph.

The paper represents execution history as a fully connected weighted
graph: each node is a class annotated with the memory occupied by its
objects (and, for the processing experiments, the CPU time spent in its
methods); each edge carries the number of interactions between two
classes and the total bytes exchanged through parameters and return
values.  Interactions within a single class are not recorded.

Nodes are identified by strings.  At class granularity the id is the
class name; under the "Array" enhancement, individual primitive arrays
become their own nodes with ids like ``int[]#1042`` (see
:func:`object_node_id`), allowing the placement of single arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    ItemsView,
    Iterator,
    Optional,
    Set,
    Tuple,
)

from ..errors import PartitioningError


def object_node_id(class_name: str, oid: int) -> str:
    """Node id for a single object tracked at object granularity."""
    return f"{class_name}#{oid}"


def node_class(node_id: str) -> str:
    """Class name of a node id (strips any ``#oid`` suffix).

    >>> node_class("int[]#42")
    'int[]'
    >>> node_class("editor.Document")
    'editor.Document'
    """
    return node_id.split("#", 1)[0]


@dataclass
class NodeStats:
    """Per-node annotations: live memory, CPU self-time, populations."""

    memory_bytes: int = 0
    cpu_seconds: float = 0.0
    live_objects: int = 0
    created_objects: int = 0


@dataclass
class EdgeStats:
    """Per-edge annotations: interaction count and bytes exchanged."""

    count: int = 0
    bytes: int = 0


def edge_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) key for the undirected edge between a and b."""
    return (a, b) if a <= b else (b, a)


#: Shared empty mapping backing the views returned for unknown nodes.
_EMPTY_ADJACENCY: Dict[str, EdgeStats] = {}


@dataclass(frozen=True)
class GraphDelta:
    """The set of nodes and edges dirtied since the last drain.

    ``nodes`` holds node ids whose :class:`NodeStats` changed (or that
    were created), ``edges`` holds canonical edge keys whose
    :class:`EdgeStats` changed (or that were created).  Nodes and edges
    are never removed from an :class:`ExecutionGraph`, so a delta plus
    the previous values fully describes the change.
    """

    nodes: FrozenSet[str]
    edges: FrozenSet[Tuple[str, str]]

    @property
    def empty(self) -> bool:
        return not self.nodes and not self.edges

    def size(self) -> int:
        return len(self.nodes) + len(self.edges)


class ExecutionGraph:
    """Weighted interaction graph over classes (or objects).

    Every mutation entry point bumps a monotonic ``version`` counter and
    records the touched node/edge in a dirty set, so a consumer that
    repeatedly re-reads the graph (the warm-started partitioning
    session) can do work proportional to the *change* since its last
    visit.  Mutations must go through these entry points — writing
    to a ``NodeStats``/``EdgeStats`` object directly bypasses tracking.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeStats] = {}
        self._edges: Dict[Tuple[str, str], EdgeStats] = {}
        # Per-vertex adjacency: neighbor id -> the shared EdgeStats for
        # that pair.  Keeping the stats in the adjacency map lets the
        # partitioner walk (neighbor, edge) pairs without re-hashing
        # sorted edge keys on the hot path.
        self._adjacency: Dict[str, Dict[str, EdgeStats]] = {}
        self._version = 0
        self._dirty_nodes: Set[str] = set()
        self._dirty_edges: Set[Tuple[str, str]] = set()

    # -- change tracking ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every entry point)."""
        return self._version

    def drain_dirty(self) -> GraphDelta:
        """Return and clear the accumulated dirty sets.

        Intended for a single standing consumer per graph: the
        incremental partitioning session reading the live graph, in the
        prototype's engine and in the replayer alike.
        """
        delta = GraphDelta(
            nodes=frozenset(self._dirty_nodes),
            edges=frozenset(self._dirty_edges),
        )
        self._dirty_nodes.clear()
        self._dirty_edges.clear()
        return delta

    # -- construction -----------------------------------------------------------

    def ensure_node(self, node_id: str) -> NodeStats:
        stats = self._nodes.get(node_id)
        if stats is None:
            stats = NodeStats()
            self._nodes[node_id] = stats
            self._adjacency[node_id] = {}
            self._version += 1
            self._dirty_nodes.add(node_id)
        return stats

    def add_memory(self, node_id: str, delta: int) -> None:
        stats = self.ensure_node(node_id)
        stats.memory_bytes += delta
        self._version += 1
        self._dirty_nodes.add(node_id)
        if stats.memory_bytes < 0:
            raise PartitioningError(
                f"node {node_id!r} memory went negative ({stats.memory_bytes})"
            )

    def note_object_created(self, node_id: str) -> None:
        stats = self.ensure_node(node_id)
        stats.live_objects += 1
        stats.created_objects += 1
        self._version += 1
        self._dirty_nodes.add(node_id)

    def note_object_freed(self, node_id: str) -> None:
        stats = self.ensure_node(node_id)
        stats.live_objects -= 1
        self._version += 1
        self._dirty_nodes.add(node_id)

    def add_cpu(self, node_id: str, seconds: float) -> None:
        if seconds < 0:
            raise PartitioningError("cpu seconds cannot be negative")
        self.ensure_node(node_id).cpu_seconds += seconds
        self._version += 1
        self._dirty_nodes.add(node_id)

    def record_interaction(self, a: str, b: str, nbytes: int, count: int = 1) -> None:
        """Record ``count`` interactions moving ``nbytes`` between a and b.

        Same-node interactions are ignored, as in the paper ("information
        is recorded only for interactions between two different classes").
        A negative delta may shrink an edge, but never below zero: that
        raises before anything is mutated.
        """
        if a == b:
            return
        key = (a, b) if a <= b else (b, a)
        edge = self._edges.get(key)
        if nbytes < 0 or count < 0:
            old_bytes, old_count = (0, 0) if edge is None else (
                edge.bytes, edge.count)
            if old_bytes + nbytes < 0 or old_count + count < 0:
                raise PartitioningError(
                    f"interaction {a!r}-{b!r} would leave the edge "
                    f"weights negative ({old_bytes + nbytes} bytes, "
                    f"{old_count + count} interactions)"
                )
        if edge is None:
            self.ensure_node(a)
            self.ensure_node(b)
            edge = EdgeStats()
            self._edges[key] = edge
            self._adjacency[a][b] = edge
            self._adjacency[b][a] = edge
        edge.count += count
        edge.bytes += nbytes
        self._version += 1
        self._dirty_edges.add(key)

    # -- queries ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        """Number of distinct interacting pairs (Table 2's "interactions")."""
        return len(self._edges)

    def nodes(self) -> Iterator[str]:
        return iter(self._nodes)

    def node_items(self) -> ItemsView[str, NodeStats]:
        """Read-only ``(node_id, NodeStats)`` view in insertion order.

        Bulk-export companion to :meth:`nodes`: consumers that lower the
        whole graph into another representation (the flat CSR snapshot
        in :mod:`repro.core.flatgraph`) walk one view instead of paying
        a dict lookup per node.
        """
        return self._nodes.items()

    def node(self, node_id: str) -> NodeStats:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise PartitioningError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def neighbors(self, node_id: str) -> AbstractSet[str]:
        """Read-only, set-like view of a node's neighbors.

        The view is live (it reflects later graph mutations) but cannot
        itself be mutated, so callers can never corrupt the adjacency
        structure.
        """
        adjacency = self._adjacency.get(node_id)
        if adjacency is None:
            return _EMPTY_ADJACENCY.keys()
        return adjacency.keys()

    def adjacent_edges(self, node_id: str) -> ItemsView[str, EdgeStats]:
        """Read-only view of ``(neighbor, EdgeStats)`` pairs for a node.

        This is the hot-path companion to :meth:`neighbors`: one dict
        walk yields both the neighbor id and the shared edge statistics,
        with no per-edge key construction or extra hashing.
        """
        adjacency = self._adjacency.get(node_id)
        if adjacency is None:
            return _EMPTY_ADJACENCY.items()
        return adjacency.items()

    def edge(self, a: str, b: str) -> Optional[EdgeStats]:
        return self._edges.get(edge_key(a, b))

    def edges(self) -> Iterator[Tuple[Tuple[str, str], EdgeStats]]:
        return iter(self._edges.items())

    def edge_bytes(self, a: str, b: str) -> int:
        edge = self._edges.get(edge_key(a, b))
        return edge.bytes if edge else 0

    def edge_count(self, a: str, b: str) -> int:
        edge = self._edges.get(edge_key(a, b))
        return edge.count if edge else 0

    def total_memory(self, node_ids: Optional[Iterable[str]] = None) -> int:
        if node_ids is None:
            return sum(s.memory_bytes for s in self._nodes.values())
        return sum(self.node(n).memory_bytes for n in node_ids)

    def total_cpu(self, node_ids: Optional[Iterable[str]] = None) -> float:
        if node_ids is None:
            return sum(s.cpu_seconds for s in self._nodes.values())
        return sum(self.node(n).cpu_seconds for n in node_ids)

    def total_interaction_bytes(self) -> int:
        return sum(e.bytes for e in self._edges.values())

    def total_interaction_count(self) -> int:
        return sum(e.count for e in self._edges.values())

    def cut(self, partition: FrozenSet[str]) -> Tuple[int, int]:
        """Interaction (count, bytes) crossing the given partition.

        ``partition`` is one side; everything else is the other side.
        """
        count = 0
        nbytes = 0
        for (a, b), edge in self._edges.items():
            if (a in partition) != (b in partition):
                count += edge.count
                nbytes += edge.bytes
        return count, nbytes

    def connectivity(self, node_id: str, group: AbstractSet[str]) -> int:
        """Total edge bytes between ``node_id`` and the nodes in ``group``."""
        total = 0
        adjacency = self._adjacency.get(node_id)
        if adjacency:
            for neighbor, edge in adjacency.items():
                if neighbor in group:
                    total += edge.bytes
        return total

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": {
                n: {
                    "memory_bytes": s.memory_bytes,
                    "cpu_seconds": s.cpu_seconds,
                    "live_objects": s.live_objects,
                    "created_objects": s.created_objects,
                }
                for n, s in self._nodes.items()
            },
            "edges": [
                {"a": a, "b": b, "count": e.count, "bytes": e.bytes}
                for (a, b), e in self._edges.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionGraph":
        graph = cls()
        for node_id, stats in data.get("nodes", {}).items():
            node = graph.ensure_node(node_id)
            node.memory_bytes = stats.get("memory_bytes", 0)
            node.cpu_seconds = stats.get("cpu_seconds", 0.0)
            node.live_objects = stats.get("live_objects", 0)
            node.created_objects = stats.get("created_objects", 0)
        for edge in data.get("edges", []):
            graph.record_interaction(
                edge["a"], edge["b"], edge["bytes"], count=edge["count"]
            )
        return graph

    def merge_profile(self, profile: "ExecutionGraph") -> None:
        """Fold a predicted or prior interaction profile into this graph.

        Edge traffic and CPU totals are added; live-memory annotations
        in the profile are ignored (callers should pass
        :func:`repro.core.hints.interaction_profile` output, where they
        are zero).  Every touched node and edge lands in the dirty sets,
        so the next partitioning epoch carries the seed.
        """
        for node_id in profile.nodes():
            stats = profile.node(node_id)
            self.ensure_node(node_id)
            if stats.cpu_seconds:
                self.add_cpu(node_id, stats.cpu_seconds)
        for (a, b), edge in profile.edges():
            self.record_interaction(a, b, edge.bytes, count=edge.count)

    def copy(self) -> "ExecutionGraph":
        """Deep structural copy, without a serialisation round trip.

        Copies node stats, edge stats, and adjacency directly instead of
        going through ``to_dict``/``from_dict``.  The copy shares no
        stats with this graph and starts with empty dirty sets.
        """
        clone = ExecutionGraph.__new__(ExecutionGraph)
        clone._nodes = {
            node_id: NodeStats(
                memory_bytes=stats.memory_bytes,
                cpu_seconds=stats.cpu_seconds,
                live_objects=stats.live_objects,
                created_objects=stats.created_objects,
            )
            for node_id, stats in self._nodes.items()
        }
        clone._edges = {}
        adjacency: Dict[str, Dict[str, EdgeStats]] = {
            node_id: {} for node_id in self._nodes
        }
        for (a, b), edge in self._edges.items():
            copied = EdgeStats(count=edge.count, bytes=edge.bytes)
            clone._edges[(a, b)] = copied
            adjacency[a][b] = copied
            adjacency[b][a] = copied
        clone._adjacency = adjacency
        # The clone starts as its own clean baseline: same version but
        # nothing dirty.
        clone._version = self._version
        clone._dirty_nodes = set()
        clone._dirty_edges = set()
        return clone

    def to_dot(self, partition: Optional[FrozenSet[str]] = None,
               min_edge_bytes: int = 0) -> str:
        """Render the graph in Graphviz DOT form (the paper's Figure 5).

        With ``partition`` (the offloaded node set), nodes are coloured
        by side and cut edges drawn dashed — the paper's Figure 5b.
        ``min_edge_bytes`` drops feather-weight edges for readability.
        """
        lines = ["graph execution {", "  layout=neato;", "  overlap=false;"]
        for node_id, stats in sorted(self._nodes.items()):
            label = f"{node_id}\\n{stats.memory_bytes}B"
            if partition is not None and node_id in partition:
                style = 'style=filled, fillcolor="lightsteelblue"'
            else:
                style = 'style=filled, fillcolor="white"'
            lines.append(f'  "{node_id}" [label="{label}", {style}];')
        for (a, b), edge in sorted(self._edges.items()):
            if edge.bytes < min_edge_bytes:
                continue
            attributes = [f'label="{edge.count}"']
            if partition is not None and (a in partition) != (b in partition):
                attributes.append("style=dashed")
            lines.append(
                f'  "{a}" -- "{b}" [{", ".join(attributes)}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExecutionGraph(nodes={self.node_count}, links={self.link_count})"
        )
