"""The execution graph, stored as interned columns.

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

Storage
-------

The graph is a set of parallel lists indexed by interned integers.
``names[i]`` is node ``i``'s id and ``index`` maps an id back; indices
follow insertion order, and nodes are never removed, so an index stays
valid for the graph's lifetime.  Per node: ``node_mem``, ``node_cpu``,
``node_live`` and ``node_created``.  Per edge: ``edge_a``/``edge_b``
(the endpoints, the lexicographically smaller id first),
``edge_nbytes`` and ``edge_ncount``.  ``adj[i]`` maps each neighbor of
node ``i`` to the index of their edge, in the order the edges appeared.

These columns are the one store of the decision path.  The monitor's
and the replay's folds (:mod:`repro.core.monitor`,
:mod:`repro.emulator.graphfold`) write them by index; the partitioner's
kernel cache (:mod:`repro.core.flatgraph`) reads them in place; and the
string-keyed API below is a view over the same lists for static
analysis, hints, migration and serialisation.  A writer by index must
move ``version`` and the dirty sets exactly as the string mutators do;
:meth:`ExecutionGraph.link` (a new edge's ends), :meth:`add_to_edge`
(one edge's weights) and :meth:`free_object` (a reclaimed object) are
those rules, shared by both folds.

Change tracking
---------------

Every mutation bumps the monotonic ``version`` and adds the touched
node or edge index to a dirty set, so the warm-started partitioning
session can do work proportional to the change since its last visit
(:meth:`ExecutionGraph.drain_dirty`).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSetBase
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
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


def _column(name: str) -> property:
    def get(self: "NodeStats"):
        return getattr(self._graph, name)[self._i]

    def put(self: "NodeStats", value) -> None:
        getattr(self._graph, name)[self._i] = value

    return property(get, put)


class NodeStats:
    """Per-node annotations: a live view of one node's columns.

    Reads see the graph's current values.  Writing a field sets the
    column without change tracking, so only builders of fresh graphs
    (contraction, static weighting) should do it; everything else goes
    through the graph's mutators.
    """

    __slots__ = ("_graph", "_i")

    def __init__(self, graph: "ExecutionGraph", i: int) -> None:
        self._graph = graph
        self._i = i

    memory_bytes = _column("node_mem")
    cpu_seconds = _column("node_cpu")
    live_objects = _column("node_live")
    created_objects = _column("node_created")

    def __repr__(self) -> str:
        return (f"NodeStats(memory_bytes={self.memory_bytes}, "
                f"cpu_seconds={self.cpu_seconds}, "
                f"live_objects={self.live_objects}, "
                f"created_objects={self.created_objects})")


class EdgeStats(NamedTuple):
    """Per-edge annotations, as read: interaction count and bytes."""

    count: int = 0
    bytes: int = 0


def edge_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) key for the undirected edge between a and b."""
    return (a, b) if a <= b else (b, a)


class _Neighbors(AbstractSetBase):
    """Read-only, live set view of one node's neighbor ids."""

    __slots__ = ("_graph", "_row")

    def __init__(self, graph: "ExecutionGraph", row: Dict[int, int]) -> None:
        self._graph = graph
        self._row = row

    def __contains__(self, node_id: object) -> bool:
        i = self._graph.index.get(node_id)
        return i is not None and i in self._row

    def __iter__(self) -> Iterator[str]:
        return map(self._graph.names.__getitem__, self._row)

    def __len__(self) -> int:
        return len(self._row)

    @classmethod
    def _from_iterable(cls, it) -> Set[str]:
        # ``&``, ``|``, ``-`` and ``^`` build plain sets, as a KeysView's do.
        return set(it)


@dataclass(frozen=True)
class GraphDelta:
    """The node and edge indices dirtied since the last drain.

    ``nodes`` holds indices of nodes whose annotations changed (or that
    were created), ``edges`` indices of edges whose weights changed (or
    that were created).  Nodes and edges are never removed from an
    :class:`ExecutionGraph`, so a delta plus the previous values fully
    describes the change.
    """

    nodes: FrozenSet[int]
    edges: FrozenSet[int]

    @property
    def empty(self) -> bool:
        return not self.nodes and not self.edges

    def size(self) -> int:
        return len(self.nodes) + len(self.edges)


class ExecutionGraph:
    """Weighted interaction graph over classes (or objects).

    See the module docstring for the columns.  Mutations must go
    through the entry points (or an index writer that tracks changes
    the same way): every one bumps ``version`` and dirties what it
    touched.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.node_mem: List[int] = []
        self.node_cpu: List[float] = []
        self.node_live: List[int] = []
        self.node_created: List[int] = []
        self.edge_a: List[int] = []
        self.edge_b: List[int] = []
        self.edge_nbytes: List[int] = []
        self.edge_ncount: List[int] = []
        self.adj: List[Dict[int, int]] = []
        #: Monotonic mutation counter (bumped by every entry point).
        self.version = 0
        self.dirty_nodes: Set[int] = set()
        self.dirty_edges: Set[int] = set()

    # -- change tracking ---------------------------------------------------------

    def drain_dirty(self) -> GraphDelta:
        """Return and clear the accumulated dirty sets.

        Intended for a single standing consumer per graph: the
        incremental partitioning session reading the live graph, in the
        prototype's engine and in the replayer alike.
        """
        delta = GraphDelta(nodes=frozenset(self.dirty_nodes),
                           edges=frozenset(self.dirty_edges))
        self.dirty_nodes.clear()
        self.dirty_edges.clear()
        return delta

    # -- construction by index ---------------------------------------------------

    def intern(self, node_id: str) -> int:
        """The index of ``node_id``, appending the node if it is new
        (a new node bumps the version and is dirty)."""
        i = self.index.get(node_id)
        if i is None:
            i = len(self.names)
            self.names.append(node_id)
            self.index[node_id] = i
            self.node_mem.append(0)
            self.node_cpu.append(0.0)
            self.node_live.append(0)
            self.node_created.append(0)
            self.adj.append({})
            self.version += 1
            self.dirty_nodes.add(i)
        return i

    def link(self, a: str, b: str) -> int:
        """The index of the edge between nodes ``a`` and ``b`` (``a != b``).

        A new edge has zero weight and creates its missing ends, the
        smaller name first: the one edge rule of
        :meth:`record_interaction` and of the monitor's and the replay's
        folds.  The caller's weight update tracks it.
        """
        if b < a:
            a, b = b, a
        i = self.intern(a)
        j = self.intern(b)
        e = self.adj[i].get(j)
        if e is None:
            e = len(self.edge_a)
            self.edge_a.append(i)
            self.edge_b.append(j)
            self.edge_nbytes.append(0)
            self.edge_ncount.append(0)
            self.adj[i][j] = e
            self.adj[j][i] = e
        return e

    def add_to_edge(self, e: int, nbytes: int, count: int) -> None:
        """Add weight to edge ``e``: bumps the version, marks it dirty.
        No sign check; :meth:`record_interaction` makes it."""
        self.edge_nbytes[e] += nbytes
        self.edge_ncount[e] += count
        self.version += 1
        self.dirty_edges.add(e)

    def free_object(self, node_id: str, nbytes: int) -> None:
        """One reclaimed object of ``nbytes`` on ``node_id``: the node's
        memory and live count go down (two version bumps, one dirty
        mark).

        The one free rule of the monitor's and the replay's folds: a
        node the graph lacks is left alone (a warm-start profile may
        never have seen the class allocate).  A free that would leave
        the node's memory negative raises before anything is written.
        """
        i = self.index.get(node_id)
        if i is None:
            return
        memory = self.node_mem[i] - nbytes
        if memory < 0:
            raise PartitioningError(
                f"node {node_id!r} memory went negative ({memory})")
        self.node_mem[i] = memory
        self.node_live[i] -= 1
        self.version += 2
        self.dirty_nodes.add(i)

    # -- construction by id --------------------------------------------------------

    def ensure_node(self, node_id: str) -> NodeStats:
        return NodeStats(self, self.intern(node_id))

    def add_memory(self, node_id: str, delta: int) -> None:
        i = self.intern(node_id)
        memory = self.node_mem[i] + delta
        self.node_mem[i] = memory
        self.version += 1
        self.dirty_nodes.add(i)
        if memory < 0:
            raise PartitioningError(
                f"node {node_id!r} memory went negative ({memory})"
            )

    def note_object_created(self, node_id: str) -> None:
        i = self.intern(node_id)
        self.node_live[i] += 1
        self.node_created[i] += 1
        self.version += 1
        self.dirty_nodes.add(i)

    def note_object_freed(self, node_id: str) -> None:
        i = self.intern(node_id)
        self.node_live[i] -= 1
        self.version += 1
        self.dirty_nodes.add(i)

    def add_cpu(self, node_id: str, seconds: float) -> None:
        if seconds < 0:
            raise PartitioningError("cpu seconds cannot be negative")
        i = self.intern(node_id)
        self.node_cpu[i] += seconds
        self.version += 1
        self.dirty_nodes.add(i)

    def record_interaction(self, a: str, b: str, nbytes: int, count: int = 1) -> None:
        """Record ``count`` interactions moving ``nbytes`` between a and b.

        Same-node interactions are ignored, as in the paper ("information
        is recorded only for interactions between two different classes").
        A new edge is created by :meth:`link`.  A negative delta may
        shrink an edge, but never below zero: that raises before
        anything is mutated.
        """
        if a == b:
            return
        if nbytes < 0 or count < 0:
            e = self._edge_at(a, b)
            old_bytes, old_count = (0, 0) if e is None else (
                self.edge_nbytes[e], self.edge_ncount[e])
            if old_bytes + nbytes < 0 or old_count + count < 0:
                raise PartitioningError(
                    f"interaction {a!r}-{b!r} would leave the edge "
                    f"weights negative ({old_bytes + nbytes} bytes, "
                    f"{old_count + count} interactions)"
                )
        self.add_to_edge(self.link(a, b), nbytes, count)

    # -- queries ------------------------------------------------------------

    def _at(self, node_id: str) -> int:
        try:
            return self.index[node_id]
        except KeyError:
            raise PartitioningError(f"unknown node {node_id!r}") from None

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def link_count(self) -> int:
        """Number of distinct interacting pairs (Table 2's "interactions")."""
        return len(self.edge_a)

    def nodes(self) -> Iterator[str]:
        return iter(self.names)

    def node(self, node_id: str) -> NodeStats:
        return NodeStats(self, self._at(node_id))

    def has_node(self, node_id: str) -> bool:
        return node_id in self.index

    def neighbors(self, node_id: str) -> AbstractSet[str]:
        """Read-only, set-like view of a node's neighbors.

        The view is live (it reflects later graph mutations) but cannot
        itself be mutated, so callers can never corrupt the adjacency
        structure.
        """
        i = self.index.get(node_id)
        return _Neighbors(self, {} if i is None else self.adj[i])

    def adjacent_edges(self, node_id: str) -> List[Tuple[str, EdgeStats]]:
        """``(neighbor, EdgeStats)`` pairs for a node, in edge order."""
        i = self.index.get(node_id)
        if i is None:
            return []
        names = self.names
        nbytes = self.edge_nbytes
        count = self.edge_ncount
        return [(names[w], EdgeStats(count[e], nbytes[e]))
                for w, e in self.adj[i].items()]

    def _edge_at(self, a: str, b: str) -> Optional[int]:
        i = self.index.get(a)
        j = self.index.get(b)
        return None if i is None or j is None else self.adj[i].get(j)

    def edge(self, a: str, b: str) -> Optional[EdgeStats]:
        e = self._edge_at(a, b)
        if e is None:
            return None
        return EdgeStats(self.edge_ncount[e], self.edge_nbytes[e])

    def edges(self) -> Iterator[Tuple[Tuple[str, str], EdgeStats]]:
        names = self.names
        for a, b, count, nbytes in zip(self.edge_a, self.edge_b,
                                       self.edge_ncount, self.edge_nbytes):
            yield (names[a], names[b]), EdgeStats(count, nbytes)

    def edge_bytes(self, a: str, b: str) -> int:
        e = self._edge_at(a, b)
        return 0 if e is None else self.edge_nbytes[e]

    def edge_count(self, a: str, b: str) -> int:
        e = self._edge_at(a, b)
        return 0 if e is None else self.edge_ncount[e]

    def total_memory(self, node_ids: Optional[Iterable[str]] = None) -> int:
        if node_ids is None:
            return sum(self.node_mem)
        return sum(self.node_mem[self._at(n)] for n in node_ids)

    def total_cpu(self, node_ids: Optional[Iterable[str]] = None) -> float:
        if node_ids is None:
            return sum(self.node_cpu)
        return sum(self.node_cpu[self._at(n)] for n in node_ids)

    def total_interaction_bytes(self) -> int:
        return sum(self.edge_nbytes)

    def total_interaction_count(self) -> int:
        return sum(self.edge_ncount)

    def cut(self, partition: FrozenSet[str]) -> Tuple[int, int]:
        """Interaction (count, bytes) crossing the given partition.

        ``partition`` is one side; everything else is the other side.
        """
        inside = [name in partition for name in self.names]
        count = 0
        nbytes = 0
        for a, b, c, w in zip(self.edge_a, self.edge_b,
                              self.edge_ncount, self.edge_nbytes):
            if inside[a] != inside[b]:
                count += c
                nbytes += w
        return count, nbytes

    def connectivity(self, node_id: str, group: AbstractSet[str]) -> int:
        """Total edge bytes between ``node_id`` and the nodes in ``group``."""
        i = self.index.get(node_id)
        if i is None:
            return 0
        names = self.names
        nbytes = self.edge_nbytes
        return sum(nbytes[e] for w, e in self.adj[i].items()
                   if names[w] in group)

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        names = self.names
        return {
            "nodes": {
                name: {
                    "memory_bytes": memory,
                    "cpu_seconds": cpu,
                    "live_objects": live,
                    "created_objects": created,
                }
                for name, memory, cpu, live, created in zip(
                    names, self.node_mem, self.node_cpu, self.node_live,
                    self.node_created)
            },
            "edges": [
                {"a": names[a], "b": names[b], "count": count, "bytes": nbytes}
                for a, b, count, nbytes in zip(
                    self.edge_a, self.edge_b, self.edge_ncount,
                    self.edge_nbytes)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionGraph":
        graph = cls()
        for node_id, stats in data.get("nodes", {}).items():
            i = graph.intern(node_id)
            graph.node_mem[i] = stats.get("memory_bytes", 0)
            graph.node_cpu[i] = stats.get("cpu_seconds", 0.0)
            graph.node_live[i] = stats.get("live_objects", 0)
            graph.node_created[i] = stats.get("created_objects", 0)
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
        for node_id, seconds in zip(profile.names, profile.node_cpu):
            self.intern(node_id)
            if seconds:
                self.add_cpu(node_id, seconds)
        for (a, b), edge in profile.edges():
            self.record_interaction(a, b, edge.bytes, count=edge.count)

    def copy(self) -> "ExecutionGraph":
        """Deep structural copy, without a serialisation round trip.

        The copy shares no column with this graph and starts as its own
        clean baseline: the same version, nothing dirty.
        """
        clone = ExecutionGraph()
        clone.names = list(self.names)
        clone.index = dict(self.index)
        clone.node_mem = list(self.node_mem)
        clone.node_cpu = list(self.node_cpu)
        clone.node_live = list(self.node_live)
        clone.node_created = list(self.node_created)
        clone.edge_a = list(self.edge_a)
        clone.edge_b = list(self.edge_b)
        clone.edge_nbytes = list(self.edge_nbytes)
        clone.edge_ncount = list(self.edge_ncount)
        clone.adj = [dict(row) for row in self.adj]
        clone.version = self.version
        return clone

    def to_dot(self, partition: Optional[FrozenSet[str]] = None,
               min_edge_bytes: int = 0) -> str:
        """Render the graph in Graphviz DOT form (the paper's Figure 5).

        With ``partition`` (the offloaded node set), nodes are coloured
        by side and cut edges drawn dashed — the paper's Figure 5b.
        ``min_edge_bytes`` drops feather-weight edges for readability.
        """
        lines = ["graph execution {", "  layout=neato;", "  overlap=false;"]
        for node_id, memory in sorted(zip(self.names, self.node_mem)):
            label = f"{node_id}\\n{memory}B"
            if partition is not None and node_id in partition:
                style = 'style=filled, fillcolor="lightsteelblue"'
            else:
                style = 'style=filled, fillcolor="white"'
            lines.append(f'  "{node_id}" [label="{label}", {style}];')
        for (a, b), edge in sorted(self.edges()):
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
