"""The replay's execution graph, folded from the trace columns on demand.

The replay loop does no graph work.  The graph is a function of the
trace's events plus a side log of placement-dependent entries, each at
a *position* (fold the first ``at`` events, then apply the entry):

* a **mark** where an offload attempt ends the open interaction run;
* a **reclaim** ``(node, bytes)`` of one collected object, because
  collection timing depends on placement.

:meth:`GraphFold.advance` catches the graph up to a position by the
same rules, in the same order, as a loop that updated the graph through
its string mutators on every event: consecutive interactions over one
node pair collapse into one ``record_interaction(count=N)``, whose
missing nodes are created (the smaller id first) when the run ends; an
allocation adds memory, counts the object and ensures its creator; work
adds CPU.

The fold writes the graph's columns by index rather than through those
mutators, moving ``version`` and the dirty sets exactly as they would.
Each distinct endpoint — a trace string, or one object of a granular
class (an ``int[]#oid`` node) — gets an endpoint id once, and each
endpoint id a graph index once; a run is an integer code over two
endpoint ids, and each code maps to its edge index once.  The sizes and
times were checked non-negative when the trace's columns were decoded
(:meth:`~repro.emulator.columnar.ColumnarTrace.column_lists`), so the
writes need no sign checks.  Reclaims, which are few, go through the
string mutators.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.graph import ExecutionGraph, object_node_id
from .columnar import (
    ColumnarTrace, TAG_ACCESS, TAG_ALLOC, TAG_INVOKE, TAG_WORK,
)

#: A run's code is ``lo << _SHIFT | hi`` over its two endpoint ids.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


class GraphFold:
    """Folds one replay's trace into an :class:`ExecutionGraph` lazily."""

    def __init__(self, trace: ColumnarTrace, graph: ExecutionGraph,
                 granular_classes: Set[str]) -> None:
        self.trace = trace
        self.graph = graph
        self.granular_classes = granular_classes
        #: Events folded so far.
        self.folded = 0
        #: Events with a graph part: an allocation that runs out of
        #: memory ends the replay without one.
        self.end = len(trace)
        #: Side-log entries not yet applied: ``(at, node, bytes)``, with
        #: a ``None`` node for a mark.
        self._log: List[Tuple[int, Optional[str], int]] = []
        # The open run: (code, bytes, count), code -1 when none is open.
        self._run = (-1, 0, 0)
        # Endpoint tables, built on the first fold: the endpoint id of
        # each trace string id, each endpoint's node id and graph index
        # (-1 until resolved), and the endpoint id of each name.
        self._ep: Optional[List[int]] = None
        self._ep_name: List[str] = []
        self._ep_node: List[int] = []
        self._ep_of_name: Dict[str, int] = {}
        # Granular objects' endpoint ids, by ``oid * width + x`` for
        # class endpoint ``x`` (``width``: the trace's distinct names).
        self._objects: Dict[int, int] = {}
        # The edge index of each run code seen.
        self._edges: Dict[int, int] = {}

    def mark(self, at: int) -> None:
        """End the open interaction run at position ``at``."""
        self._log.append((at, None, 0))

    def reclaim(self, at: int, node: str, nbytes: int) -> None:
        """One collected object of ``node`` at position ``at``."""
        self._log.append((at, node, nbytes))

    def advance(self, upto: int) -> ExecutionGraph:
        """Fold events and side-log entries up to position ``upto``."""
        graph = self.graph
        log = self._log
        k = 0
        while k < len(log) and log[k][0] <= upto:
            at, node, nbytes = log[k]
            self._fold(at)
            if node is not None:
                graph.add_memory(node, -nbytes)
                graph.note_object_freed(node)
            elif self._run[0] >= 0:
                code, run_bytes, count = self._run
                graph.add_to_edge(self._edge(code), run_bytes, count)
                self._run = (-1, 0, 0)
            k += 1
        del log[:k]
        self._fold(upto)
        return graph

    # -- endpoint and edge resolution ---------------------------------------

    def _node(self, x: int) -> int:
        """Endpoint ``x``'s graph index, creating the node if new."""
        i = self._ep_node[x]
        if i < 0:
            i = self._ep_node[x] = self.graph.intern(self._ep_name[x])
        return i

    def _object(self, x: int, oid: int) -> int:
        """The endpoint id of object ``oid`` of granular class endpoint
        ``x``, by its node id."""
        name = object_node_id(self._ep_name[x], oid)
        y = self._ep_of_name.get(name)
        if y is None:
            y = self._ep_of_name[name] = len(self._ep_name)
            self._ep_name.append(name)
            self._ep_node.append(-1)
        self._objects[oid * self._width + x] = y
        return y

    def _edge(self, code: int) -> int:
        """The edge of run ``code``, created with any missing end (the
        smaller id first) if new, as ``record_interaction`` does."""
        graph = self.graph
        names = self._ep_name
        lo, hi = code >> _SHIFT, code & _LOW
        i = graph.index.get(names[lo])
        j = graph.index.get(names[hi])
        e = None if i is None or j is None else graph.adj[i].get(j)
        if e is None:
            if names[hi] < names[lo]:
                lo, hi = hi, lo
            e = graph.new_edge(self._node(lo), self._node(hi))
        self._edges[code] = e
        return e

    # -- the fold -------------------------------------------------------------

    def _fold(self, stop: int) -> None:
        start = self.folded
        stop = min(stop, self.end)
        if start >= stop:
            return
        strings = self.trace.strings
        if self._ep is None:
            of_name = self._ep_of_name
            self._ep = [of_name.setdefault(name, len(of_name))
                        for name in strings]
            self._ep_name = list(of_name)
            self._ep_node = [-1] * len(of_name)
            self._width = len(of_name)
            # Class endpoints whose objects are nodes of their own.
            self._granular = bytearray(
                name in self.granular_classes for name in of_name)
            self._creators: Set[int] = set()
        ep = self._ep
        ep_node = self._ep_node
        width = self._width
        granular = self._granular if any(self._granular) else None
        creators = self._creators
        objects_get = self._objects.get
        obj = self._object
        node_of = self._node
        edge_of = self._edge
        edges_get = self._edges.get
        cols = self.trace.column_lists()
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]
        graph = self.graph
        node_mem = graph.node_mem
        node_cpu = graph.node_cpu
        node_live = graph.node_live
        node_created = graph.node_created
        edge_nbytes = graph.edge_nbytes
        edge_ncount = graph.edge_ncount
        dirty_node = graph.dirty_nodes.add
        dirty_edge = graph.dirty_edges.add
        intern = graph.intern
        access, invoke = TAG_ACCESS, TAG_INVOKE
        work, alloc = TAG_WORK, TAG_ALLOC
        # Version bumps of the index writes (node creation counts its
        # own through ``intern``).
        bumps = 0
        run, run_bytes, run_count = self._run
        for i in range(start, stop):
            tag = tags[i]
            if tag == access:
                nbytes = n1[i]
            elif tag == invoke:
                nbytes = n1[i] + n2[i]
            elif tag == work:
                x = ep[a_cls[i]]
                n = ep_node[x]
                if n < 0:
                    n = node_of(x)
                node_cpu[n] += f64[i]
                bumps += 1
                dirty_node(n)
                continue
            elif tag == alloc:
                x = ep[a_cls[i]]
                if granular is not None and granular[x]:
                    # A miss (or endpoint 0, which ``_object`` returns
                    # again) resolves through ``_object``.
                    oid = a_oid[i]
                    x = objects_get(oid * width + x) or obj(x, oid)
                n = ep_node[x]
                if n < 0:
                    n = node_of(x)
                node_mem[n] += n1[i]
                node_live[n] += 1
                node_created[n] += 1
                bumps += 2
                dirty_node(n)
                # The creating class is part of the execution picture
                # even if no interaction referenced it yet; nodes are
                # never removed, so it is ensured once.
                bcid = b_cls[i]
                if bcid not in creators:
                    creators.add(bcid)
                    intern(strings[bcid])
                continue
            else:
                continue
            a = ep[a_cls[i]]
            b = ep[b_cls[i]]
            if granular is not None:
                if granular[a]:
                    oid = a_oid[i]
                    if oid >= 0:
                        a = objects_get(oid * width + a) or obj(a, oid)
                if granular[b]:
                    oid = b_oid[i]
                    if oid >= 0:
                        b = objects_get(oid * width + b) or obj(b, oid)
            if a == b:
                continue
            code = a << _SHIFT | b if a < b else b << _SHIFT | a
            if code == run:
                run_bytes += nbytes
                run_count += 1
                continue
            if run >= 0:
                e = edges_get(run)
                if e is None:
                    e = edge_of(run)
                # ``graph.add_to_edge``, inlined.
                edge_nbytes[e] += run_bytes
                edge_ncount[e] += run_count
                bumps += 1
                dirty_edge(e)
            run = code
            run_bytes = nbytes
            run_count = 1
        graph.version += bumps
        self._run = (run, run_bytes, run_count)
        self.folded = stop
