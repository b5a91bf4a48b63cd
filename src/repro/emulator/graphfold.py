"""The replay's execution graph, folded from the trace columns on demand.

The replay loop does no graph work.  The graph is a function of the
trace's events plus a side log of placement-dependent entries, each at
a *position* (fold the first ``at`` events, then apply the entry):

* a **mark** where an offload attempt ends the open interaction run;
* a **reclaim** ``(node, bytes)`` of one collected object, because
  collection timing depends on placement.

:meth:`GraphFold.advance` catches the graph up to a position with the
same graph calls, in the same order, as a loop that updated the graph on
every event: consecutive interactions over one node pair collapse into
one ``record_interaction(count=N)`` whose nodes are created when the run
ends; an allocation adds memory, counts the object and ensures its
creator; work adds CPU.  Pair codes are ints over the ranks of the
trace's distinct strings, so the run comparison is integer work; only
object-granular endpoints (``int[]#oid`` nodes) use string pairs.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.graph import ExecutionGraph, object_node_id
from .columnar import (
    ColumnarTrace, TAG_ACCESS, TAG_ALLOC, TAG_INVOKE, TAG_WORK,
)


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
        # The open run: (pair, bytes, count).
        self._run = (None, 0, 0)
        # Name tables, built on the first fold.
        self._rank: Optional[List[int]] = None

    def mark(self, at: int) -> None:
        """End the open interaction run at position ``at``."""
        self._log.append((at, None, 0))

    def reclaim(self, at: int, node: str, nbytes: int) -> None:
        """One collected object of ``node`` at position ``at``."""
        self._log.append((at, node, nbytes))

    def advance(self, upto: int) -> ExecutionGraph:
        """Fold events and side-log entries up to position ``upto``."""
        log = self._log
        k = 0
        while k < len(log) and log[k][0] <= upto:
            at, node, nbytes = log[k]
            self._fold(at)
            if node is not None:
                self.graph.add_memory(node, -nbytes)
                self.graph.note_object_freed(node)
            elif self._run[0] is not None:
                pair, run_bytes, count = self._run
                if type(pair) is int:
                    lo, hi = divmod(pair, len(self._names))
                    pair = self._names[lo], self._names[hi]
                self.graph.record_interaction(pair[0], pair[1], run_bytes,
                                              count=count)
                self._run = (None, 0, 0)
            k += 1
        del log[:k]
        self._fold(upto)
        return self.graph

    def _fold(self, stop: int) -> None:
        start = self.folded
        stop = min(stop, self.end)
        if start >= stop:
            return
        strings = self.trace.strings
        if self._rank is None:
            # Ranks in sorted order: a pair's code orders its ends the
            # way ``a <= b`` does, and equal names share a rank.
            self._names = sorted(set(strings))
            rank = {name: r for r, name in enumerate(self._names)}
            self._rank = [rank[name] for name in strings]
            self._granular = {sid for sid, name in enumerate(strings)
                              if name in self.granular_classes}
            self._creators: Set[int] = set()
        rank, names, granular = self._rank, self._names, self._granular
        creators = self._creators
        width = len(names)
        cols = self.trace.column_lists()
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]
        graph = self.graph
        record = graph.record_interaction
        add_cpu = graph.add_cpu
        add_memory = graph.add_memory
        note_created = graph.note_object_created
        run, run_bytes, run_count = self._run
        for i in range(start, stop):
            tag = tags[i]
            if tag == TAG_ACCESS or tag == TAG_INVOKE:
                acid = a_cls[i]
                bcid = b_cls[i]
                if granular and ((acid in granular and a_oid[i] >= 0)
                                 or (bcid in granular and b_oid[i] >= 0)):
                    a = (object_node_id(strings[acid], a_oid[i])
                         if acid in granular and a_oid[i] >= 0
                         else strings[acid])
                    b = (object_node_id(strings[bcid], b_oid[i])
                         if bcid in granular and b_oid[i] >= 0
                         else strings[bcid])
                    if a == b:
                        continue
                    pair = (a, b) if a <= b else (b, a)
                else:
                    a = rank[acid]
                    b = rank[bcid]
                    if a == b:
                        continue
                    pair = a * width + b if a < b else b * width + a
                nbytes = n1[i] if tag == TAG_ACCESS else n1[i] + n2[i]
                if pair == run:
                    run_bytes += nbytes
                    run_count += 1
                    continue
                if type(run) is int:
                    lo, hi = divmod(run, width)
                    record(names[lo], names[hi], run_bytes, count=run_count)
                elif run is not None:
                    record(run[0], run[1], run_bytes, count=run_count)
                run = pair
                run_bytes = nbytes
                run_count = 1
            elif tag == TAG_WORK:
                add_cpu(strings[a_cls[i]], f64[i])
            elif tag == TAG_ALLOC:
                acid = a_cls[i]
                node = (object_node_id(strings[acid], a_oid[i])
                        if acid in granular else strings[acid])
                add_memory(node, n1[i])
                note_created(node)
                # The creating class is part of the execution picture
                # even if no interaction referenced it yet; nodes are
                # never removed, so it is ensured once.
                bcid = b_cls[i]
                if bcid not in creators:
                    creators.add(bcid)
                    graph.ensure_node(strings[bcid])
        self._run = (run, run_bytes, run_count)
        self.folded = stop
