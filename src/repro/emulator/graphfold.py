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
node pair collapse into one ``record_interaction(count=N)`` when an
interaction over another pair or a mark ends the run (its missing nodes
created by :meth:`~repro.core.graph.ExecutionGraph.link`, the smaller
name first); an allocation adds memory, counts the object and then
ensures its creator; work adds CPU; a reclaim is
:meth:`~repro.core.graph.ExecutionGraph.free_object`, which leaves a
node the graph lacks alone (the replay never reclaims one: a reclaimed
object's allocation created its node).  The prototype's
:class:`~repro.core.monitor.ExecutionMonitor` folds its hooks by the
same rules, with each read of its graph as a mark.

The events' part does not depend on placement, so it is planned once
per trace and granular set (:class:`FoldPlan`, cached on the trace by
:meth:`~repro.emulator.columnar.ColumnarTrace.derived`) and every
replay of the trace applies the same plan.  The plan holds one entry
per work event and per allocation, in trace order, so ``node_cpu`` adds
its floats in the recorded order, and one entry per interaction run, at
the position of the event that closes it (the next interaction over
another pair), carrying the run's bytes and count.  Self-interactions
and frees have no entry.  The run still open at the end of the trace has
none either.

A mark inside a run splits it: the mark flushes the part of the open
run folded so far, recomputed from the event columns by walking back
from the mark to the run's first event (or to the previous mark), and
the run's entry later adds only the rest.  Marks are one per offload
attempt, and each walk stops at the previous mark, so all the walks of
one replay read each event at most once.

The fold writes the graph's columns by index rather than through the
string mutators, moving ``version`` and the dirty sets exactly as they
would.  Each plan endpoint — a trace name, or one object of a granular
class (an ``int[]#oid`` node) — gets a graph index once, and each run's
pair its edge index once.  A reclaim is applied when the fold reaches
its position, with the "memory went negative" check.  The sizes and
times were checked non-negative when the trace's columns were decoded
(:meth:`~repro.emulator.columnar.ColumnarTrace.column_lists`), so the
other writes need no sign checks.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from ..core.graph import ExecutionGraph, object_node_id
from .columnar import (
    ColumnarTrace, TAG_ACCESS, TAG_ALLOC, TAG_INVOKE, TAG_WORK,
)

#: A pair's code while planning is ``lo << _SHIFT | hi`` over its two
#: endpoint ids.
_SHIFT = 32
#: Events planned between two flushes of the entry buffer into the
#: plan's typed columns.
_BLOCK = 8192
#: The ``aux`` cell of a plan entry that is not a run.
_WORK, _ALLOC, _CREATOR = 0, 1, 2


class FoldPlan:
    """A trace's graph writes at one granular set, as entries in trace
    order.

    Entry ``k`` takes effect when the fold passes event ``pos[k]``.  Its
    ``op`` is a run id (``>= 0``) or ``~x`` for plan endpoint ``x``:

    ======  =====================  ==================================
    kind    ``op``                 ``val`` / ``aux``
    ======  =====================  ==================================
    run     run id                 the run's bytes / its count (>= 1)
    work    ``~x``                 0 / ``_WORK`` (seconds: ``f64[pos]``)
    alloc   ``~x``                 the size / ``_ALLOC``
    ensure  ``~x`` of the creator  0 / ``_CREATOR`` (its first alloc)
    ======  =====================  ==================================

    ``names[x]`` is endpoint ``x``'s node id and ``pair_lo[r]``,
    ``pair_hi[r]`` the endpoints of run id ``r``.  The entries sit in
    typed columns, 20 bytes each.
    """

    __slots__ = ("names", "pair_lo", "pair_hi", "pos", "op", "val", "aux")

    def __init__(self, trace: ColumnarTrace,
                 granular_classes: AbstractSet[str]) -> None:
        cols = trace.column_lists()
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        n1, n2 = cols["n1"], cols["n2"]
        # Endpoints: one per distinct name (a name the string table
        # holds twice has one endpoint), then one per granular object.
        of_name: Dict[str, int] = {}
        ep = [of_name.setdefault(name, len(of_name))
              for name in trace.strings]
        names = list(of_name)
        width = len(names)
        granular = bytearray(name in granular_classes for name in names)
        if not any(granular):
            granular = None
        # Granular objects' endpoint ids, by ``oid * width + x`` for
        # class endpoint ``x``.
        objects: Dict[int, int] = {}
        objects_get = objects.get

        def obj(x: int, oid: int) -> int:
            name = object_node_id(names[x], oid)
            y = of_name.get(name)
            if y is None:
                y = of_name[name] = len(names)
                names.append(name)
            objects[oid * width + x] = y
            return y

        rids: Dict[int, int] = {}
        rid_get = rids.get
        pair_lo: List[int] = []
        pair_hi: List[int] = []
        creators: Set[int] = set()
        self.pos = pos = array("i")
        self.op = op = array("i")
        self.val = val = array("q")
        self.aux = aux = array("i")
        access, invoke = TAG_ACCESS, TAG_INVOKE
        work, alloc = TAG_WORK, TAG_ALLOC
        is_work, is_alloc, is_creator = _WORK, _ALLOC, _CREATOR
        low = (1 << _SHIFT) - 1
        run, run_bytes, run_count = -1, 0, 0
        # Entries go to a flat buffer, four cells each, that is moved
        # into the columns once a block: the columns never hold boxed
        # ints, and the buffer stays small.
        buf: list = []
        n = len(tags)
        for block in range(0, n, _BLOCK):
            for i in range(block, min(n, block + _BLOCK)):
                tag = tags[i]
                if tag == access:
                    nbytes = n1[i]
                elif tag == invoke:
                    nbytes = n1[i] + n2[i]
                elif tag == work:
                    buf += (i, ~ep[a_cls[i]], 0, is_work)
                    continue
                elif tag == alloc:
                    x = ep[a_cls[i]]
                    if granular is not None and granular[x]:
                        # A miss (or endpoint 0, which ``obj`` returns
                        # again) resolves through ``obj``.
                        oid = a_oid[i]
                        x = objects_get(oid * width + x) or obj(x, oid)
                    buf += (i, ~x, n1[i], is_alloc)
                    # The creating class is part of the execution
                    # picture even if no interaction referenced it yet;
                    # nodes are never removed, so it is ensured once.
                    y = ep[b_cls[i]]
                    if y not in creators:
                        creators.add(y)
                        buf += (i, ~y, 0, is_creator)
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
                    rid = rid_get(run)
                    if rid is None:
                        rid = rids[run] = len(pair_lo)
                        pair_lo.append(run >> _SHIFT)
                        pair_hi.append(run & low)
                    buf += (i, rid, run_bytes, run_count)
                run = code
                run_bytes = nbytes
                run_count = 1
            pos.fromlist(buf[0::4])
            op.fromlist(buf[1::4])
            val.fromlist(buf[2::4])
            aux.fromlist(buf[3::4])
            buf.clear()
        self.names = names
        self.pair_lo = array("i", pair_lo)
        self.pair_hi = array("i", pair_hi)


def fold_plan(trace: ColumnarTrace,
              granular_classes: AbstractSet[str]) -> FoldPlan:
    """The trace's plan at ``granular_classes``, built once and cached
    on the trace until it grows."""
    granular = frozenset(granular_classes)
    return trace.derived(("fold-plan", granular),
                         lambda t: FoldPlan(t, granular))


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
        # The plan, each endpoint's graph index and each run id's edge
        # index (-1 until resolved), fetched on the first fold.
        self._plan: Optional[FoldPlan] = None
        self._ep_node: List[int] = []
        self._edge_of: List[int] = []
        # The next plan entry, and the position of the last mark: the
        # open run's events before it have been flushed already.
        self._k = 0
        self._cut = 0
        # What marks flushed of the run the next run entry closes.
        self._split_bytes = 0
        self._split_count = 0

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
            if node is None:
                self._split()
            else:
                graph.free_object(node, nbytes)
            k += 1
        del log[:k]
        self._fold(upto)
        return graph

    # -- endpoint and edge resolution ---------------------------------------

    def _node(self, x: int) -> int:
        """Endpoint ``x``'s graph index, creating the node if new."""
        i = self._ep_node[x]
        if i < 0:
            i = self._ep_node[x] = self.graph.intern(self._plan.names[x])
        return i

    def _edge(self, rid: int) -> int:
        """The edge of run id ``rid`` (created by
        :meth:`ExecutionGraph.link` if new)."""
        plan = self._plan
        e = self._edge_of[rid] = self.graph.link(
            plan.names[plan.pair_lo[rid]], plan.names[plan.pair_hi[rid]])
        return e

    # -- the fold -------------------------------------------------------------

    def _fold(self, stop: int) -> None:
        """Apply the plan entries of the events before ``stop``."""
        stop = min(stop, self.end)
        if stop <= self.folded:
            return
        plan = self._plan
        if plan is None:
            plan = self._plan = fold_plan(self.trace, self.granular_classes)
            self._ep_node = [-1] * len(plan.names)
            self._edge_of = [-1] * len(plan.pair_lo)
        k = self._k
        kstop = bisect_left(plan.pos, stop, k)
        self.folded = stop
        if k == kstop:
            return
        self._k = kstop
        f64 = self.trace.column_lists()["f64"]
        ep_node = self._ep_node
        edge_of = self._edge_of
        node_of = self._node
        edge = self._edge
        graph = self.graph
        node_mem = graph.node_mem
        node_cpu = graph.node_cpu
        node_live = graph.node_live
        node_created = graph.node_created
        edge_nbytes = graph.edge_nbytes
        edge_ncount = graph.edge_ncount
        dirty_node = graph.dirty_nodes.add
        dirty_edge = graph.dirty_edges.add
        is_work, is_alloc = _WORK, _ALLOC
        split = self._split_count
        # Version bumps of the index writes (node creation counts its
        # own through ``intern``).
        bumps = 0
        for i, op, v, c in zip(plan.pos[k:kstop], plan.op[k:kstop],
                               plan.val[k:kstop], plan.aux[k:kstop]):
            if op >= 0:
                if split:
                    # The first run entry after a split adds the rest.
                    v -= self._split_bytes
                    c -= split
                    split = self._split_count = self._split_bytes = 0
                    if not c:
                        continue
                e = edge_of[op]
                if e < 0:
                    e = edge(op)
                # ``graph.add_to_edge``, inlined.
                edge_nbytes[e] += v
                edge_ncount[e] += c
                bumps += 1
                dirty_edge(e)
                continue
            n = ep_node[~op]
            if n < 0:
                n = node_of(~op)
            if c == is_work:
                node_cpu[n] += f64[i]
                bumps += 1
                dirty_node(n)
            elif c == is_alloc:
                node_mem[n] += v
                node_live[n] += 1
                node_created[n] += 1
                bumps += 2
                dirty_node(n)
        graph.version += bumps

    def _split(self) -> None:
        """A mark: flush the open run's events folded so far.

        Walks back from the fold's position to the previous mark.  The
        last interaction between two distinct nodes names the open run;
        the walk adds up the run's events and stops at the first
        interaction over another pair, which closed the run before.
        """
        if self.folded <= self._cut:
            return
        cols = self.trace.column_lists()
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        n1, n2 = cols["n1"], cols["n2"]
        strings = self.trace.strings
        granular = self.granular_classes
        pair = None
        run_bytes = run_count = 0
        for i in range(self.folded - 1, self._cut - 1, -1):
            tag = tags[i]
            if tag == TAG_ACCESS:
                nbytes = n1[i]
            elif tag == TAG_INVOKE:
                nbytes = n1[i] + n2[i]
            else:
                continue
            a = strings[a_cls[i]]
            if a in granular and a_oid[i] >= 0:
                a = object_node_id(a, a_oid[i])
            b = strings[b_cls[i]]
            if b in granular and b_oid[i] >= 0:
                b = object_node_id(b, b_oid[i])
            if a == b:
                continue
            if b < a:
                a, b = b, a
            if pair is None:
                pair = (a, b)
            elif pair != (a, b):
                break
            run_bytes += nbytes
            run_count += 1
        self._cut = self.folded
        if pair is not None:
            self.graph.record_interaction(*pair, run_bytes, run_count)
            self._split_bytes += run_bytes
            self._split_count += run_count
