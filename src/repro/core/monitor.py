"""Execution and resource monitoring (AIDE's monitoring module).

The monitor subscribes to the VM's interception hooks and maintains the
weighted execution graph described in section 3.4 of the paper: memory
per class, CPU self-time per class, and interaction counts/bytes per
class pair.  It also keeps the aggregate counters behind Table 2 and the
remote-invocation statistics behind Figure 8.

CPU self-time attribution follows Figure 9: time is charged to the class
whose method frame is current, so a method's node receives its gross
time *minus* the time spent in nested calls to other classes.

The monitor sits on every guest interaction, so its hooks only log;
the graph is written when read, by index into the graph's interned
columns (see :class:`ExecutionMonitor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PartitioningError
from ..vm.gc import GCReport
from ..vm.hooks import AccessRecord, ExecutionListener, InvokeRecord
from ..vm.objectmodel import JObject
from .graph import ExecutionGraph, object_node_id

#: Approximate in-memory cost of one graph node / edge, used for the
#: "graph occupies a small amount of storage" measurement.
NODE_STORAGE_BYTES = 48
EDGE_STORAGE_BYTES = 32


@dataclass
class MonitorCounters:
    """Aggregate event counters (the raw material of Table 2)."""

    invocation_events: int = 0
    access_events: int = 0
    objects_created: int = 0
    objects_freed: int = 0
    allocations_bytes: int = 0

    @property
    def interaction_events(self) -> int:
        return self.invocation_events + self.access_events


@dataclass
class RemoteCounters:
    """Remote-interaction counters (the raw material of Figure 8)."""

    remote_invocations: int = 0
    remote_native_invocations: int = 0
    remote_accesses: int = 0
    remote_bytes: int = 0
    #: Remote reads served from the accessor site's remote-read cache:
    #: logically remote (they appear in the execution graph), but zero
    #: bytes on the wire, so they are excluded from ``remote_accesses``
    #: and ``remote_bytes``.
    cached_reads: int = 0

    @property
    def total_remote(self) -> int:
        return self.remote_invocations + self.remote_accesses


@dataclass
class SampledSeries:
    """Running average/maximum over sampled values (Table 2 rows)."""

    samples: int = 0
    total: float = 0.0
    maximum: float = 0.0

    def observe(self, value: float) -> None:
        self.samples += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def average(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.total / self.samples


#: Hook entries the monitor's log holds before it folds on its own.  A
#: long stretch with no reader cannot grow the log, and the logged
#: records are released before the cyclic collector's youngest
#: generation fills (700 allocations by default): a log of thousands
#: tripled the collections of a ``prototype`` pass.  Folding on its own
#: is not a mark: it does not shape the graph.
FOLD_AT = 256

# Tags of the log entries that are not hook records.
_ALLOC, _FREE, _CPU = 0, 1, 2
#: The open run when there is none: ``(a, b, bytes, count)``.
_NO_RUN = (None, None, 0, 0)


class ExecutionMonitor(ExecutionListener):
    """Builds the execution graph from hook events.

    The hooks only append to a log; :attr:`graph`, :attr:`counters` and
    :attr:`remote` fold the log when read (and the log folds itself at
    :data:`FOLD_AT` entries).  The fold applies the rules of the
    replay's :class:`~repro.emulator.graphfold.GraphFold`, so a
    prototype run and a replay of its trace build the graph alike:

    * consecutive interactions over one node pair are one update of
      ``count=N``, and only an interaction over another pair or a
      *mark* ends such a run.  Every read of :attr:`graph` is a mark,
      as an offload attempt is in the replay; the self-fold, the
      counter reads and :meth:`on_gc_report`'s link count are not;
    * an allocation adds to its object's node, then ensures its
      creator's node;
    * a free of a node the graph lacks changes only the counters
      (:meth:`ExecutionGraph.free_object`).

    It writes the graph's columns by index: a node's index is the
    graph's ``index``; a run's edge index is remembered per node pair
    and created by :meth:`ExecutionGraph.link`; and each write moves
    ``version`` and the dirty sets as :meth:`ExecutionGraph.add_to_edge`
    and the node mutators do, so a run of ``N`` bumps ``version`` once.
    The sizes the VM reports are non-negative, so interactions need
    no sign check; CPU charges and frees keep theirs.
    """

    def __init__(
        self, object_granularity_classes: Optional[Set[str]] = None,
        profile: Optional[ExecutionGraph] = None,
    ) -> None:
        # Warm start from previously gathered profiling information
        # (paper section 8): seed the execution graph with a prior
        # run's interaction history.  Callers should pass a profile
        # produced by :func:`repro.core.hints.interaction_profile`, so
        # stale live-memory numbers are not inherited.
        self._graph = profile.copy() if profile is not None else ExecutionGraph()
        self._counters = MonitorCounters()
        self._remote = RemoteCounters()
        #: Hook entries not yet folded: the records themselves, and
        #: tagged tuples for allocations, frees and CPU charges.
        self._log: List[tuple] = []
        #: The open run of interactions over one node pair, folded but
        #: not yet written: ``(a, b, bytes, count)``.
        self._run: tuple = _NO_RUN
        #: The graph's edge index of each run's ``(a, b)`` node pair,
        #: in both orders.  Nodes and edges are never removed, so an
        #: index, once known, stays valid.
        self._edges: Dict[Tuple[str, str], int] = {}
        #: Classes whose instances get their own graph node (the
        #: section 5.2 "Array" enhancement uses this for primitive
        #: arrays).
        self.object_granularity_classes: Set[str] = set(
            object_granularity_classes or ()
        )
        self._live_objects = 0
        self._live_classes: Dict[str, int] = {}
        self.classes_series = SampledSeries()
        self.objects_series = SampledSeries()
        self.links_series = SampledSeries()
        self.last_gc_report: Optional[GCReport] = None

    # -- folded state ---------------------------------------------------------

    @property
    def graph(self) -> ExecutionGraph:
        """The graph, folded and with the open run written: a mark."""
        if self._log:
            self._fold()
        a, b, nbytes, count = self._run
        if a is not None:
            self._run = _NO_RUN
            self._graph.add_to_edge(self._edge(a, b), nbytes, count)
        return self._graph

    @property
    def counters(self) -> MonitorCounters:
        if self._log:
            self._fold()
        return self._counters

    @property
    def remote(self) -> RemoteCounters:
        if self._log:
            self._fold()
        return self._remote

    # -- hook implementations -----------------------------------------------------

    def on_alloc(self, obj: JObject, site: str, creator: str) -> None:
        log = self._log
        log.append((_ALLOC, obj.class_name, obj.oid, obj.size_bytes, creator))
        if len(log) >= FOLD_AT:
            self._fold()

    def on_free(self, obj: JObject) -> None:
        log = self._log
        log.append((_FREE, obj.class_name, obj.oid, obj.size_bytes))
        if len(log) >= FOLD_AT:
            self._fold()

    def on_access(self, record: AccessRecord) -> None:
        log = self._log
        log.append(record)
        if len(log) >= FOLD_AT:
            self._fold()

    #: Both record types are logged as they are.
    on_invoke = on_access

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        log = self._log
        log.append((_CPU, class_name, seconds))
        if len(log) >= FOLD_AT:
            self._fold()

    def on_gc_report(self, report: GCReport, site: str) -> None:
        self.last_gc_report = report
        if self._log:
            self._fold()
        self.classes_series.observe(len(self._live_classes))
        self.objects_series.observe(self._live_objects)
        self.links_series.observe(self._graph.link_count)

    # -- the fold ---------------------------------------------------------------

    def _fold(self) -> None:
        """Apply the logged hooks to the graph and counters, in order,
        writing the graph's columns by index (see the class docstring).
        The run still open at the end stays open."""
        log, self._log = self._log, []
        graph = self._graph
        index_get = graph.index.get
        intern = graph.intern
        node_mem = graph.node_mem
        node_cpu = graph.node_cpu
        node_live = graph.node_live
        node_created = graph.node_created
        edge_nbytes = graph.edge_nbytes
        edge_ncount = graph.edge_ncount
        dirty_node = graph.dirty_nodes.add
        dirty_edge = graph.dirty_edges.add
        edges_get = self._edges.get
        edge_of = self._edge
        granular = self.object_granularity_classes
        live_classes = self._live_classes
        live_objects = self._live_objects
        invocations = accesses = created = freed = created_bytes = 0
        remote_calls = native_calls = remote_reads = cached = wire = 0
        # Version bumps of the index writes (node and edge creation and
        # frees count their own).
        bumps = 0
        run_a, run_b, run_bytes, run_count = self._run
        for entry in log:
            kind = type(entry)
            if kind is AccessRecord:
                a, a_oid, b, b_oid, _, nbytes, _, _, _, _, remote, hit = entry
                accesses += 1
                if remote:
                    if hit:
                        cached += 1
                    else:
                        remote_reads += 1
                        wire += nbytes
            elif kind is InvokeRecord:
                (a, a_oid, b, b_oid, _, call_kind, _, arg_bytes, ret_bytes,
                 _, _, _, remote) = entry
                nbytes = arg_bytes + ret_bytes
                invocations += 1
                if remote:
                    remote_calls += 1
                    wire += nbytes
                    if call_kind == "native":
                        native_calls += 1
            else:
                tag, class_name = entry[0], entry[1]
                if tag == _CPU:
                    seconds = entry[2]
                    if seconds < 0:
                        raise PartitioningError(
                            "cpu seconds cannot be negative")
                    n = index_get(class_name)
                    if n is None:
                        n = intern(class_name)
                    node_cpu[n] += seconds
                    bumps += 1
                    dirty_node(n)
                    continue
                size = entry[3]
                node = (object_node_id(class_name, entry[2])
                        if class_name in granular else class_name)
                if tag == _ALLOC:
                    n = index_get(node)
                    if n is None:
                        n = intern(node)
                    node_mem[n] += size
                    node_live[n] += 1
                    node_created[n] += 1
                    bumps += 2
                    dirty_node(n)
                    if index_get(entry[4]) is None:
                        intern(entry[4])
                    created += 1
                    created_bytes += size
                    live_objects += 1
                    live_classes[class_name] = (
                        live_classes.get(class_name, 0) + 1)
                    continue
                graph.free_object(node, size)
                freed += 1
                if live_objects > 0:
                    live_objects -= 1
                remaining = live_classes.get(class_name, 0) - 1
                if remaining <= 0:
                    live_classes.pop(class_name, None)
                else:
                    live_classes[class_name] = remaining
                continue
            if granular:
                if a_oid is not None and a in granular:
                    a = object_node_id(a, a_oid)
                if b_oid is not None and b in granular:
                    b = object_node_id(b, b_oid)
            if a == b:
                continue
            if run_a is not None:
                if (a == run_a and b == run_b) or (a == run_b and b == run_a):
                    run_bytes += nbytes
                    run_count += 1
                    continue
                e = edges_get((run_a, run_b))
                if e is None:
                    e = edge_of(run_a, run_b)
                # ``graph.add_to_edge``, inlined.
                edge_nbytes[e] += run_bytes
                edge_ncount[e] += run_count
                bumps += 1
                dirty_edge(e)
            run_a, run_b, run_bytes, run_count = a, b, nbytes, 1
        self._run = (run_a, run_b, run_bytes, run_count)
        graph.version += bumps
        self._live_objects = live_objects
        counters = self._counters
        counters.invocation_events += invocations
        counters.access_events += accesses
        counters.objects_created += created
        counters.objects_freed += freed
        counters.allocations_bytes += created_bytes
        remote_counters = self._remote
        remote_counters.remote_invocations += remote_calls
        remote_counters.remote_native_invocations += native_calls
        remote_counters.remote_accesses += remote_reads
        remote_counters.remote_bytes += wire
        remote_counters.cached_reads += cached

    def _edge(self, a: str, b: str) -> int:
        """The edge of a run over ``a`` and ``b`` (created by
        :meth:`ExecutionGraph.link` if new), remembered for both
        orders."""
        e = self._edges[a, b] = self._edges[b, a] = self._graph.link(a, b)
        return e

    # -- derived metrics ----------------------------------------------------------

    @property
    def live_objects(self) -> int:
        if self._log:
            self._fold()
        return self._live_objects

    @property
    def live_classes(self) -> int:
        if self._log:
            self._fold()
        return len(self._live_classes)

    def graph_storage_bytes(self) -> int:
        """Approximate in-memory footprint of the execution graph."""
        graph = self.graph
        return (
            graph.node_count * NODE_STORAGE_BYTES
            + graph.link_count * EDGE_STORAGE_BYTES
        )


class ResourceMonitor(ExecutionListener):
    """Tracks per-site heap pressure from GC reports.

    Policies read the latest report; experiments read the whole series.
    """

    def __init__(self, keep_series: bool = True) -> None:
        self.latest: Dict[str, GCReport] = {}
        self.series: Dict[str, list] = {}
        self._keep_series = keep_series

    def on_gc_report(self, report: GCReport, site: str) -> None:
        self.latest[site] = report
        if self._keep_series:
            self.series.setdefault(site, []).append(report)

    def free_fraction(self, site: str) -> Optional[float]:
        report = self.latest.get(site)
        return report.free_fraction if report else None
