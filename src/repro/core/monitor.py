"""Execution and resource monitoring (AIDE's monitoring module).

The monitor subscribes to the VM's interception hooks and maintains the
weighted execution graph described in section 3.4 of the paper: memory
per class, CPU self-time per class, and interaction counts/bytes per
class pair.  It also keeps the aggregate counters behind Table 2 and the
remote-invocation statistics behind Figure 8.

CPU self-time attribution follows Figure 9: time is charged to the class
whose method frame is current, so a method's node receives its gross
time *minus* the time spent in nested calls to other classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

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
#: tripled the collections of a ``prototype`` pass.
FOLD_AT = 256

# Tags of the log entries that are not hook records.
_ALLOC, _FREE, _CPU = 0, 1, 2


class ExecutionMonitor(ExecutionListener):
    """Builds the execution graph from hook events.

    The hooks only append to a log; :attr:`graph`, :attr:`counters` and
    :attr:`remote` fold the log when read (and the log folds itself at
    :data:`FOLD_AT` entries).  The fold makes the same graph calls, in
    the same order, as a monitor that updated the graph on every hook,
    except that consecutive interactions over one node pair become one
    ``record_interaction(count=N)``; any other entry ends such a run.
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
        if self._log:
            self._fold()
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

    def on_alloc(self, obj: JObject, site: str) -> None:
        log = self._log
        log.append((_ALLOC, obj.class_name, obj.oid, obj.size_bytes))
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
        link_count = self.graph.link_count
        self.classes_series.observe(len(self._live_classes))
        self.objects_series.observe(self._live_objects)
        self.links_series.observe(link_count)

    # -- the fold ---------------------------------------------------------------

    def _fold(self) -> None:
        """Apply the logged hooks to the graph and counters, in order."""
        log, self._log = self._log, []
        graph = self._graph
        record = graph.record_interaction
        granular = self.object_granularity_classes
        invocations = accesses = 0
        remote_calls = native_calls = remote_reads = cached = wire = 0
        # The open run of interactions over one node pair.
        run_a = run_b = None
        run_bytes = run_count = 0
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
                if run_a is not None:
                    record(run_a, run_b, run_bytes, run_count)
                    run_a = None
                tag = entry[0]
                if tag == _CPU:
                    graph.add_cpu(entry[1], entry[2])
                elif tag == _ALLOC:
                    self._apply_alloc(*entry[1:])
                else:
                    self._apply_free(*entry[1:])
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
                record(run_a, run_b, run_bytes, run_count)
            run_a, run_b, run_bytes, run_count = a, b, nbytes, 1
        if run_a is not None:
            record(run_a, run_b, run_bytes, run_count)
        counters = self._counters
        counters.invocation_events += invocations
        counters.access_events += accesses
        remote_counters = self._remote
        remote_counters.remote_invocations += remote_calls
        remote_counters.remote_native_invocations += native_calls
        remote_counters.remote_accesses += remote_reads
        remote_counters.remote_bytes += wire
        remote_counters.cached_reads += cached

    def _node(self, class_name: str, oid: int) -> str:
        if class_name in self.object_granularity_classes:
            return object_node_id(class_name, oid)
        return class_name

    def _apply_alloc(self, class_name: str, oid: int, size: int) -> None:
        node = self._node(class_name, oid)
        self._graph.add_memory(node, size)
        self._graph.note_object_created(node)
        self._counters.objects_created += 1
        self._counters.allocations_bytes += size
        self._live_objects += 1
        self._live_classes[class_name] = (
            self._live_classes.get(class_name, 0) + 1
        )

    def _apply_free(self, class_name: str, oid: int, size: int) -> None:
        node = self._node(class_name, oid)
        # A missing node (e.g. a warm-start profile that never saw this
        # class allocate) only skips the graph update; the aggregate
        # counters must stay consistent with the event stream.
        if self._graph.has_node(node):
            self._graph.add_memory(node, -size)
            self._graph.note_object_freed(node)
        self._counters.objects_freed += 1
        if self._live_objects > 0:
            self._live_objects -= 1
        remaining = self._live_classes.get(class_name, 0) - 1
        if remaining <= 0:
            self._live_classes.pop(class_name, None)
        else:
            self._live_classes[class_name] = remaining

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
