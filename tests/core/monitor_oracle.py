"""The eager reference for the execution monitor's index fold.

:class:`EagerMonitor` applies each hook when it arrives, through the
execution graph's string mutators, under the monitor's three rules:

* a run of interactions over one pair of different nodes is recorded
  as one ``record_interaction(count=N)`` (a new edge creates its
  missing ends, the run's first end first), and every other entry ends
  the run, as do a read and the monitor's self-fold every
  :data:`~repro.core.monitor.FOLD_AT` hooks;
* an allocation adds memory to, and counts an object on, the node of
  the allocated object only (never its creator's);
* a free updates the graph only when the graph has the node.

Its graph (``version`` and dirty sets included), counters and live
populations are what :class:`~repro.core.monitor.ExecutionMonitor`
must show at any read, after :meth:`EagerMonitor.read`.
"""

from typing import Dict, Optional, Set, Tuple

from repro.core.graph import ExecutionGraph, object_node_id
from repro.core.monitor import FOLD_AT, MonitorCounters, RemoteCounters


class EagerMonitor:
    """Updates its graph and counters on every hook, by name."""

    def __init__(self, granular: Set[str],
                 profile: Optional[ExecutionGraph] = None) -> None:
        self.graph = profile.copy() if profile is not None else ExecutionGraph()
        self.granular = granular
        self.counters = MonitorCounters()
        self.remote = RemoteCounters()
        self.live_objects = 0
        self.live_classes: Dict[str, int] = {}
        # The open run, and the hooks since the monitor last folded.
        self.run: Optional[Tuple[str, str]] = None
        self.run_bytes = self.run_count = 0
        self.hooks = 0

    def read(self) -> None:
        """What a read of the monitor does: end the open run."""
        self._end_run()
        self.hooks = 0

    def _end_run(self) -> None:
        if self.run is not None:
            self.graph.record_interaction(*self.run, self.run_bytes,
                                          count=self.run_count)
            self.run = None

    def _logged(self) -> None:
        self.hooks += 1
        if self.hooks >= FOLD_AT:
            self.read()

    def node(self, class_name: str, oid: Optional[int]) -> str:
        if oid is not None and class_name in self.granular:
            return object_node_id(class_name, oid)
        return class_name

    def _interact(self, a: str, a_oid, b: str, b_oid, nbytes: int) -> None:
        a, b = self.node(a, a_oid), self.node(b, b_oid)
        if a != b:
            if self.run in ((a, b), (b, a)):
                self.run_bytes += nbytes
                self.run_count += 1
            else:
                self._end_run()
                self.run, self.run_bytes, self.run_count = (a, b), nbytes, 1
        self._logged()

    def on_access(self, record) -> None:
        self.counters.access_events += 1
        if record.remote:
            if record.cached:
                self.remote.cached_reads += 1
            else:
                self.remote.remote_accesses += 1
                self.remote.remote_bytes += record.value_bytes
        self._interact(record.accessor_class, record.accessor_oid,
                       record.owner_class, record.owner_oid,
                       record.value_bytes)

    def on_invoke(self, record) -> None:
        nbytes = record.arg_bytes + record.ret_bytes
        self.counters.invocation_events += 1
        if record.remote:
            self.remote.remote_invocations += 1
            self.remote.remote_bytes += nbytes
            if record.kind == "native":
                self.remote.remote_native_invocations += 1
        self._interact(record.caller_class, record.caller_oid,
                       record.callee_class, record.callee_oid, nbytes)

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        self._end_run()
        self.graph.add_cpu(class_name, seconds)
        self._logged()

    def on_alloc(self, obj, site: str) -> None:
        self._end_run()
        node = self.node(obj.class_name, obj.oid)
        self.graph.add_memory(node, obj.size_bytes)
        self.graph.note_object_created(node)
        self.counters.objects_created += 1
        self.counters.allocations_bytes += obj.size_bytes
        self.live_objects += 1
        self.live_classes[obj.class_name] = (
            self.live_classes.get(obj.class_name, 0) + 1)
        self._logged()

    def on_free(self, obj) -> None:
        self._end_run()
        node = self.node(obj.class_name, obj.oid)
        if self.graph.has_node(node):
            self.graph.add_memory(node, -obj.size_bytes)
            self.graph.note_object_freed(node)
        self.counters.objects_freed += 1
        if self.live_objects > 0:
            self.live_objects -= 1
        remaining = self.live_classes.get(obj.class_name, 0) - 1
        if remaining <= 0:
            self.live_classes.pop(obj.class_name, None)
        else:
            self.live_classes[obj.class_name] = remaining
        self._logged()
