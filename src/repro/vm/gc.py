"""Incremental mark-and-sweep garbage collector.

Chai's collector is incremental and is triggered by space limitations,
by the number of objects created since the last collection, and by the
amount of memory those objects occupy.  The paper relies on this
behaviour: the frequent (at least partial) sweeps produce a stream of
free-memory reports that drive the offload trigger policy.

We reproduce the *reporting shape* with frequent full mark-and-sweep
cycles under the same three trigger conditions; the incrementality
itself (pause slicing) is irrelevant to the offloading experiments and
is modelled only through a configurable pause-time model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Set

from ..config import GCConfig
from .heap import Heap
from .objectmodel import JObject


@dataclass(frozen=True)
class GCReport:
    """Outcome of one collection cycle, delivered to trigger policies.

    ``freed_bytes == 0`` on a cycle that reclaimed nothing — the paper's
    trigger policy counts such cycles ("additional memory cannot be
    freed") towards its consecutive-low-memory tolerance.
    """

    cycle: int
    reason: str
    live_objects: int
    freed_objects: int
    freed_bytes: int
    used_bytes: int
    free_bytes: int
    capacity: int

    @property
    def free_fraction(self) -> float:
        return self.free_bytes / self.capacity


@dataclass
class GCStats:
    """Cumulative collector statistics."""

    cycles: int = 0
    objects_collected: int = 0
    bytes_collected: int = 0
    total_pause_seconds: float = 0.0


def default_pause_model(live_objects: int, freed_objects: int) -> float:
    """Pause seconds for a cycle: base cost plus per-object visit cost."""
    return 50e-6 + 0.2e-6 * (live_objects + freed_objects)


class MarkSweepCollector:
    """Mark-and-sweep collector over one :class:`Heap`.

    The collector is deliberately ignorant of the VM: roots come from a
    callable and pause time is charged through a callable, so the same
    collector is reusable by the emulator's heap model.
    """

    def __init__(
        self,
        heap: Heap,
        config: GCConfig,
        root_provider: Callable[[], Iterable[JObject]],
        charge_pause: Optional[Callable[[float], None]] = None,
        pause_model: Callable[[int, int], float] = default_pause_model,
    ) -> None:
        self.heap = heap
        self.config = config
        self._roots = root_provider
        self._charge_pause = charge_pause
        self._pause_model = pause_model
        self._report_listeners: List[Callable[[GCReport], None]] = []
        self._free_listeners: List[Callable[[JObject], None]] = []
        self._allocations_since = 0
        self._bytes_since = 0
        self.stats = GCStats()

    def subscribe(self, listener: Callable[[GCReport], None]) -> None:
        """Register a listener for per-cycle reports (trigger policies)."""
        self._report_listeners.append(listener)

    def subscribe_free(self, listener: Callable[[JObject], None]) -> None:
        """Register a listener called for each swept object.

        The execution monitor uses this to keep per-class memory totals
        current as garbage is reclaimed.
        """
        self._free_listeners.append(listener)

    # -- trigger bookkeeping --------------------------------------------------

    def note_allocation(self, size: int) -> None:
        """Record a successful allocation for the periodic triggers."""
        self._allocations_since += 1
        self._bytes_since += size

    def should_collect(self) -> Optional[str]:
        """Return the trigger reason if a cycle is due, else ``None``.

        Asked after every guest allocation, so it reads the heap's
        counters itself (``Heap.free_fraction``'s arithmetic, in its
        order) rather than through two properties.
        """
        heap = self.heap
        config = self.config
        capacity = heap.capacity
        if (capacity - heap.used) / capacity < config.space_pressure_fraction:
            return "space-pressure"
        if self._allocations_since >= config.allocations_per_cycle:
            return "allocation-count"
        if self._bytes_since >= config.bytes_per_cycle:
            return "allocation-bytes"
        return None

    def maybe_collect(self) -> Optional[GCReport]:
        """Run a cycle if any trigger condition holds."""
        reason = self.should_collect()
        if reason is None:
            return None
        return self.collect(reason)

    # -- collection -------------------------------------------------------------

    def collect(self, reason: str = "explicit") -> GCReport:
        """Run one full mark-and-sweep cycle and report the outcome."""
        marked = self._mark()
        heap = self.heap
        garbage = [obj for obj in heap.objects()
                   if obj.oid not in marked and not obj.pinned]
        release = heap.release
        listeners = self._free_listeners
        freed_bytes = 0
        for obj in garbage:
            freed_bytes += release(obj)
            obj.alive = False
            for listener in listeners:
                listener(obj)
        freed_objects = len(garbage)
        self._allocations_since = 0
        self._bytes_since = 0
        self.stats.cycles += 1
        self.stats.objects_collected += freed_objects
        self.stats.bytes_collected += freed_bytes
        pause = self._pause_model(self.heap.live_count, freed_objects)
        self.stats.total_pause_seconds += pause
        if self._charge_pause is not None:
            self._charge_pause(pause)
        report = GCReport(
            cycle=self.stats.cycles,
            reason=reason,
            live_objects=self.heap.live_count,
            freed_objects=freed_objects,
            freed_bytes=freed_bytes,
            used_bytes=self.heap.used,
            free_bytes=self.heap.free,
            capacity=self.heap.capacity,
        )
        for listener in self._report_listeners:
            listener(report)
        return report

    # -- marking ------------------------------------------------------------

    def _mark(self) -> Set[int]:
        """Mark phase: transitive closure from the root set.

        Only objects resident on *this* heap are traced; references to
        objects hosted elsewhere are left to their home VM's collector
        (liveness across VMs is preserved by the distributed GC's export
        pins, which set ``JObject.pinned``).

        The walk reads each object's ``reference_slots()`` in place,
        without building a ``references()`` list per object.
        """
        marked: Set[int] = set()
        add = marked.add
        resident = self.heap.resident
        stack = [obj for obj in self._roots() if obj is not None]
        push = stack.append
        pop = stack.pop
        while stack:
            obj = pop()
            oid = obj.oid
            if oid in marked or oid not in resident:
                continue
            add(oid)
            for ref in obj.reference_slots():
                if isinstance(ref, JObject):
                    push(ref)
        return marked
