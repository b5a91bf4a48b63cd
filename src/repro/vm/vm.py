"""The guest virtual machine.

One :class:`VirtualMachine` plays the role of one (modified) Chai VM in
the paper: it owns a heap and collector, hosts guest objects, and keeps
named roots.  It knows nothing about partitioning or networking — those
concerns live in the execution context and the distributed runtime, just
as the paper's three AIDE modules sit beside the VM rather than inside
its interpreter loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..config import VMConfig
from ..errors import OutOfMemoryError, StaleObjectError
from .classloader import ClassRegistry
from .clock import VirtualClock
from .gc import GCReport, MarkSweepCollector
from .heap import Heap, HeapSpaceExhausted
from .objectmodel import ClassDef, JArray, JObject


class VirtualMachine:
    """A single guest VM bound to a device profile."""

    def __init__(
        self,
        name: str,
        config: VMConfig,
        registry: ClassRegistry,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.registry = registry
        self.clock = clock if clock is not None else VirtualClock()
        self.heap = Heap(config.device.heap_capacity)
        self.collector = MarkSweepCollector(
            self.heap,
            config.gc,
            root_provider=self._gc_roots,
            charge_pause=self._charge_gc_pause,
        )
        self._named_roots: Dict[str, JObject] = {}
        #: Extra root providers (the execution context registers its frame
        #: stack here so in-flight locals survive collection).
        self._root_sources: List[Callable[[], Iterable[JObject]]] = []

    # -- device-time accounting -----------------------------------------------

    @property
    def device(self):
        return self.config.device

    def charge_cpu(self, reference_seconds: float) -> float:
        """Advance the clock by device-scaled CPU time; return wall time."""
        wall = self.config.device.scaled(reference_seconds)
        self.clock.advance(wall)
        return wall

    def _charge_gc_pause(self, pause_seconds: float) -> None:
        self.clock.advance(self.config.device.scaled(pause_seconds))

    # -- roots -------------------------------------------------------------

    def set_root(self, name: str, obj: Optional[JObject]) -> None:
        """Install (or, with ``None``, remove) a named GC root."""
        if obj is None:
            self._named_roots.pop(name, None)
        else:
            self._named_roots[name] = obj

    def get_root(self, name: str) -> Optional[JObject]:
        return self._named_roots.get(name)

    def add_root_source(self, source: Callable[[], Iterable[JObject]]) -> None:
        self._root_sources.append(source)

    def local_roots(self) -> List[JObject]:
        """Named roots plus static reference fields (no root sources).

        Used by the distributed GC when one VM needs the *direct* roots
        of its peer without re-entering the peer's own cross-heap
        scanning (which would recurse).
        """
        roots: List[JObject] = list(self._named_roots.values())
        for cls in self.registry:
            for value in cls.static_values.values():
                if isinstance(value, JObject):
                    roots.append(value)
        return roots

    def _gc_roots(self) -> Iterable[JObject]:
        roots = self.local_roots()
        for source in self._root_sources:
            roots.extend(source())
        return roots

    # -- allocation -----------------------------------------------------------

    def allocate(self, obj: JObject) -> JObject:
        """Place ``obj`` on this heap, collecting (once) under pressure.

        Mirrors the JVM contract: an allocation that still does not fit
        after a full collection raises ``OutOfMemoryError`` into the
        guest.  This is exactly the failure the paper's JavaNote
        experiment provokes on the unmodified VM.
        """
        try:
            size = self.heap.allocate(obj)
        except HeapSpaceExhausted:
            self.collector.collect("space-exhausted")
            try:
                size = self.heap.allocate(obj)
            except HeapSpaceExhausted as exc:
                raise OutOfMemoryError(
                    requested=exc.requested,
                    free=self.heap.free,
                    capacity=self.heap.capacity,
                ) from None
        obj.home = self.name
        self.collector.note_allocation(size)
        return obj

    def new_instance(self, cls: ClassDef) -> JObject:
        return self.allocate(JObject(cls, home=self.name))

    def new_array(
        self, element_type: str, length: int, data: Optional[list] = None
    ) -> JArray:
        cls = self.registry.array_class(element_type)
        return self.allocate(
            JArray(cls, home=self.name, element_type=element_type,
                   length=length, data=data)
        )

    # -- migration support ------------------------------------------------------

    def evict(self, obj: JObject) -> int:
        """Remove a live object from this heap so it can move elsewhere."""
        if obj.home != self.name:
            raise StaleObjectError(
                f"{obj!r} is homed on {obj.home!r}, not {self.name!r}"
            )
        return self.heap.release(obj)

    def adopt(self, obj: JObject) -> None:
        """Receive a migrated object onto this heap.

        Unlike :meth:`allocate`, adoption raises ``OutOfMemoryError``
        without retrying — migration decisions are made by the
        partitioner, which already checked capacity.
        """
        try:
            self.heap.allocate(obj)
        except HeapSpaceExhausted:
            self.collector.collect("migration-pressure")
            try:
                self.heap.allocate(obj)
            except HeapSpaceExhausted as exc:
                raise OutOfMemoryError(
                    requested=exc.requested,
                    free=self.heap.free,
                    capacity=self.heap.capacity,
                ) from None
        obj.home = self.name

    # -- GC facade ------------------------------------------------------------

    def collect_garbage(self, reason: str = "explicit") -> GCReport:
        return self.collector.collect(reason)

    # -- static storage (pinned to the client by the routing layer) -------------

    def get_static(self, class_name: str, field_name: str) -> Any:
        cls = self.registry.lookup(class_name)
        fdef = cls.field(field_name)
        if not fdef.static:
            raise StaleObjectError(
                f"{class_name}.{field_name} is not a static field"
            )
        return cls.static_values.get(field_name)

    def set_static(self, class_name: str, field_name: str, value: Any) -> None:
        cls = self.registry.lookup(class_name)
        fdef = cls.field(field_name)
        if not fdef.static:
            raise StaleObjectError(
                f"{class_name}.{field_name} is not a static field"
            )
        cls.static_values[field_name] = value

    def __repr__(self) -> str:
        return f"VirtualMachine({self.name!r}, {self.heap!r})"
