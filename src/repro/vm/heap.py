"""Byte-accounted guest heap.

The heap does bookkeeping only — the actual Python objects live wherever
CPython puts them — but every allocation and release is charged against
a fixed capacity so that memory pressure, GC triggering, and the paper's
out-of-memory experiment behave realistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from ..errors import AideError, StaleObjectError
from .objectmodel import JObject


class HeapSpaceExhausted(AideError):
    """Internal signal: allocation does not fit; the VM should GC and retry.

    Never escapes the VM — callers of the public allocation API see
    :class:`~repro.errors.OutOfMemoryError` if the retry also fails.
    """

    def __init__(self, requested: int, free: int) -> None:
        super().__init__(f"need {requested} bytes, {free} free")
        self.requested = requested
        self.free = free


@dataclass
class HeapStats:
    """Cumulative allocation statistics for one heap."""

    allocations: int = 0
    frees: int = 0
    bytes_allocated: int = 0
    bytes_freed: int = 0
    peak_used: int = 0


class Heap:
    """Fixed-capacity heap holding live :class:`JObject` instances."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise AideError(f"heap capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.used = 0
        self._objects: Dict[int, JObject] = {}
        self.stats = HeapStats()

    # -- queries ------------------------------------------------------------

    @property
    def free(self) -> int:
        return self.capacity - self.used

    @property
    def free_fraction(self) -> float:
        return self.free / self.capacity

    @property
    def live_count(self) -> int:
        return len(self._objects)

    def contains(self, obj: JObject) -> bool:
        return obj.oid in self._objects

    @property
    def resident(self) -> Dict[int, JObject]:
        """The live objects by oid, for hot membership tests (the
        collector's mark).  Read it only; change it through
        :meth:`allocate` and :meth:`release`."""
        return self._objects

    def objects(self) -> Iterator[JObject]:
        """Snapshot iterator over live objects (safe to mutate during)."""
        return iter(list(self._objects.values()))

    def get(self, oid: int) -> JObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise StaleObjectError(f"no live object with oid {oid}") from None

    def fits(self, size: int) -> bool:
        return size <= self.free

    # -- mutation -----------------------------------------------------------

    def allocate(self, obj: JObject) -> int:
        """Charge ``obj`` against the heap and return its size, or
        signal exhaustion.

        Raises :class:`HeapSpaceExhausted` when the object does not fit;
        the VM catches that, collects, and retries.
        """
        size = obj.size_bytes
        if size > self.free:
            raise HeapSpaceExhausted(size, self.free)
        if obj.oid in self._objects:
            raise AideError(f"object {obj!r} already allocated on this heap")
        self._objects[obj.oid] = obj
        self.used += size
        self.stats.allocations += 1
        self.stats.bytes_allocated += size
        if self.used > self.stats.peak_used:
            self.stats.peak_used = self.used
        return size

    def release(self, obj: JObject) -> int:
        """Remove ``obj`` from the heap, returning the bytes reclaimed.

        Used both by the garbage collector (which also marks the object
        dead) and by migration (which moves the live object elsewhere).
        """
        if obj.oid not in self._objects:
            raise StaleObjectError(f"object {obj!r} is not on this heap")
        del self._objects[obj.oid]
        size = obj.size_bytes
        self.used -= size
        self.stats.frees += 1
        self.stats.bytes_freed += size
        return size

    def __repr__(self) -> str:
        return (
            f"Heap(used={self.used}/{self.capacity}, live={self.live_count})"
        )
