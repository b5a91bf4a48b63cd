"""Remote-read caching (COARA-style state caching).

Once a partition is chosen, completion time is dominated by cross-site
interaction cost: every remote field read pays a WaveLAN round trip for
a handful of bytes.  Friedman & Hauser's COARA shows that caching
transferred state is the single biggest lever in offloading systems —
most remotely-read fields are read-mostly (widget geometry, document
metadata, immutable strings), so the first read can fault a copy to the
reading site and later reads can be served locally.

:class:`RemoteReadCache` is that lever for the two-site platform.  It
tracks which *objects* the reading site holds a fresh copy of (object
granularity: the trace format does not name fields, and COARA likewise
caches whole-object state).  A cache hit skips the round trip entirely
and is charged like a local read — zero bytes on the wire.  The
*logical* interaction is still recorded in the execution graph, so
partitioning decisions are oblivious to the transport optimisation.

Coherence is write-invalidate, with three invalidation sources:

* **writes** — any write to a cached object (from either site; a local
  write by the owner makes the remote copy stale) drops the entry;
* **migration** — applying a placement changes residency, so the whole
  cache is dropped (entries are cheap to refill, wrong entries are not);
* **GC** — when the owner object is collected its entry is dropped.

Arrays are deliberately *not* cached: bulk element traffic is the data
the partitioner already places via migration, and caching it would
double-count that state.  Static fields cache at class granularity
(their owner is the class, pinned on the client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from ..errors import ConfigurationError

#: Default bound on cached entries; FIFO eviction beyond it.  The cache
#: maps oids to a validity bit, so even the bound is generous.
DEFAULT_CACHE_CAPACITY = 4096

#: Key prefix for static (class-granularity) entries, so an oid and a
#: class name can never collide.
_STATIC = "static"


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one run."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class RemoteReadCache:
    """Validity tracking for remotely-read object state.

    The cache never stores guest values — execution in this platform is
    serial and values are always read from the live object.  What it
    stores is the *coherence fact* that the reading site already holds a
    fresh copy, which is all the time/traffic model needs.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        #: Insertion-ordered dict used as a FIFO set: key -> True.  Hot
        #: callers test a key's membership here before they call
        #: :meth:`invalidate` (most writes find no entry); every change
        #: goes through the methods.
        self.valid: Dict[Hashable, bool] = {}

    # -- keys -------------------------------------------------------------

    @staticmethod
    def object_key(oid: int) -> Hashable:
        return oid

    @staticmethod
    def static_key(class_name: str) -> Hashable:
        return (_STATIC, class_name)

    # -- the read path ----------------------------------------------------

    def note_read(self, key: Hashable) -> bool:
        """Record a remote read of ``key``; True when it was a hit.

        A miss installs the entry (the read that is about to be charged
        faults the state across), evicting the oldest entry at capacity.
        """
        if key in self.valid:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(self.valid) >= self.capacity:
            self.valid.pop(next(iter(self.valid)))
            self.stats.evictions += 1
        self.valid[key] = True
        return False

    def holds(self, key: Hashable) -> bool:
        """Whether a fresh copy of ``key`` is cached (no counters)."""
        return key in self.valid

    # -- invalidation -----------------------------------------------------

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry (a write or GC of the owner); True if present."""
        if self.valid.pop(key, None) is not None:
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_all(self) -> int:
        """Drop everything (migration barrier); returns entries dropped."""
        dropped = len(self.valid)
        self.valid.clear()
        self.stats.invalidations += dropped
        return dropped

    def __len__(self) -> int:
        return len(self.valid)
