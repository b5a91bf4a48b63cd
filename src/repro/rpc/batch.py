"""Coalescing RPC: one wire exchange for a run of remote operations.

The naive cross-site data plane charges every remote operation its own
request/response exchange — two message headers and a full WaveLAN
round trip, even for a 4-byte field write.  Chatty traces (Dia's widget
tree walking, JavaNote's buffer bookkeeping) are full of *runs* of
same-direction operations, and a run can ride one wire exchange:

* **writes** carry no result, so they buffer — their payload is charged
  when the batch flushes, their round trip never happens;
* **reads and invocations** need their response before the (serial)
  guest can continue, so they close the batch *including themselves*:
  the request leg carries every buffered payload plus the closing op,
  the response leg carries the closing op's value plus the batched acks;
* a **direction change** (the other site starts initiating, e.g. after
  control transfers into a remote method) flushes, because the buffered
  requests must reach the responder before it can proceed;
* **GC and repartition barriers** flush, so collection pauses and
  migration decisions never observe un-charged traffic.

The result is serial-equivalent: every operation still happens at the
same point in the execution order and every payload byte is eventually
charged; only the per-operation headers and round trips collapse.  A
batch of N operations costs one header per leg and one round trip
instead of N of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..net.link import LinkModel
from .cache import CacheStats, RemoteReadCache
from .marshal import MESSAGE_HEADER_BYTES

#: Flush reasons, kept as constants so stats and tests agree on names.
FLUSH_DIRECTION = "direction-change"
FLUSH_RESULT = "result-dependency"
FLUSH_GC = "gc-barrier"
FLUSH_MIGRATION = "migration-barrier"
FLUSH_SHUTDOWN = "shutdown"
#: Not a flush: the batch was discarded un-charged because the
#: surrogate died with it in flight (recovery drains, it never lands).
DROP_RECOVERY = "recovery-drop"


@dataclass(frozen=True)
class DataPlaneConfig:
    """Which cross-site data-plane optimisations are active.

    Everything defaults to *off*, which keeps the naive path's byte and
    latency accounting bit-identical to the unoptimised platform — the
    parity suite replays traces under both settings and asserts equal
    execution graphs and migration decisions.
    """

    coalescing: bool = False
    read_cache: bool = False
    pipelined_migration: bool = False
    #: Modelled service time of one backlogged RPC in the serving VM's
    #: worker pool (see :class:`repro.rpc.channel.WorkerPool`).  Not an
    #: optimisation toggle — it parameterises the queueing-delay model,
    #: so fleet studies can emulate faster or slower surrogate CPUs.
    #: The default matches the historical hardcoded 1.2 ms quantum.
    service_quantum_s: float = 1.2e-3

    @classmethod
    def off(cls) -> "DataPlaneConfig":
        return cls(False, False, False)

    @classmethod
    def enabled(cls) -> "DataPlaneConfig":
        return cls(True, True, True)

    @property
    def any_enabled(self) -> bool:
        return self.coalescing or self.read_cache or self.pipelined_migration

    def label(self) -> str:
        if not self.any_enabled:
            return "naive"
        parts = []
        if self.coalescing:
            parts.append("coalesce")
        if self.read_cache:
            parts.append("cache")
        if self.pipelined_migration:
            parts.append("pipeline")
        return "+".join(parts)


@dataclass
class DataPlaneStats:
    """Accounting for one run of the optimised data plane.

    ``naive_*`` mirrors what the unbatched path would have charged for
    the same operation stream, so reports can state savings without
    replaying twice.
    """

    ops: int = 0
    batches: int = 0
    wire_messages: int = 0
    wire_bytes: int = 0
    naive_messages: int = 0
    naive_bytes: int = 0
    naive_seconds: float = 0.0
    actual_seconds: float = 0.0
    flushes: Dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    #: Batches discarded un-applied because the surrogate died with
    #: them in flight (their ops were lost, not charged).
    dropped_batches: int = 0
    dropped_ops: int = 0

    @property
    def rtts_saved(self) -> int:
        """Round trips that never happened: coalescing plus cache hits."""
        return (self.ops - self.batches) + self.cache.hits

    @property
    def bytes_saved(self) -> int:
        return self.naive_bytes - self.wire_bytes

    @property
    def seconds_saved(self) -> float:
        return self.naive_seconds - self.actual_seconds

    def note_flush(self, reason: str) -> None:
        self.flushes[reason] = self.flushes.get(reason, 0) + 1

    def as_dict(self) -> dict:
        """JSON-able summary (benchmark report, platform report)."""
        return {
            "ops": self.ops,
            "batches": self.batches,
            "rtts_saved": self.rtts_saved,
            "wire_messages": self.wire_messages,
            "wire_bytes": self.wire_bytes,
            "naive_messages": self.naive_messages,
            "naive_bytes": self.naive_bytes,
            "bytes_saved": self.bytes_saved,
            "seconds_saved": self.seconds_saved,
            "flushes": dict(self.flushes),
            "dropped_batches": self.dropped_batches,
            "dropped_ops": self.dropped_ops,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_invalidations": self.cache.invalidations,
        }


class ExchangeCosts(dict):
    """Seconds of one headered request/response exchange on one link,
    keyed by its ``(out, back)`` payload bytes: an op's naive cost and
    a batch's actual cost alike.

    A missing key is priced and stored on first read.  Traces reuse a
    handful of sizes, and the stored float is the one the link
    returned, so the accounting stays bit-identical.
    """

    __slots__ = ("link",)

    def __init__(self, link: LinkModel) -> None:
        super().__init__()
        self.link = link

    def __missing__(self, key: Tuple[int, int]) -> float:
        out, back = key
        link = self.link
        cost = self[key] = (link.one_way(MESSAGE_HEADER_BYTES + out)
                            + link.one_way(MESSAGE_HEADER_BYTES + back))
        return cost


class LegCosts(dict):
    """Seconds of one message one way on one link, keyed by its wire
    bytes: the request and response legs of a closing batch.

    Priced on first read, as :class:`ExchangeCosts` prices exchanges,
    and the stored float is the one ``link.one_way`` returned.
    """

    __slots__ = ("link",)

    def __init__(self, link: LinkModel) -> None:
        super().__init__()
        self.link = link

    def __missing__(self, nbytes: int) -> float:
        cost = self[nbytes] = self.link.one_way(nbytes)
        return cost


class RpcCoalescer:
    """Aggregates same-direction remote operations into wire batches.

    ``transfer(from_site, to_site, nbytes)`` performs the actual charge
    (clock advance plus traffic recording) — the live platform passes
    its runtime's transfer, the emulator a comm-time charger — so the
    coalescer owns only the batching discipline and its accounting.
    :meth:`append` is the one way an operation joins a batch;
    :meth:`write`, :meth:`read` and :meth:`invoke` flush around it.
    """

    def __init__(
        self,
        link: LinkModel,
        transfer: Callable[[str, str, int], None],
        stats: Optional[DataPlaneStats] = None,
    ) -> None:
        self.link = link
        self._transfer = transfer
        self.stats = stats if stats is not None else DataPlaneStats()
        self._direction: Optional[Tuple[str, str]] = None
        self._pending_ops = 0
        self._out_bytes = 0
        self._back_bytes = 0

    @property
    def link(self) -> LinkModel:
        return self._link

    @link.setter
    def link(self, link: LinkModel) -> None:
        """Switch links (a new attachment epoch): costs are re-priced."""
        self._link = link
        self._exchange_cost = ExchangeCosts(link)
        self._leg_cost = LegCosts(link)

    @property
    def exchange_costs(self) -> ExchangeCosts:
        """The current link's exchange prices; a new link brings a new
        table."""
        return self._exchange_cost

    @property
    def leg_costs(self) -> LegCosts:
        """The current link's one-way prices by message size; a new link
        brings a new table."""
        return self._leg_cost

    # -- the operation stream ---------------------------------------------

    @property
    def pending_ops(self) -> int:
        return self._pending_ops

    def append(self, initiator: str, responder: str, out: int,
               back: int) -> bool:
        """Buffer one operation, ``out`` bytes out and ``back`` back.

        Refuses (returns ``False`` and changes nothing) when the
        pending batch runs the other way: that batch must flush first.
        """
        direction = (initiator, responder)
        if not self._pending_ops:
            self._direction = direction
        elif direction != self._direction:
            return False
        self._pending_ops += 1
        self._out_bytes += out
        self._back_bytes += back
        # What the unbatched path would have charged for this op: two
        # headered messages and a full round trip.
        stats = self.stats
        stats.ops += 1
        stats.naive_messages += 2
        stats.naive_bytes += 2 * MESSAGE_HEADER_BYTES + out + back
        stats.naive_seconds += self._exchange_cost[(out, back)]
        return True

    def _push(self, initiator: str, responder: str, out: int,
              back: int) -> None:
        if not self.append(initiator, responder, out, back):
            self.flush(FLUSH_DIRECTION)
            self.append(initiator, responder, out, back)

    def write(self, initiator: str, responder: str, nbytes: int) -> None:
        """A remote write: value out, ack back, no result — buffers."""
        self._push(initiator, responder, nbytes, 0)

    def read(self, initiator: str, responder: str, nbytes: int) -> None:
        """A remote read: empty request out, value back — closes."""
        self._push(initiator, responder, 0, nbytes)
        self.flush(FLUSH_RESULT)

    def invoke(self, initiator: str, responder: str, arg_bytes: int,
               ret_bytes: int) -> None:
        """A remote invocation: control transfers, so it closes."""
        self._push(initiator, responder, arg_bytes, ret_bytes)
        self.flush(FLUSH_RESULT)

    # -- flushing ----------------------------------------------------------

    def flush(self, reason: str = FLUSH_SHUTDOWN) -> None:
        """Charge the pending batch as one request/response exchange."""
        if not self._pending_ops:
            return
        initiator, responder = self._direction
        out = self._out_bytes
        back = self._back_bytes
        request = MESSAGE_HEADER_BYTES + out
        response = MESSAGE_HEADER_BYTES + back
        stats = self.stats
        stats.batches += 1
        stats.wire_messages += 2
        stats.wire_bytes += request + response
        stats.actual_seconds += self._exchange_cost[(out, back)]
        stats.note_flush(reason)
        self._pending_ops = 0
        self._out_bytes = 0
        self._back_bytes = 0
        self._direction = None
        self._transfer(initiator, responder, request)
        self._transfer(responder, initiator, response)

    def drop_pending(self) -> int:
        """Discard the in-flight batch un-charged (surrogate death).

        The buffered operations were lost with the peer: they are
        *not* transferred and their bytes never reach the wire — the
        recovery path reconstructs their effects client-side instead.
        Returns the number of operations dropped.
        """
        dropped = self._pending_ops
        if dropped:
            stats = self.stats
            stats.dropped_batches += 1
            stats.dropped_ops += dropped
            stats.note_flush(DROP_RECOVERY)
        self._pending_ops = 0
        self._out_bytes = 0
        self._back_bytes = 0
        self._direction = None
        return dropped

    # -- lending the batch to an inline caller --------------------------

    def release(self) -> Tuple[Optional[Tuple[str, str]], int, int, int]:
        """Hand the pending batch over and forget it: ``(direction, ops,
        out bytes, back bytes)``, the direction ``None`` when empty.

        A caller that batches inline (the replay loop) holds the batch
        between barriers, keeping this coalescer's discipline and stats
        block, and gives it back with :meth:`adopt` before anything that
        may flush, drop or re-price it.
        """
        batch = (self._direction, self._pending_ops, self._out_bytes,
                 self._back_bytes)
        self._direction = None
        self._pending_ops = 0
        self._out_bytes = 0
        self._back_bytes = 0
        return batch

    def adopt(self, direction: Optional[Tuple[str, str]], ops: int,
              out_bytes: int, back_bytes: int) -> None:
        """Take back a batch handed over by :meth:`release`."""
        self._direction = direction if ops else None
        self._pending_ops = ops
        self._out_bytes = out_bytes
        self._back_bytes = back_bytes

    def gc_barrier(self) -> None:
        """Flush before a collection cycle's pause accounting."""
        self.flush(FLUSH_GC)

    def migration_barrier(self) -> None:
        """Flush before a partitioning decision or placement change."""
        self.flush(FLUSH_MIGRATION)


class DataPlane:
    """A host's bundle of data-plane optimisations.

    One per :class:`~repro.platform.platform.DistributedPlatform` run
    and per :class:`~repro.emulator.replay.TraceReplayer` replay: the
    coalescer and cache share a single stats block, and the members
    are ``None`` for whichever optimisations the config leaves off, so
    callers can gate on attribute presence instead of re-reading flags.
    """

    def __init__(
        self,
        config: DataPlaneConfig,
        link: LinkModel,
        transfer: Callable[[str, str, int], None],
    ) -> None:
        self.config = config
        self.stats = DataPlaneStats()
        self.cache: Optional[RemoteReadCache] = (
            RemoteReadCache() if config.read_cache else None
        )
        if self.cache is not None:
            self.stats.cache = self.cache.stats
        self.coalescer: Optional[RpcCoalescer] = (
            RpcCoalescer(link, transfer, stats=self.stats)
            if config.coalescing else None
        )

    def set_link(self, link: LinkModel) -> None:
        """A new attachment epoch: the coalescer re-prices on ``link``."""
        if self.coalescer is not None:
            self.coalescer.link = link

    def flush(self, reason: str = FLUSH_SHUTDOWN) -> None:
        if self.coalescer is not None:
            self.coalescer.flush(reason)

    def drop_pending(self) -> int:
        """Surrogate death: discard the in-flight batch un-charged."""
        if self.coalescer is not None:
            return self.coalescer.drop_pending()
        return 0

    def gc_barrier(self) -> None:
        if self.coalescer is not None:
            self.coalescer.gc_barrier()

    def migration_barrier(self) -> None:
        """Flush pending traffic *before* a placement is applied."""
        if self.coalescer is not None:
            self.coalescer.migration_barrier()

    def note_migration(self) -> None:
        """A placement was applied: residency changed, drop the cache."""
        if self.cache is not None:
            self.cache.invalidate_all()

    def note_free(self, oid: int) -> None:
        """The owner of ``oid`` was collected: drop its cache entry."""
        if self.cache is not None:
            self.cache.invalidate(oid)
