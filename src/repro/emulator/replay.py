"""Trace replay: the emulator's execution engine.

Replaying a trace re-executes the recorded event schedule under a
chosen device pair, link, heap size, policy, and enhancement flags.
Distributed execution is serial (the paper's assumption): after an
offload, execution simply moves between the two emulated VMs, and time
stretches for every interaction that crosses them.

The replayer runs the *same* AIDE modules as the prototype — the
execution graph is folded from the trace (see
:mod:`repro.emulator.graphfold`) whenever a decision reads it, the
prototype's :class:`~repro.core.engine.OffloadingEngine` gates,
partitions and records every attempt with this replayer as its host,
and triggering comes from an emulated collector with Chai's trigger
conditions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..config import DeviceProfile, EnhancementFlags, GCConfig, JORNADA, PC_SURROGATE
from ..core.control import ControlPlane
from ..core.engine import OffloadEvent, OffloadingEngine
from ..core.graph import ExecutionGraph, object_node_id
from ..core.hints import ColdStartSeed
from ..core.partitioner import PartitionDecision, Partitioner, ReevalStats
from ..core.policy import EvaluationContext, OffloadPolicy, PartitionPolicy
from ..errors import ConfigurationError, TraceFormatError
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.batch import (
    FLUSH_RESULT,
    DataPlane,
    DataPlaneConfig,
    DataPlaneStats,
    ExchangeCosts,
)
from ..rpc.cache import RemoteReadCache
from ..rpc.marshal import MESSAGE_HEADER_BYTES
from ..rpc.retry import ReliableDelivery, RetryPolicy
from ..vm.gc import GCReport, default_pause_model
from .columnar import (
    ColumnarTrace,
    FLAG_STATELESS,
    FLAG_STATIC,
    FLAG_WRITE,
    TAG_ACCESS,
    TAG_ALLOC,
    TAG_INVOKE,
    TAG_WORK,
)
from .graphfold import GraphFold
from .timemodel import (
    migration_cost,
    migration_payload,
    pipelined_migration_cost,
    pipelined_migration_payload,
)

CLIENT = "client"
SURROGATE = "surrogate"
MAIN = "<main>"
INT_ARRAY = "int[]"
#: The coalesced-batch part of :meth:`TraceReplayer._reload` when there
#: is no coalescer: no pending batch, zero counters.
_NO_BATCH = (None, 0, 0, 0, 0, 0, 0.0, 0, 0, 0.0, 0)
#: The fault part of :meth:`TraceReplayer._reload` without faults: no
#: credit (so no exchange is taken inline), no horizon, no exchanges.
_NO_FAULTS = (0, -1.0, -1, 0)
#: Just under one.  :func:`post_event_threshold` scales the
#: re-evaluation threshold by it, so rounding cannot lift the threshold
#: past a clock reading at which ``now - last >= every`` already holds.
_JUST_UNDER_ONE = 1.0 - 2.0 ** -40


def post_event_threshold(next_change: float, reattach_at: Optional[float],
                         surrogate_lost: bool, last_reevaluation: float,
                         reevaluate_every: Optional[float],
                         offload_count: int) -> float:
    """The clock reading from which one of the replay loop's post-event
    checks may be due.

    For a non-negative clock ``now``, each of ``now >= next_change``,
    the reattach test (``now >= reattach_at`` while the surrogate is
    lost) and the re-evaluation test (``now - last_reevaluation >=
    reevaluate_every`` after at least one offload; ``reevaluate_every``
    is ``None`` when re-evaluation is off) implies ``now >=`` the
    result, so the loop's one compare against it can open the exact
    checks early but never skips one.  The offload event is an event
    index, which the loop compares on its own.
    """
    at = next_change
    if reattach_at is not None and surrogate_lost and reattach_at < at:
        at = reattach_at
    if reevaluate_every is not None and offload_count > 0:
        due = (last_reevaluation + reevaluate_every) * _JUST_UNDER_ONE
        if due < at:
            at = due
    return at


@dataclass(frozen=True)
class EmulatorConfig:
    """Everything a replay run is parameterised by."""

    client: DeviceProfile = JORNADA
    surrogate: DeviceProfile = PC_SURROGATE
    link: LinkModel = WAVELAN_11MBPS
    gc: GCConfig = field(default_factory=GCConfig)
    policy: OffloadPolicy = field(default_factory=OffloadPolicy.initial)
    #: Override the partitioning policy (e.g. a CPU policy for the
    #: section 5.2 experiments); defaults to the memory policy derived
    #: from ``policy``.
    partition_policy: Optional[PartitionPolicy] = None
    flags: EnhancementFlags = field(default_factory=EnhancementFlags)
    offload_enabled: bool = True
    single_shot: bool = True
    monitoring_event_cost: float = 0.0
    #: Attempt a partitioning when this many events have been replayed,
    #: regardless of memory pressure.  This drives the processing-
    #: constraint experiments (paper section 5.2), where offloading is
    #: not provoked by the collector but by the platform's re-evaluation
    #: after enough execution history has accumulated.
    offload_at_event: Optional[int] = None
    #: Bypass the partitioner entirely: when the offload attempt fires,
    #: apply exactly this placement.  Used by oracle searches that
    #: measure the *realised* cost of every candidate the heuristic
    #: produced (the paper's "partitioning the application manually").
    forced_offload_nodes: Optional[FrozenSet[str]] = None
    #: Global-placement mode: after the first offload, re-evaluate the
    #: partitioning every this many seconds of virtual time, applying
    #: the whole placement (including reverse migration).  Requires
    #: ``single_shot=False`` to be meaningful.
    reevaluate_every: Optional[float] = None
    #: Escape hatch: run every partitioning attempt cold, bypassing the
    #: warm-started candidate generator and outright chain reuse.
    #: Used by parity tests to prove the incremental path is exact.
    force_cold: bool = False
    #: Ahead-of-time placement knowledge (a
    #: :class:`repro.core.hints.ColdStartSeed`, usually from the static
    #: analyzer): its interaction profile pre-populates the replayer's
    #: execution graph and its hints reach the partitioner, so the first
    #: partitioning attempt sees predicted structure instead of only
    #: the history accumulated since startup.
    cold_start: Optional["ColdStartSeed"] = None
    #: Cross-site data-plane optimisations (RPC coalescing, remote-read
    #: caching, pipelined migration).  All off by default, which keeps
    #: the byte and latency accounting bit-identical to the naive path.
    data_plane: DataPlaneConfig = field(default_factory=DataPlaneConfig)
    #: Deterministic fault injection (``None`` = perfect link, the
    #: historical behaviour).  The spec's seed drives every drop, spike,
    #: and crash verdict, so equal configs replay bit-identically.
    faults: Optional[FaultSpec] = None
    #: Retransmission discipline used when ``faults`` is set.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Scheduled link profile (mobility): the link resolves against the
    #: virtual clock instead of staying ``link`` for the whole run.
    #: Configure through :meth:`with_profile`, which also folds the
    #: profile's disconnection windows into ``faults``.
    link_profile: Optional[LinkProfile] = None
    #: What to do when the link trend turns bad (requires
    #: ``link_profile``); ``None`` = ride the decay out passively.
    mobility: Optional[MobilityConfig] = None

    def with_heap(self, capacity: int) -> "EmulatorConfig":
        from dataclasses import replace
        return replace(self, client=self.client.with_heap(capacity))

    def with_faults(self, faults: Optional[FaultSpec]) -> "EmulatorConfig":
        from dataclasses import replace
        return replace(self, faults=faults)

    def with_profile(
        self,
        profile: LinkProfile,
        mobility: Optional[MobilityConfig] = None,
    ) -> "EmulatorConfig":
        """Attach a link profile (and optionally a mobility reaction).

        The starting link becomes the profile's t=0 link, and any
        disconnection windows are folded into the fault spec so the
        retry/recovery machinery handles the outage.
        """
        from dataclasses import replace
        faults = self.faults
        if profile.disconnections:
            faults = profile.fault_spec(faults)
        return replace(
            self,
            link=profile.link_at(0.0),
            link_profile=profile,
            mobility=mobility,
            faults=faults,
        )


@dataclass
class EmulationResult:
    """Outcome of one replay."""

    app_name: str
    completed: bool
    total_time: float
    cpu_time_client: float = 0.0
    cpu_time_surrogate: float = 0.0
    comm_time: float = 0.0
    migration_time: float = 0.0
    gc_pause_time: float = 0.0
    migration_bytes: int = 0
    monitoring_time: float = 0.0
    gc_cycles: int = 0
    remote_invocations: int = 0
    remote_native_invocations: int = 0
    remote_accesses: int = 0
    remote_bytes: int = 0
    events_processed: int = 0
    oom: bool = False
    oom_time: Optional[float] = None
    offloads: List[OffloadEvent] = field(default_factory=list)
    refusals: int = 0
    final_offload_nodes: FrozenSet[str] = frozenset()
    peak_client_bytes: int = 0
    #: Counters of the incremental partitioning session (epochs run,
    #: warm-start hits, cache hits, per-epoch latency).
    reeval: Optional[ReevalStats] = None
    #: Accounting of the optimised data plane (batches, round trips and
    #: bytes saved, cache hit rate); ``None`` when every optimisation
    #: was off.
    data_plane: Optional[DataPlaneStats] = None
    #: What the injected faults cost and how recovery went; ``None``
    #: when the run was configured without fault injection.
    faults: Optional[FaultReport] = None
    #: Roaming counters (link changes, trend fires, handoffs,
    #: proactive repatriations); ``None`` without a link profile.
    mobility: Optional[MobilityReport] = None

    @property
    def offload_count(self) -> int:
        return len([o for o in self.offloads if o.decision.beneficial])

    @property
    def remote_interactions(self) -> int:
        return self.remote_invocations + self.remote_accesses

    @property
    def overhead_time(self) -> float:
        """The paper's "remote execution overhead": offload + comm time."""
        return self.migration_time + self.comm_time

    def overhead_fraction(self, original_time: float) -> float:
        if original_time <= 0:
            raise ConfigurationError("original_time must be positive")
        return (self.total_time - original_time) / original_time

    @property
    def fault_time(self) -> float:
        """Seconds the fault machinery charged (0.0 on clean runs)."""
        return self.faults.fault_time_s if self.faults is not None else 0.0

    def fingerprint(self) -> str:
        """Canonical byte-exact rendering of the whole result.

        Two replays of the same trace under equal configs (including
        the fault spec's seed) must produce identical fingerprints —
        the determinism gate the benchmark suite enforces.
        """
        def refuse(value):
            raise TypeError(
                f"unfingerprintable value of type {type(value).__name__}"
            )

        data = _plain(self)
        # The partitioner's compute latencies are the only *wall-clock*
        # numbers in a result; everything else is emulated.  Strip them
        # so the fingerprint captures emulated behaviour alone.
        reeval = data.get("reeval")
        if reeval is not None:
            reeval.pop("last_epoch_seconds", None)
            reeval.pop("total_epoch_seconds", None)
        for offload in data.get("offloads", ()):
            decision = offload.get("decision")
            if decision is not None:
                decision.pop("compute_seconds", None)
        return json.dumps(data, sort_keys=True, default=refuse)


#: Field names per class seen by :func:`_plain` (``None``: not a
#: dataclass).
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _plain(value):
    """``value`` as fresh JSON data, as ``dataclasses.asdict`` would
    give it but without deep-copying the leaves: dataclasses become
    dicts, and lists, tuples and dicts are rebuilt, all recursively;
    a frozenset becomes a sorted list.  Any other value is returned
    as it is, for ``json.dumps`` to render or refuse."""
    cls = type(value)
    if cls is list or cls is tuple:
        return [_plain(item) for item in value]
    if cls is dict:
        return {key: _plain(item) for key, item in value.items()}
    if cls is frozenset:
        return sorted(value)
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = (
            tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None)
    if names is None:
        return value
    return {name: _plain(getattr(value, name)) for name in names}


class TraceReplayer:
    """Replays one trace under one configuration.

    Every replay runs the one batched loop in :meth:`run` over the
    trace's decoded columns.  A trace with a malformed value, or an
    object allocated twice or freed while not live, raises
    :class:`~repro.errors.TraceFormatError` from :meth:`run`.
    """

    def __init__(self, trace: ColumnarTrace,
                 config: EmulatorConfig) -> None:
        self.trace = trace
        self.config = config
        # Object residency and bookkeeping, by the trace's object index
        # (``run`` sizes the tables): site (None when not live), size
        # and node name, and the live objects in allocation order.
        self._oid_of: List[int] = [-1]
        self._site: List[Optional[str]] = []
        self._size: List[int] = []
        self._node: List[Optional[str]] = []
        self._live: Dict[int, None] = {}
        # The live objects of each node, in allocation order, as of the
        # last migration: ``migrate`` files the objects born since then
        # (see ``_moves``).
        self._objects_of: Dict[str, Dict[int, None]] = {}
        self._client_live = 0
        self._surrogate_live = 0
        # Client garbage awaiting a collection: index -> size, in free
        # order.
        self._pending_garbage: Dict[int, int] = {}
        # Emulated collector counters.
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        # Placement.
        self._offloaded: FrozenSet[str] = frozenset()
        self._class_on_surrogate: Set[str] = set()
        # The loop's form of the class set (see _class_sites).
        self._class_sites_of: Optional[Set[str]] = None
        self._class_site: List[str] = []
        self._pinned_cache: Optional[List[str]] = None
        # The link in force *now*.  Static runs never reassign it; under
        # a link profile it tracks the schedule (every cost site reads
        # this attribute, never ``config.link``).
        profile = config.link_profile
        self._link: LinkModel = (
            profile.link_at(0.0) if profile is not None else config.link
        )
        # Loss, rediscovery and roaming decisions: the state machine the
        # prototype drives too, with this replayer as its host.
        spec = config.faults
        self._control = control = ControlPlane(
            self, self._link, faults=spec, link_profile=profile,
            mobility=config.mobility,
        )
        # Cross-site data plane: the prototype's bundle.  Its coalescer
        # and remote-read cache exist only when enabled, so the naive
        # path stays on the exact pre-optimisation code (bit-identical
        # accounting).
        self._data_plane = DataPlane(config.data_plane, self._link,
                                     self._transfer_one_way)
        # Fault injection: a fresh seeded schedule per replayer, so two
        # replays of one config draw identical fault streams.
        self._delivery = control.delivery = (
            ReliableDelivery(
                config.retry,
                schedule=FaultSchedule(spec),
                charge=self._charge_fault,
                counters=control.faults,
                now=lambda: self._now,
                events=lambda: self.result.events_processed,
                on_peer_lost=control.lose_surrogate,
            )
            if spec is not None and spec.any_faults else None
        )
        granular = config.flags.arrays_object_granularity
        self._granular_classes: Set[str] = {INT_ARRAY} if granular else set()
        # The graph is folded on demand (see ``graph``).  The entry
        # point is always a (pinned) graph node, even before any
        # interaction references it.
        graph = ExecutionGraph()
        graph.ensure_node(MAIN)
        self._fold = GraphFold(trace, graph, self._granular_classes)
        # The side-log position of the replay's current point: events
        # before it have happened.  Cold calls out of the loop set it.
        self._log_at = 0
        self._now = 0.0
        # Trigger, partitioning session and offload record: the
        # prototype's engine, with this replayer as its host.
        self.engine = engine = OffloadingEngine(
            self,
            Partitioner(config.partition_policy
                        if config.partition_policy is not None
                        else config.policy.make_partition_policy()),
            config.policy.make_trigger(),
            client_site=CLIENT,
            single_shot=config.single_shot,
            reevaluate_every=config.reevaluate_every,
        )
        # The seed's profile pre-shapes the graph, so the first MINCUT
        # runs on real shape.  Seeding rebuilds the session, so the
        # escape hatch is set after it.
        engine.apply_cold_start(config.cold_start)
        engine.session.force_cold = config.force_cold
        self.result = EmulationResult(
            app_name=trace.app_name, completed=False, total_time=0.0,
            offloads=engine.events,
        )

    @property
    def graph(self) -> ExecutionGraph:
        """The execution graph as of the replay's current point (after
        :meth:`run`: as of the end), folded from the trace on read."""
        return self._fold.advance(self._log_at)

    # -- time ------------------------------------------------------------

    def _charge_fault(self, seconds: float) -> None:
        """Clock charge for fault-induced waiting (timeouts, backoff).

        Deliberately *not* ``comm_time``: the degradation guards
        subtract ``FaultReport.fault_time_s`` from a faulty run's total
        to recover the useful-work time.
        """
        self._now += seconds

    def _exchange(self) -> bool:
        """One cross-site exchange through the fault gauntlet.

        ``True``: delivered (possibly after charged retries) — charge
        and count the operation as usual.  ``False``: the surrogate was
        declared dead under this exchange and recovery has already run;
        the operation resolves locally.  An exchange the schedule has
        already judged clean, inside its horizon, costs one unit of
        credit and its count; it is the same check the replay loop
        makes inline.
        """
        delivery = self._delivery
        if delivery is None:
            return True
        schedule = delivery.schedule
        if (schedule.credit and self._now < schedule.horizon_time
                and self.result.events_processed < schedule.horizon_event):
            schedule.credit -= 1
            delivery.exchanges += 1
            return True
        return self._gauntlet()

    def _gauntlet(self) -> bool:
        """The whole fault gauntlet for one exchange, then re-arm the
        inline path: judge the next exchanges ahead from the clock the
        gauntlet left."""
        delivery = self._delivery
        delivered = delivery.attempt()
        delivery.look_ahead()
        return delivered

    def _transfer_one_way(self, from_site: str, to_site: str,
                          nbytes: int) -> None:
        """The coalescer's transfer hook: one batched message leg."""
        if not self._exchange():
            # The batch died with the surrogate: its legs never travel.
            return
        seconds = self._link.one_way(nbytes)
        self.result.comm_time += seconds
        self._now += seconds

    # -- control-plane and engine ports (see repro.core.control and
    # -- repro.core.engine) ---------------------------------------------------

    def now(self) -> float:
        return self._now

    @property
    def surrogate_lost(self) -> bool:
        return self._control.surrogate_lost

    def drop_traffic(self) -> int:
        dropped = self._data_plane.drop_pending()
        self._data_plane.note_migration()
        return dropped

    def repatriate_unreachable(self) -> Tuple[int, int]:
        """Reconstruct every surrogate-resident object client-side from
        the replayer's own bookkeeping: zero wire charge."""
        repatriated = 0
        repatriated_bytes = 0
        site_of = self._site
        for ix in self._live:
            if site_of[ix] == SURROGATE:
                size = self._size[ix]
                site_of[ix] = CLIENT
                self._client_live += size
                self._surrogate_live -= size
                repatriated += 1
                repatriated_bytes += size
        self._offloaded = frozenset()
        self._class_on_surrogate = set()
        if self._client_live > self.result.peak_client_bytes:
            self.result.peak_client_bytes = self._client_live
        return repatriated, repatriated_bytes

    def flush_traffic(self) -> None:
        self._data_plane.flush()

    def set_link(self, link: LinkModel) -> None:
        self._link = link
        self._data_plane.set_link(link)

    def placement(self) -> FrozenSet[str]:
        return self._offloaded

    def roam(self) -> bool:
        """Stream the partition surrogate-to-surrogate over the mobility
        backhaul; residency does not change and nothing transits the
        client's wireless hop.  ``False`` when the old surrogate died
        under the stream (recovery has repatriated everything)."""
        if not self._exchange():
            return False
        total_bytes = 0
        count = 0
        site_of = self._site
        for ix in self._live:
            if site_of[ix] == SURROGATE:
                total_bytes += self._size[ix]
                count += 1
        wire = 0
        duration = 0.0
        if count:
            wire = migration_payload(total_bytes, count)
            duration = migration_cost(self.config.mobility.backhaul,
                                      total_bytes, count)
            self.result.migration_bytes += wire
            self.result.migration_time += duration
            self._now += duration
        self._control.handed_off(wire, duration, self._link)
        return True

    def resume_offloading(self, attempt: bool) -> None:
        if attempt:
            self._attempt_offload()

    # -- the replay loop ------------------------------------------------------

    def _finish_run(self) -> EmulationResult:
        """Close out a replay once the loop has spilled its state."""
        self._log_at = self.result.events_processed
        self._fold.mark(self._log_at)
        self._data_plane.flush()
        control = self._control
        # A run that ended in degraded mode closes its downtime window.
        control.close_downtime()
        engine = self.engine
        if self.config.faults is not None:
            control.faults.epochs_survived = engine.offload_count
            self.result.faults = control.faults
        self.result.mobility = control.mobility
        self.result.completed = not self.result.oom
        self.result.total_time = self._now
        self.result.final_offload_nodes = self._offloaded
        self.result.refusals = engine.refusal_count
        self.result.reeval = engine.reeval_stats
        self.result.data_plane = (self._data_plane.stats
                                  if self.config.data_plane.any_enabled
                                  else None)
        return self.result

    def run(self) -> EmulationResult:
        """Replay the trace: one batched dispatch over its columns.

        Each event kind's handling is written inline, and every float
        is accumulated in a fixed order, so equal traces and configs
        give byte-identical fingerprints; the digests in
        ``tests/emulator/replay_goldens.json`` pin them.  The speed
        comes from batch-decoding the columns into plain lists once and
        hoisting every per-event attribute/config lookup out of the
        loop.  Per-object state (site, size, node) sits in lists indexed
        by the trace's dense object indices (see
        :func:`~repro.emulator.columnar.object_indices`) and the
        fallback site of a class in a list indexed by string id, so an
        event's lookups are list indexing.  Mutable replayer state lives
        in locals and is spilled to (and reloaded from) the instance
        only around the rare cold calls — GC cycles, partitioning
        attempts, surrogate-side reclaims, fault-gauntlet exchanges,
        roaming and rediscovery.  One compare gates the post-event
        checks: :func:`post_event_threshold` is never later than the
        clock reading at which one of them comes due.  An access is
        dispatched first.  A remote access and a remote invoke share one
        tail: an op of ``out`` bytes there and ``back`` bytes back,
        which a write buffers and a read or an invoke closes.  An
        exchange the fault schedule has already judged clean (see
        ``_exchange``) is taken inline, against the schedule's credit
        and horizon held in locals.  So is the coalesced data plane: the
        loop holds the pending batch and its stats counters in locals, a
        buffered write is local arithmetic, and a read or an invoke
        closes the batch inline.  Naive ops and batches are priced from
        one :class:`~repro.rpc.batch.ExchangeCosts` table.  Every cold
        call but a surrogate-side reclaim (which writes back only the
        heap counters), a direction change (whose flush the coalescer
        runs) included, goes through one :meth:`_spill`/:meth:`_reload`
        pair, which also lends the batch back to the coalescer and the
        credit back to the schedule.  The loop does no graph work:
        reading :attr:`graph` folds the events replayed so far.
        """
        trace = self.trace
        cols = trace.column_lists()
        strings = trace.strings
        tags = cols["tags"]
        a_cls, a_ix = cols["a_cls"], cols["a_ix"]
        b_cls, b_ix, b_oid = cols["b_cls"], cols["b_ix"], cols["b_oid"]
        k_id, flags = cols["k_id"], cols["flags"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]
        oid_of = cols["oid_of"]

        config = self.config
        result = self.result
        client_speed = config.client.cpu_speed
        surrogate_speed = config.surrogate.cpu_speed
        capacity = config.client.heap_capacity
        space_frac = config.gc.space_pressure_fraction
        allocs_per_cycle = config.gc.allocations_per_cycle
        bytes_per_cycle = config.gc.bytes_per_cycle
        monitoring_cost = config.monitoring_event_cost
        # The monitoring charge per event, by the site that runs it.
        monitor_wall = ({CLIENT: monitoring_cost / client_speed,
                         SURROGATE: monitoring_cost / surrogate_speed}
                        if monitoring_cost else None)
        control = self._control
        engine = self.engine
        link = self._link
        # No event index is -1, so an unset offload event never matches.
        offload_at = (-1 if config.offload_at_event is None
                      else config.offload_at_event)
        reevaluate_every = config.reevaluate_every
        offload_enabled = config.offload_enabled
        stateless_local = config.flags.stateless_natives_local

        # String-id tables: mkind comparisons, class placement and node
        # naming become integer work.  Ids that cannot occur compare
        # unequal to every column cell.
        native_id = static_id = -2
        for sid, name in enumerate(strings):
            if name == "native":
                native_id = sid
            elif name == "static":
                static_id = sid
        granular_ids = {
            sid for sid, name in enumerate(strings)
            if name in self._granular_classes
        }
        array_ids = {
            sid for sid, name in enumerate(strings)
            if name.endswith("[]")
        }

        # Per-object tables, indexed by the trace's object indices; a
        # site of None is an object that is not live (index 0, the
        # ``-1`` sentinel, never is).
        self._oid_of = oid_of
        self._site = site_of = [None] * len(oid_of)
        self._size = size_of = [0] * len(oid_of)
        self._node = node_of = [None] * len(oid_of)
        live = self._live
        pending = self._pending_garbage
        data_plane = self._data_plane
        cache = data_plane.cache
        cache_invalidate = cache.invalidate if cache is not None else None
        cache_valid = cache.valid if cache is not None else None
        cache_note_read = cache.note_read if cache is not None else None
        static_key = RemoteReadCache.static_key
        coalescer = data_plane.coalescer
        # One price table for every exchange: a naive op's cost and a
        # batch's alike, the coalescer's when there is one.  A new link
        # brings a new table.  The loop reads it through ``get`` (a dict
        # subclass's ``[]`` is slower) and prices a miss by ``[]``.
        exchange_cost = (coalescer.exchange_costs if coalescer is not None
                         else ExchangeCosts(link))
        cost_get = exchange_cost.get
        # A closing batch charges its two legs one at a time (a leg can
        # die alone), each priced from the coalescer's per-size table
        # for the same link, read the same way.
        leg_cost = coalescer.leg_costs if coalescer is not None else None
        leg_get = leg_cost.get if leg_cost is not None else None
        # Fault gauntlet: without a coalescer every uncached remote
        # op is one exchange of its own; with one, each leg of a
        # closing batch is.  Either way an exchange may declare the
        # surrogate dead, and recovery then rewrites the heap counters
        # and placement under the loop.  An exchange the schedule judged
        # clean ahead of time, inside its horizon, is taken inline (see
        # ``_exchange``); the rest run the gauntlet.  Without faults the
        # credit is zero.
        delivery = self._delivery
        attempt = (self._gauntlet
                   if delivery is not None and coalescer is None else None)

        # Hoisted mutable state, spilled and reloaded around cold calls;
        # the schedule's credit and horizon; with a coalescer, its
        # pending batch (the initiating site, ops and payload bytes each
        # way) and the stats counters it touches.
        (now, client_live, surrogate_live, allocs_since_gc, bytes_since_gc,
         class_site, comm_time, peak_client, check_at, credit, horizon_time,
         horizon_event, exchanges, batch_from, batch_ops, batch_out,
         batch_back, dp_ops, dp_naive_bytes, dp_naive_s, dp_batches,
         dp_wire_bytes, dp_actual_s, dp_results) = self._reload()
        cpu_client = result.cpu_time_client
        cpu_surrogate = result.cpu_time_surrogate
        monitoring_time = result.monitoring_time
        remote_invocations = result.remote_invocations
        remote_native = result.remote_native_invocations
        remote_accesses = result.remote_accesses
        remote_bytes = result.remote_bytes
        ep = 0
        oom = False
        headers = MESSAGE_HEADER_BYTES
        two_headers = 2 * MESSAGE_HEADER_BYTES

        # The module constants the loop reads, as locals (cheaper to
        # load than globals).
        CLIENT_, SURROGATE_ = CLIENT, SURROGATE
        TAG_ACCESS_, TAG_INVOKE_ = TAG_ACCESS, TAG_INVOKE
        TAG_WORK_, TAG_ALLOC_ = TAG_WORK, TAG_ALLOC
        FLAG_STATIC_, FLAG_WRITE_ = FLAG_STATIC, FLAG_WRITE
        FLAG_STATELESS_ = FLAG_STATELESS
        for i, tag in enumerate(tags):
            if tag == TAG_ACCESS_ or tag == TAG_INVOKE_:
                # An interaction from src (the site running it) to dst
                # (the accessed field's owner, the callee's site).
                src = site_of[a_ix[i]]
                if src is None:
                    src = class_site[a_cls[i]]
                if tag == TAG_ACCESS_:
                    # -- access --------------------------------------------
                    fl = flags[i]
                    if fl & FLAG_STATIC_:
                        dst = CLIENT_
                    else:
                        dst = site_of[b_ix[i]]
                        if dst is None:
                            dst = class_site[b_cls[i]]
                    if cache is not None:
                        if fl & FLAG_STATIC_:
                            key = static_key(strings[b_cls[i]])
                        elif b_ix[i] == 0 or b_cls[i] in array_ids:
                            key = None
                        else:
                            key = b_oid[i]
                        if key is None:
                            pass
                        elif fl & FLAG_WRITE_:
                            # Most writes find no entry, and a miss
                            # counts nothing: test before the call.
                            if key in cache_valid:
                                cache_invalidate(key)
                        elif dst != src and cache_note_read(key):
                            # Served from the reading site's copy: no
                            # round trip, zero bytes on the wire.
                            src = dst
                else:
                    # -- invoke --------------------------------------------
                    kid = k_id[i]
                    if kid == native_id:
                        if flags[i] & FLAG_STATELESS_ and stateless_local:
                            dst = src
                        else:
                            dst = CLIENT_
                    elif kid == static_id:
                        dst = src
                    else:
                        dst = site_of[b_ix[i]]
                        if dst is None:
                            dst = class_site[b_cls[i]]
                if dst != src:
                    # -- the remote tail -----------------------------------
                    # An op of out bytes there and back bytes back.  A
                    # write carries the value out and an empty ack back,
                    # and buffers; a read, an empty request out and the
                    # value back; an invoke, its arguments and result.
                    # A read or an invoke needs its answer.
                    if tag == TAG_ACCESS_:
                        is_write = fl & FLAG_WRITE_
                        if is_write:
                            out = n1[i]
                            back = 0
                        else:
                            out = 0
                            back = n1[i]
                    else:
                        is_write = False
                        out = n1[i]
                        back = n2[i]
                    # What the op costs as one exchange of its own.
                    ck = (out, back)
                    cost = cost_get(ck)
                    if cost is None:
                        cost = exchange_cost[ck]
                    if coalescer is None:
                        # One exchange through the fault gauntlet.
                        if (credit and now < horizon_time
                                and ep < horizon_event):
                            credit -= 1
                            exchanges += 1
                        elif attempt is not None:
                            self._spill(
                                ep, now, client_live, surrogate_live,
                                allocs_since_gc, bytes_since_gc, comm_time,
                                peak_client, credit, exchanges, batch_from,
                                batch_ops, batch_out, batch_back, dp_ops,
                                dp_naive_bytes, dp_naive_s, dp_batches,
                                dp_wire_bytes, dp_actual_s, dp_results)
                            delivered = attempt()
                            (now, client_live, surrogate_live,
                             allocs_since_gc, bytes_since_gc, class_site,
                             comm_time, peak_client, check_at, credit,
                             horizon_time, horizon_event, exchanges,
                             batch_from, batch_ops, batch_out, batch_back,
                             dp_ops, dp_naive_bytes, dp_naive_s, dp_batches,
                             dp_wire_bytes, dp_actual_s,
                             dp_results) = self._reload()
                            if not delivered:
                                # The surrogate died under this exchange:
                                # recovery has repatriated everything, so
                                # the op completes on the client,
                                # uncharged and uncounted.
                                src = dst = CLIENT_
                        if dst != src:
                            comm_time += cost
                            now += cost
                    elif batch_ops and batch_from != src:
                        # The pending batch runs the other way: the
                        # coalescer flushes it and takes this op (a read
                        # closes its batch as an invoke does).
                        self._spill(
                            ep, now, client_live, surrogate_live,
                            allocs_since_gc, bytes_since_gc, comm_time,
                            peak_client, credit, exchanges, batch_from,
                            batch_ops, batch_out, batch_back, dp_ops,
                            dp_naive_bytes, dp_naive_s, dp_batches,
                            dp_wire_bytes, dp_actual_s, dp_results)
                        if is_write:
                            coalescer.write(src, dst, out)
                        else:
                            coalescer.invoke(src, dst, out, back)
                        (now, client_live, surrogate_live, allocs_since_gc,
                         bytes_since_gc, class_site, comm_time, peak_client,
                         check_at, credit, horizon_time, horizon_event,
                         exchanges, batch_from, batch_ops, batch_out,
                         batch_back, dp_ops, dp_naive_bytes, dp_naive_s,
                         dp_batches, dp_wire_bytes, dp_actual_s,
                         dp_results) = self._reload()
                    else:
                        # The op joins the batch; a read or an invoke
                        # closes it.
                        batch_from = src
                        batch_ops += 1
                        batch_out += out
                        batch_back += back
                        dp_ops += 1
                        dp_naive_bytes += two_headers + out + back
                        dp_naive_s += cost
                        if not is_write:
                            # -- close the batch: one exchange -------------
                            request = headers + batch_out
                            response = headers + batch_back
                            dp_batches += 1
                            dp_wire_bytes += request + response
                            ck = (batch_out, batch_back)
                            cost = cost_get(ck)
                            if cost is None:
                                cost = exchange_cost[ck]
                            dp_actual_s += cost
                            dp_results += 1
                            batch_ops = batch_out = batch_back = 0
                            for leg in (request, response):
                                if (credit and now < horizon_time
                                        and ep < horizon_event):
                                    credit -= 1
                                    exchanges += 1
                                elif delivery is not None:
                                    self._spill(
                                        ep, now, client_live, surrogate_live,
                                        allocs_since_gc, bytes_since_gc,
                                        comm_time, peak_client, credit,
                                        exchanges, batch_from, batch_ops,
                                        batch_out, batch_back, dp_ops,
                                        dp_naive_bytes, dp_naive_s,
                                        dp_batches, dp_wire_bytes,
                                        dp_actual_s, dp_results)
                                    delivered = self._gauntlet()
                                    (now, client_live, surrogate_live,
                                     allocs_since_gc, bytes_since_gc,
                                     class_site, comm_time, peak_client,
                                     check_at, credit, horizon_time,
                                     horizon_event, exchanges, batch_from,
                                     batch_ops, batch_out, batch_back, dp_ops,
                                     dp_naive_bytes, dp_naive_s, dp_batches,
                                     dp_wire_bytes, dp_actual_s,
                                     dp_results) = self._reload()
                                    if not delivered:
                                        # The leg died with the surrogate:
                                        # it never travels.
                                        continue
                                seconds = leg_get(leg)
                                if seconds is None:
                                    seconds = leg_cost[leg]
                                comm_time += seconds
                                now += seconds
                    if dst != src:
                        remote_bytes += out + back
                        if tag == TAG_ACCESS_:
                            remote_accesses += 1
                        else:
                            remote_invocations += 1
                            if kid == native_id:
                                remote_native += 1
                if monitor_wall is not None:
                    wall = monitor_wall[dst]
                    monitoring_time += wall
                    now += wall
            elif tag == TAG_WORK_:
                # -- work --------------------------------------------------
                src = site_of[a_ix[i]]
                if src is None:
                    src = class_site[a_cls[i]]
                seconds = f64[i]
                if src == CLIENT_:
                    wall = seconds / client_speed
                    cpu_client += wall
                else:
                    wall = seconds / surrogate_speed
                    cpu_surrogate += wall
                now += wall
            elif tag == TAG_ALLOC_:
                # -- alloc -------------------------------------------------
                site = class_site[b_cls[i]]
                size = n1[i]
                if site == CLIENT_:
                    if client_live + size > capacity:
                        self._spill(
                            ep, now, client_live, surrogate_live,
                            allocs_since_gc, bytes_since_gc, comm_time,
                            peak_client, credit, exchanges, batch_from,
                            batch_ops, batch_out, batch_back, dp_ops,
                            dp_naive_bytes, dp_naive_s, dp_batches,
                            dp_wire_bytes, dp_actual_s, dp_results)
                        self._gc_cycle("space-exhausted", ep)
                        (now, client_live, surrogate_live, allocs_since_gc,
                         bytes_since_gc, class_site, comm_time, peak_client,
                         check_at, credit, horizon_time, horizon_event,
                         exchanges, batch_from, batch_ops, batch_out,
                         batch_back, dp_ops, dp_naive_bytes, dp_naive_s,
                         dp_batches, dp_wire_bytes, dp_actual_s,
                         dp_results) = self._reload()
                        # Placement may have changed under the GC's
                        # offload trigger, but the allocation keeps its
                        # pre-GC site decision.
                        if client_live + size > capacity:
                            # OOM: the rest of the allocation is
                            # skipped; the post-event gate opens, so the
                            # common checks still run before the loop
                            # breaks.
                            result.oom = True
                            result.oom_time = now
                            oom = True
                            check_at = -math.inf
                            self._fold.end = i
                    if not oom:
                        client_live += size
                        if client_live > peak_client:
                            peak_client = client_live
                        allocs_since_gc += 1
                        bytes_since_gc += size
                else:
                    surrogate_live += size
                if not oom:
                    ix = a_ix[i]
                    if site_of[ix] is not None:
                        raise TraceFormatError(
                            f"event {i}: ALLOC of oid {oid_of[ix]}, which "
                            f"is still live")
                    acid = a_cls[i]
                    site_of[ix] = site
                    size_of[ix] = size
                    node_of[ix] = (
                        object_node_id(strings[acid], oid_of[ix])
                        if granular_ids and acid in granular_ids
                        else strings[acid]
                    )
                    live[ix] = None
                    if monitor_wall is not None:
                        wall = monitor_wall[site]
                        monitoring_time += wall
                        now += wall
                    # -- collector triggers -------------------------------
                    if (capacity - client_live) / capacity < space_frac:
                        reason = "space-pressure"
                    elif allocs_since_gc >= allocs_per_cycle:
                        reason = "allocation-count"
                    elif bytes_since_gc >= bytes_per_cycle:
                        reason = "allocation-bytes"
                    else:
                        reason = None
                else:
                    reason = None
                if reason is not None:
                    self._spill(
                        ep, now, client_live, surrogate_live, allocs_since_gc,
                        bytes_since_gc, comm_time, peak_client, credit,
                        exchanges, batch_from, batch_ops, batch_out,
                        batch_back, dp_ops, dp_naive_bytes, dp_naive_s,
                        dp_batches, dp_wire_bytes, dp_actual_s, dp_results)
                    self._gc_cycle(reason, ep + 1)
                    (now, client_live, surrogate_live, allocs_since_gc,
                     bytes_since_gc, class_site, comm_time, peak_client,
                     check_at, credit, horizon_time, horizon_event,
                     exchanges, batch_from, batch_ops, batch_out, batch_back,
                     dp_ops, dp_naive_bytes, dp_naive_s, dp_batches,
                     dp_wire_bytes, dp_actual_s, dp_results) = self._reload()
            else:
                # -- free (TAG_FREE) ---------------------------------------
                ix = a_ix[i]
                site = site_of[ix]
                if site == CLIENT_ and ix not in pending:
                    # Client garbage waits for an emulated collection.
                    pending[ix] = size_of[ix]
                elif site == SURROGATE_:
                    # Surrogate-side garbage reclaims immediately.
                    self._client_live = client_live
                    self._surrogate_live = surrogate_live
                    self._reclaim(ix, ep)
                    client_live = self._client_live
                    surrogate_live = self._surrogate_live
                else:
                    raise TraceFormatError(
                        f"event {i}: FREE of oid {oid_of[ix]}, which is "
                        f"not live")
            # -- post-event checks ----------------------------------------
            ep += 1
            if now >= check_at or ep == offload_at:
                if (now >= control.next_change
                        or (control.reattach_at is not None
                            and now >= control.reattach_at
                            and control.surrogate_lost)
                        or (ep == offload_at and offload_enabled)
                        or (reevaluate_every is not None and offload_enabled
                            and now - engine.last_reevaluation
                            >= reevaluate_every
                            and engine.offload_count > 0)):
                    self._spill(
                        ep, now, client_live, surrogate_live, allocs_since_gc,
                        bytes_since_gc, comm_time, peak_client, credit,
                        exchanges, batch_from, batch_ops, batch_out,
                        batch_back, dp_ops, dp_naive_bytes, dp_naive_s,
                        dp_batches, dp_wire_bytes, dp_actual_s, dp_results)
                    self._after_event(ep)
                    (now, client_live, surrogate_live, allocs_since_gc,
                     bytes_since_gc, class_site, comm_time, peak_client,
                     check_at, credit, horizon_time, horizon_event,
                     exchanges, batch_from, batch_ops, batch_out, batch_back,
                     dp_ops, dp_naive_bytes, dp_naive_s, dp_batches,
                     dp_wire_bytes, dp_actual_s, dp_results) = self._reload()
                    # A roam may have changed the link, and the link the
                    # price table.
                    link = self._link
                    if coalescer is not None:
                        exchange_cost = coalescer.exchange_costs
                        leg_cost = coalescer.leg_costs
                        leg_get = leg_cost.get
                    elif exchange_cost.link is not link:
                        exchange_cost = ExchangeCosts(link)
                    cost_get = exchange_cost.get
                if oom:
                    break
        self._spill(ep, now, client_live, surrogate_live, allocs_since_gc,
                    bytes_since_gc, comm_time, peak_client, credit, exchanges,
                    batch_from, batch_ops, batch_out, batch_back, dp_ops,
                    dp_naive_bytes, dp_naive_s, dp_batches, dp_wire_bytes,
                    dp_actual_s, dp_results)
        # No cold call reads these, so they are written once, here.
        result.cpu_time_client = cpu_client
        result.cpu_time_surrogate = cpu_surrogate
        result.monitoring_time = monitoring_time
        result.remote_invocations = remote_invocations
        result.remote_native_invocations = remote_native
        result.remote_accesses = remote_accesses
        result.remote_bytes = remote_bytes
        return self._finish_run()

    def _after_event(self, ep: int) -> None:
        """The post-event checks, in order, once one of them is due."""
        control = self._control
        config = self.config
        if self._now >= control.next_change:
            # Roaming may migrate state, charge time and change the link.
            control.poll_mobility()
        if (control.reattach_at is not None
                and self._now >= control.reattach_at
                and control.surrogate_lost):
            # The partition that killed the surrogate has healed:
            # rediscovery may start a fresh offload epoch.
            control.rediscover(config.offload_enabled)
        if ep == config.offload_at_event and config.offload_enabled:
            self._attempt_offload()
        if config.offload_enabled and self.engine.reevaluation_due():
            self._attempt_offload(reevaluation=True)

    def _spill(
        self, ep, now, client_live, surrogate_live, allocs_since_gc,
        bytes_since_gc, comm_time, peak_client, credit, exchanges,
        batch_from, batch_ops, batch_out, batch_back, dp_ops, naive_bytes,
        naive_seconds, batches, wire_bytes, actual_seconds, result_flushes,
    ) -> None:
        """Write the batched loop's hoisted state back to the instance.

        The loop keeps replayer state in locals; this writes it back so
        a cold call (a GC cycle, the post-event checks, a fault-gauntlet
        exchange, a direction-change flush, the end of the run, and
        everything they reach) observes the replay's exact state, then
        the loop takes :meth:`_reload` back into its locals.  The event
        index is also the side-log position of what the cold call logs.
        Under faults, the credit the loop has left and the exchanges it
        counted go back to the schedule and the delivery layer.

        With a coalescer, the pending batch goes back to it and the
        counters back to the stats block, so the call may flush, drop
        or re-price the batch.  The loop adds two naive messages per op
        and two wire messages per batch, so the message counts follow
        the op and batch counts.
        """
        result = self.result
        self._log_at = ep
        result.events_processed = ep
        self._now = now
        self._client_live = client_live
        self._surrogate_live = surrogate_live
        self._allocs_since_gc = allocs_since_gc
        self._bytes_since_gc = bytes_since_gc
        result.comm_time = comm_time
        if peak_client > result.peak_client_bytes:
            result.peak_client_bytes = peak_client
        delivery = self._delivery
        if delivery is not None:
            delivery.schedule.credit = credit
            delivery.exchanges = exchanges
        coalescer = self._data_plane.coalescer
        if coalescer is None:
            return
        stats = self._data_plane.stats
        stats.naive_messages += 2 * (dp_ops - stats.ops)
        stats.wire_messages += 2 * (batches - stats.batches)
        stats.ops = dp_ops
        stats.naive_bytes = naive_bytes
        stats.naive_seconds = naive_seconds
        stats.batches = batches
        stats.wire_bytes = wire_bytes
        stats.actual_seconds = actual_seconds
        if result_flushes:
            stats.flushes[FLUSH_RESULT] = result_flushes
        direction = None
        if batch_ops:
            direction = (batch_from,
                         CLIENT if batch_from == SURROGATE else SURROGATE)
        coalescer.adopt(direction, batch_ops, batch_out, batch_back)

    def _reload(self):
        """The hoisted loop state a cold call may have changed, the
        post-event gate's threshold, the fault schedule's credit and
        horizon and the exchange count (:data:`_NO_FAULTS` without
        faults), and the coalescer's pending batch and counters
        (:data:`_NO_BATCH` without a coalescer), in the order the loop
        unpacks them."""
        result = self.result
        control = self._control
        engine = self.engine
        config = self.config
        state = (self._now, self._client_live, self._surrogate_live,
                 self._allocs_since_gc, self._bytes_since_gc,
                 self._class_sites(), result.comm_time,
                 result.peak_client_bytes,
                 post_event_threshold(
                     control.next_change, control.reattach_at,
                     control.surrogate_lost, engine.last_reevaluation,
                     config.reevaluate_every if config.offload_enabled
                     else None,
                     engine.offload_count))
        delivery = self._delivery
        if delivery is None:
            state += _NO_FAULTS
        else:
            schedule = delivery.schedule
            state += (schedule.credit, schedule.horizon_time,
                      schedule.horizon_event, delivery.exchanges)
        coalescer = self._data_plane.coalescer
        if coalescer is None:
            return state + _NO_BATCH
        direction, ops, out_bytes, back_bytes = coalescer.release()
        stats = self._data_plane.stats
        return state + (
            direction[0] if direction is not None else None, ops, out_bytes,
            back_bytes, stats.ops, stats.naive_bytes, stats.naive_seconds,
            stats.batches, stats.wire_bytes, stats.actual_seconds,
            stats.flushes.get(FLUSH_RESULT, 0))

    def _class_sites(self) -> List[str]:
        """Each trace string's site as a class with no live object to
        go by, by string id: the surrogate for the classes placed there,
        else the client.  Rebuilt after a placement change replaces the
        class set (a name the table holds twice has both ids)."""
        classes = self._class_on_surrogate
        if classes is not self._class_sites_of:
            self._class_sites_of = classes
            self._class_site = [
                SURROGATE if name in classes else CLIENT
                for name in self.trace.strings
            ]
        return self._class_site

    def residency(self) -> Dict[int, str]:
        """Each live object's site by oid, in allocation order (freed
        client objects stay live until a collection reclaims them)."""
        oid_of = self._oid_of
        site_of = self._site
        return {oid_of[ix]: site_of[ix] for ix in self._live}

    # -- allocation and the emulated collector -------------------------------------

    def _reclaim(self, ix: int, at: int) -> None:
        """Drop one collected object (by object index); its graph part
        goes to the fold's side log at position ``at``."""
        site = self._site[ix]
        self._site[ix] = None
        del self._live[ix]
        filed = self._objects_of.get(self._node[ix])
        if filed is not None:
            filed.pop(ix, None)
        # GC of the owner invalidates its cached remote copy.
        self._data_plane.note_free(self._oid_of[ix])
        size = self._size[ix]
        if site == CLIENT:
            self._client_live -= size
        else:
            self._surrogate_live -= size
        self._fold.reclaim(at, self._node[ix], size)

    def _gc_cycle(self, reason: str, at: int) -> None:
        """One emulated collection at side-log position ``at``: the
        allocation that triggered it is before ``at`` unless the heap
        was exhausted (then the allocation waits for the collection)."""
        self._log_at = at
        # GC barrier: the pause must not overtake un-charged traffic.
        self._data_plane.gc_barrier()
        pending = self._pending_garbage
        freed_bytes = sum(pending.values())
        freed_objects = len(pending)
        for ix in pending:
            # Only reclaim garbage still on the client: a migration may
            # not move garbage, so client garbage stays client garbage.
            self._reclaim(ix, at)
        pending.clear()
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        self.result.gc_cycles += 1
        pause = (default_pause_model(len(self._live), freed_objects)
                 / self.config.client.cpu_speed)
        self.result.gc_pause_time += pause
        self._now += pause
        capacity = self.config.client.heap_capacity
        report = GCReport(
            cycle=self.result.gc_cycles,
            reason=reason,
            live_objects=len(self._live),
            freed_objects=freed_objects,
            freed_bytes=freed_bytes,
            used_bytes=self._client_live,
            free_bytes=capacity - self._client_live,
            capacity=capacity,
        )
        if self.config.offload_enabled and self.engine.observe(report):
            self._attempt_offload()

    # -- partitioning and migration -----------------------------------------------

    def pinned_nodes(self) -> List[str]:
        # The pinned set depends only on the trace's class traits and a
        # static enhancement flag, so it is computed once and reused
        # across re-evaluation epochs.
        if self._pinned_cache is None:
            pinned = [MAIN]
            pinned.extend(self.trace.pinned_classes(
                stateless_natives_ok=self.config.flags.stateless_natives_local
            ))
            self._pinned_cache = pinned
        return self._pinned_cache

    def evaluation_context(self) -> EvaluationContext:
        return EvaluationContext(
            heap_capacity=self.config.client.heap_capacity,
            client_speed=self.config.client.cpu_speed,
            surrogate_speed=self.config.surrogate.cpu_speed,
            link=self._link,
            total_cpu=self.graph.total_cpu(),
            elapsed=self._now,
        )

    def _attempt_offload(self, reevaluation: bool = False) -> None:
        """The host's half of an attempt; the engine runs the rest."""
        if self._control.surrogate_lost:
            # Client-only degraded mode: nothing to offload to.  The
            # graph keeps growing, so the post-rediscovery epoch starts
            # warm.
            return
        # The attempt ends the open interaction run, whether or not it
        # reads the graph.
        self._fold.mark(self._log_at)
        # Repartition barrier: decisions and migrations must not observe
        # buffered, un-charged operations.
        self._data_plane.migration_barrier()
        forced = self.config.forced_offload_nodes
        if forced is None:
            self.engine.attempt(revert_on_refusal=reevaluation)
            return
        moved_bytes, moved_objects = self.migrate(forced)
        if self._control.surrogate_lost and moved_objects == 0:
            # The placement died on its opening exchange: nothing
            # moved, so no offload was performed.
            return
        self.engine.record(OffloadEvent(
            time=self._now,
            decision=PartitionDecision(
                beneficial=True,
                offload_nodes=forced,
                client_nodes=frozenset(),
                cut_bytes=0, cut_count=0,
                freed_bytes=moved_bytes,
                predicted_bandwidth=0.0,
                candidates_evaluated=0,
                compute_seconds=0.0,
                policy_name="forced-placement",
            ),
            migrated_bytes=moved_bytes,
            migrated_objects=moved_objects,
        ))

    def _moves(self, offload_nodes: FrozenSet[str], changed: FrozenSet[str]
               ) -> Tuple[List[int], List[int]]:
        """The live objects that a change of placement to
        ``offload_nodes`` moves, to the surrogate and to the client;
        ``changed`` is the nodes whose membership changes.

        An object filed under its node sits where the last placement put
        it (a recovery that repatriates everything also clears the
        placement), so only the filed objects of the ``changed`` nodes
        are visited, and the objects born since the last migration,
        which land on their creator's site.  Those are the tail of
        ``_live``, which is in allocation order; they are filed here.
        Client garbage awaiting a collection never moves.
        """
        site_of = self._site
        node_of = self._node
        objects_of = self._objects_of
        garbage = self._pending_garbage
        to_surrogate: List[int] = []
        to_client: List[int] = []
        # Visiting order cannot change the moves: each object's site is
        # written once, and the byte and object sums are integers.
        for node in changed:
            wanted = SURROGATE if node in offload_nodes else CLIENT
            moves = to_surrogate if wanted == SURROGATE else to_client
            for ix in objects_of.get(node, ()):
                if site_of[ix] != wanted and ix not in garbage:
                    moves.append(ix)
        newborns: List[int] = []
        for ix in reversed(self._live):
            filed = objects_of.get(node_of[ix])
            if filed is not None and ix in filed:
                break
            newborns.append(ix)
        for ix in reversed(newborns):
            node = node_of[ix]
            filed = objects_of.get(node)
            if filed is None:
                filed = objects_of[node] = {}
            filed[ix] = None
            if ix in garbage:
                continue
            if node in offload_nodes:
                if site_of[ix] == CLIENT:
                    to_surrogate.append(ix)
            elif site_of[ix] == SURROGATE:
                to_client.append(ix)
        return to_surrogate, to_client

    def migrate(self, offload_nodes: FrozenSet[str]) -> Tuple[int, int]:
        changed = self._offloaded.symmetric_difference(offload_nodes)
        to_surrogate, to_client = self._moves(offload_nodes, changed)
        self._offloaded = offload_nodes
        # The placed classes follow the changed class nodes; an
        # unchanged set keeps its identity, and with it the loop's
        # class-site table (see _class_sites).
        classes = [node for node in changed if "#" not in node]
        if classes:
            self._class_on_surrogate = (
                self._class_on_surrogate.symmetric_difference(classes))
        site_of = self._site
        moved_bytes = 0
        moved_objects = 0
        if (to_surrogate or to_client) and not self._exchange():
            # Exchange before mutate: the migration stream's opening
            # message never reached the peer — the surrogate died, and
            # recovery (run inside the failed exchange) has already
            # reset placement.  No object below changes residency.
            return 0, 0
        pipelined = self.config.data_plane.pipelined_migration
        batches: List[Tuple[int, int]] = []
        for oids, destination in ((to_surrogate, SURROGATE),
                                  (to_client, CLIENT)):
            if not oids:
                continue
            batch_bytes = sum(self._size[ix] for ix in oids)
            for ix in oids:
                site_of[ix] = destination
            if destination == SURROGATE:
                self._client_live -= batch_bytes
                self._surrogate_live += batch_bytes
            else:
                self._client_live += batch_bytes
                self._surrogate_live -= batch_bytes
            if pipelined:
                # Both direction batches ride one streamed session,
                # charged once below.
                batches.append((batch_bytes, len(oids)))
            else:
                wire = migration_payload(batch_bytes, len(oids))
                duration = migration_cost(self._link, batch_bytes,
                                          len(oids))
                self.result.migration_bytes += wire
                self.result.migration_time += duration
                self._now += duration
                moved_bytes += wire
            moved_objects += len(oids)
        if pipelined and batches:
            wire = pipelined_migration_payload(batches)
            duration = pipelined_migration_cost(self._link, batches)
            self.result.migration_bytes += wire
            self.result.migration_time += duration
            self._now += duration
            moved_bytes = wire
        if to_surrogate or to_client:
            # Residency changed under the cache: drop everything rather
            # than chase which owners moved.
            self._data_plane.note_migration()
        return moved_bytes, moved_objects
