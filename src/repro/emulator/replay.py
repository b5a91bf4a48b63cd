"""Trace replay: the emulator's execution engine.

Replaying a trace re-executes the recorded event schedule under a
chosen device pair, link, heap size, policy, and enhancement flags.
Distributed execution is serial (the paper's assumption): after an
offload, execution simply moves between the two emulated VMs, and time
stretches for every interaction that crosses them.

The replayer runs the *same* AIDE modules as the prototype — the
execution graph is rebuilt incrementally during replay, the real
:class:`~repro.core.partitioner.Partitioner` evaluates the real
candidate generator, and triggering comes from an emulated collector
with Chai's trigger conditions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..config import DeviceProfile, EnhancementFlags, GCConfig, JORNADA, PC_SURROGATE
from ..core.graph import ExecutionGraph, object_node_id
from ..core.hints import ColdStartSeed
from ..core.partitioner import (
    IncrementalPartitioner,
    PartitionDecision,
    Partitioner,
    ReevalStats,
)
from ..core.policy import (
    BandwidthTrendTrigger,
    EvaluationContext,
    MemoryTrigger,
    OffloadPolicy,
    PartitionPolicy,
)
from ..errors import ConfigurationError
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.batch import DataPlaneConfig, DataPlaneStats, RpcCoalescer
from ..rpc.cache import RemoteReadCache
from ..rpc.retry import ReliableDelivery, RetryPolicy
from ..vm.gc import GCReport, default_pause_model
from .columnar import (
    ColumnarTrace,
    FLAG_STATELESS,
    FLAG_STATIC,
    FLAG_WRITE,
    TAG_ACCESS,
    TAG_ALLOC,
    TAG_FREE,
    TAG_INVOKE,
    TAG_WORK,
)
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from .timemodel import (
    migration_cost,
    migration_payload,
    pipelined_migration_cost,
    pipelined_migration_payload,
    remote_access_cost,
    remote_invoke_cost,
)
from .traces import Trace

CLIENT = "client"
SURROGATE = "surrogate"
MAIN = "<main>"
INT_ARRAY = "int[]"


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
    #: warm-started candidate generator and the policy-evaluation memo.
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
class ReplayOffload:
    """One offload (or refusal) that occurred during replay."""

    time: float
    decision: PartitionDecision
    migrated_bytes: int = 0
    migrated_objects: int = 0


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
    offloads: List[ReplayOffload] = field(default_factory=list)
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
        def encode(value):
            if isinstance(value, frozenset):
                return sorted(value)
            raise TypeError(
                f"unfingerprintable value of type {type(value).__name__}"
            )

        data = asdict(self)
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
        return json.dumps(data, sort_keys=True, default=encode)


class TraceReplayer:
    """Replays one trace under one configuration.

    Accepts either representation of a trace: the row-oriented
    :class:`~repro.emulator.traces.Trace` replays through the per-event
    handler loop, a :class:`~repro.emulator.columnar.ColumnarTrace`
    through the batched columnar loop (same semantics, same
    fingerprint, several times the throughput).  Both loops run the
    fault gauntlet, surrogate recovery and rediscovery, and mobility.
    """

    def __init__(self, trace: Union[Trace, ColumnarTrace],
                 config: EmulatorConfig) -> None:
        self.trace = trace
        self.config = config
        # Object residency and bookkeeping.
        self._site: Dict[int, str] = {}
        self._size: Dict[int, int] = {}
        self._class: Dict[int, str] = {}
        self._client_live = 0
        self._surrogate_live = 0
        self._pending_garbage: List[int] = []
        self._pending_garbage_bytes = 0
        # Emulated collector counters.
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        self._gc_cycles = 0
        # Placement.
        self._offloaded: FrozenSet[str] = frozenset()
        self._class_on_surrogate: Set[str] = set()
        # AIDE modules.
        self.graph = ExecutionGraph()
        self._trigger: MemoryTrigger = config.policy.make_trigger()
        self._partitioner = Partitioner(
            config.partition_policy
            if config.partition_policy is not None
            else config.policy.make_partition_policy()
        )
        seed = config.cold_start
        if seed is not None and seed.hints is not None:
            self._partitioner.hints = seed.hints
        # The incremental session drains the live graph's dirty sets
        # itself (there is no monitor snapshotting in the emulator, so
        # the replayer is the graph's single dirty-set consumer).
        self._session = IncrementalPartitioner(
            self._partitioner, force_cold=config.force_cold
        )
        self._pinned_cache: Optional[List[str]] = None
        self._last_reevaluation = 0.0
        # Cross-site data plane: coalescer and remote-read cache are
        # created only when enabled, so the naive path stays on the
        # exact pre-optimisation code (bit-identical accounting).
        # The link in force *now*.  Static runs never reassign it; under
        # a link profile it tracks the schedule (every cost site reads
        # this attribute, never ``config.link``).
        profile = config.link_profile
        self._link: LinkModel = (
            profile.link_at(0.0) if profile is not None else config.link
        )
        self._epoch_start = 0.0
        self._next_link_change = (
            profile.next_change_after(0.0) if profile is not None
            else math.inf
        )
        self._pending_reoffload: Optional[FrozenSet[str]] = None
        self._mobility_report: Optional[MobilityReport] = (
            MobilityReport(profile=profile.name)
            if profile is not None else None
        )
        self._trend: Optional[BandwidthTrendTrigger] = None
        if profile is not None and config.mobility is not None:
            mob = config.mobility
            self._trend = BandwidthTrendTrigger(
                mob.threshold_bps,
                horizon_s=mob.horizon_s,
                window=mob.window,
                restore_bps=mob.restore_bps,
            )
        dp = config.data_plane
        self._dp_stats = DataPlaneStats() if dp.any_enabled else None
        self._cache = RemoteReadCache() if dp.read_cache else None
        if self._cache is not None:
            self._dp_stats.cache = self._cache.stats
        self._coalescer = (
            RpcCoalescer(self._link, self._transfer_one_way,
                         stats=self._dp_stats)
            if dp.coalescing else None
        )
        # Fault injection: a fresh seeded schedule per replayer, so two
        # replays of one config draw identical fault streams.
        spec = config.faults
        self._fault_report = FaultReport(
            spec=spec.canonical() if spec is not None else ""
        )
        self._schedule = (
            FaultSchedule(spec)
            if spec is not None and spec.any_faults else None
        )
        self._delivery = (
            ReliableDelivery(
                config.retry,
                schedule=self._schedule,
                charge=self._charge_fault,
                counters=self._fault_report,
                now=lambda: self._now,
                events=lambda: self.result.events_processed,
                on_peer_lost=self._declare_surrogate_dead,
            )
            if self._schedule is not None else None
        )
        self._lost_at: Optional[float] = None
        self._reattach_at: Optional[float] = None
        granular = config.flags.arrays_object_granularity
        self._granular_classes: Set[str] = {INT_ARRAY} if granular else set()
        # Run-length buffer for graph edge updates: consecutive
        # interactions over the same node pair (tight guest loops are
        # full of them) collapse into one batched
        # ``record_interaction(..., count=N)`` call.  Flushed before any
        # partitioning decision reads the graph.
        self._pending_edge: Optional[Tuple[str, str]] = None
        self._pending_edge_bytes = 0
        self._pending_edge_count = 0
        # The entry point is always a (pinned) graph node, even before
        # any interaction references it.
        self.graph.ensure_node(MAIN)
        if seed is not None and seed.profile is not None:
            # Seed the graph with the predicted interaction structure
            # (edge traffic and CPU only — a profile carries no live
            # memory), so the first MINCUT runs on real shape.
            for node_id in seed.profile.nodes():
                stats = seed.profile.node(node_id)
                self.graph.ensure_node(node_id)
                if stats.cpu_seconds:
                    self.graph.add_cpu(node_id, stats.cpu_seconds)
            for (a, b), edge in seed.profile.edges():
                self.graph.record_interaction(a, b, edge.bytes,
                                              count=edge.count)
        # Clock and result.
        self._now = 0.0
        self.result = EmulationResult(
            app_name=trace.app_name, completed=False, total_time=0.0
        )

    # -- naming and placement ------------------------------------------------

    def _node_for(self, class_name: str, oid: Optional[int]) -> str:
        if oid is not None and class_name in self._granular_classes:
            return object_node_id(class_name, oid)
        return class_name

    def _class_site(self, class_name: str) -> str:
        if class_name in self._class_on_surrogate:
            return SURROGATE
        return CLIENT

    def _site_for(self, class_name: str, oid: Optional[int]) -> str:
        if oid is not None:
            site = self._site.get(oid)
            if site is not None:
                return site
        return self._class_site(class_name)

    # -- batched graph updates ---------------------------------------------------

    def _record_interaction(self, a: str, b: str, nbytes: int) -> None:
        if a == b:
            return
        pair = (a, b) if a <= b else (b, a)
        if pair == self._pending_edge:
            self._pending_edge_bytes += nbytes
            self._pending_edge_count += 1
            return
        self._flush_interactions()
        self._pending_edge = pair
        self._pending_edge_bytes = nbytes
        self._pending_edge_count = 1

    def _flush_interactions(self) -> None:
        pair = self._pending_edge
        if pair is not None:
            self.graph.record_interaction(
                pair[0], pair[1], self._pending_edge_bytes,
                count=self._pending_edge_count,
            )
            self._pending_edge = None
            self._pending_edge_bytes = 0
            self._pending_edge_count = 0

    # -- time ------------------------------------------------------------

    def _charge_cpu(self, site: str, reference_seconds: float) -> None:
        if site == CLIENT:
            wall = reference_seconds / self.config.client.cpu_speed
            self.result.cpu_time_client += wall
        else:
            wall = reference_seconds / self.config.surrogate.cpu_speed
            self.result.cpu_time_surrogate += wall
        self._now += wall

    def _charge_comm(self, seconds: float) -> None:
        self.result.comm_time += seconds
        self._now += seconds

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
        the operation resolves locally.
        """
        if self._delivery is None:
            return True
        return self._delivery.attempt()

    def _transfer_one_way(self, from_site: str, to_site: str,
                          nbytes: int) -> None:
        """The coalescer's transfer hook: one batched message leg."""
        if not self._exchange():
            # The batch died with the surrogate: its legs never travel.
            return
        self._charge_comm(self._link.one_way(nbytes))

    def _cache_key(self, event: AccessEvent):
        """Cache key for one access, or None when uncacheable.

        Arrays are excluded (bulk element traffic is placement data,
        not read-mostly state); statics cache at class granularity.
        """
        if event.is_static:
            return RemoteReadCache.static_key(event.owner_class)
        if event.owner_oid is None or event.owner_class.endswith("[]"):
            return None
        return event.owner_oid

    def _charge_monitoring(self, site: str) -> None:
        cost = self.config.monitoring_event_cost
        if not cost:
            return
        speed = (self.config.client.cpu_speed if site == CLIENT
                 else self.config.surrogate.cpu_speed)
        wall = cost / speed
        self.result.monitoring_time += wall
        self._now += wall

    # -- surrogate death and rediscovery -------------------------------------

    @property
    def _surrogate_dead(self) -> bool:
        return self._delivery is not None and self._delivery.peer_dead

    def _declare_surrogate_dead(self, reason: str) -> None:
        """Graceful degradation, invoked from inside the failed exchange.

        Drains the in-flight coalesced batch, drops the read cache, and
        reconstructs every surrogate-resident object client-side from
        the replayer's own bookkeeping — zero wire charge, the wire is
        gone.  Afterwards the run is a client-only monolith until (and
        unless) the surrogate is rediscovered.
        """
        report = self._fault_report
        report.recoveries += 1
        self._lost_at = self._now
        if self._coalescer is not None:
            self._coalescer.drop_pending()
        if self._cache is not None:
            self._cache.invalidate_all()
        repatriated = 0
        repatriated_bytes = 0
        for oid, site in self._site.items():
            if site == SURROGATE:
                size = self._size[oid]
                self._site[oid] = CLIENT
                self._client_live += size
                self._surrogate_live -= size
                repatriated += 1
                repatriated_bytes += size
        report.objects_repatriated += repatriated
        report.repatriated_bytes += repatriated_bytes
        self._offloaded = frozenset()
        self._class_on_surrogate = set()
        if self._client_live > self.result.peak_client_bytes:
            self.result.peak_client_bytes = self._client_live
        if reason == "partition":
            # A partition-caused death heals when the window ends:
            # model rediscovery of the (unchanged) surrogate then.
            until = self._schedule.partition_until(self._now)
            if until is not None:
                self._reattach_at = until

    def _rediscover(self) -> None:
        """The surrogate is reachable again: leave degraded mode.

        Closes the downtime window, revives the delivery layer, and
        warm-starts a fresh partitioning epoch from the incremental
        session — the graph kept growing while degraded, so the new
        MINCUT starts warm, not cold.
        """
        report = self._fault_report
        if self._lost_at is not None:
            report.downtime_s += self._now - self._lost_at
            self._lost_at = None
        self._reattach_at = None
        self._delivery.revive()
        report.rediscoveries += 1
        if self.config.offload_enabled:
            self._attempt_offload()

    # -- mobility: the scheduled link and the reactions to its decay ----------

    def _poll_mobility(self) -> None:
        """The clock crossed a profile change point: re-resolve the link.

        Bandwidth/latency segments resolve relative to the attachment
        epoch (a handoff resets it — the client is adjacent to the new
        surrogate again); disconnection windows live in the fault spec
        and are the retry layer's problem, not this method's.
        """
        profile = self.config.link_profile
        report = self._mobility_report
        new_link = profile.link_at(self._now - self._epoch_start)
        if new_link != self._link:
            if self._coalescer is not None:
                # Buffered traffic was produced under the old link;
                # charge it at old-link prices before switching.
                self._coalescer.flush()
            self._link = new_link
            if self._coalescer is not None:
                self._coalescer.link = new_link
            report.link_changes += 1
        self._next_link_change = self._epoch_start + profile.next_change_after(
            self._now - self._epoch_start
        )
        if self._trend is None:
            return
        action = self._trend.observe(self._now, self._link.bandwidth_bps)
        if action == "fire":
            report.trend_fires += 1
            if self.config.mobility.mode == "handoff":
                self._roam_handoff()
            else:
                self._proactive_repatriation()
        elif action == "recover":
            self._reoffload_after_recovery()

    def _roam_handoff(self) -> None:
        """Hand the offloaded partition to a better-placed surrogate.

        The state streams surrogate-to-surrogate over the mobility
        backhaul; residency does not change (the new surrogate replaces
        the old transparently) and nothing transits the client's
        wireless hop.  The attachment epoch restarts: the profile's
        decay schedule runs again from its t=0 link.
        """
        if not self._exchange():
            # The old surrogate died under the handoff stream; recovery
            # has already repatriated everything.
            return
        report = self._mobility_report
        total_bytes = 0
        count = 0
        for oid, site in self._site.items():
            if site == SURROGATE:
                total_bytes += self._size[oid]
                count += 1
        if count:
            wire = migration_payload(total_bytes, count)
            backhaul = self.config.mobility.backhaul
            duration = migration_cost(backhaul, total_bytes, count)
            self.result.migration_bytes += wire
            self.result.migration_time += duration
            self._now += duration
            report.handoff_bytes += wire
            report.handoff_time_s += duration
        report.handoffs += 1
        self._epoch_start = self._now
        profile = self.config.link_profile
        new_link = profile.link_at(0.0)
        if new_link != self._link:
            if self._coalescer is not None:
                self._coalescer.flush()
            self._link = new_link
            if self._coalescer is not None:
                self._coalescer.link = new_link
            report.link_changes += 1
        self._next_link_change = (
            self._now + profile.next_change_after(0.0)
        )
        if self._trend is not None:
            # The new attachment starts clean: old decay samples would
            # otherwise project the previous cell's slope onto it.
            self._trend.reset()

    def _proactive_repatriation(self) -> None:
        """Pull the offloaded partition home while the link still works,
        remembering it for re-offload when the trend recovers."""
        if not self._offloaded:
            return
        placement = self._offloaded
        moved_bytes, _ = self._apply_placement(frozenset())
        self._pending_reoffload = placement
        report = self._mobility_report
        report.proactive_repatriations += 1
        report.proactively_repatriated_bytes += moved_bytes

    def _reoffload_after_recovery(self) -> None:
        """The link came back: re-apply the remembered placement."""
        placement = self._pending_reoffload
        if placement is None or self._surrogate_dead:
            return
        self._pending_reoffload = None
        self._apply_placement(placement)
        self._mobility_report.reoffloads += 1

    # -- the replay loop ------------------------------------------------------

    def run(self) -> EmulationResult:
        if isinstance(self.trace, ColumnarTrace):
            # Every columnar trace, faulty or not, takes the batched
            # loop; the per-event loop below replays row traces and is
            # the reference the parity tests hold the batched loop to.
            return self._run_columnar(self.trace)
        handlers = {
            AllocEvent: self._replay_alloc,
            FreeEvent: self._replay_free,
            InvokeEvent: self._replay_invoke,
            AccessEvent: self._replay_access,
            WorkEvent: self._replay_work,
        }
        offload_at = self.config.offload_at_event
        reevaluate_every = self.config.reevaluate_every
        for event in self.trace.events:
            handlers[type(event)](event)
            self.result.events_processed += 1
            if self._now >= self._next_link_change:
                self._poll_mobility()
            if (
                self._reattach_at is not None
                and self._surrogate_dead
                and self._now >= self._reattach_at
            ):
                self._rediscover()
            if (
                offload_at is not None
                and self.result.events_processed == offload_at
                and self.config.offload_enabled
            ):
                self._attempt_offload()
            if (
                reevaluate_every is not None
                and self.config.offload_enabled
                and self.result.offload_count > 0
                and self._now - self._last_reevaluation >= reevaluate_every
            ):
                # Clock-driven re-evaluation (global-placement mode):
                # checked against virtual time on every event, because
                # after an offload the client may stop allocating (and
                # hence stop collecting) entirely.
                self._last_reevaluation = self._now
                self._attempt_offload(reevaluation=True)
            if self.result.oom:
                break
        return self._finish_run()

    def _finish_run(self) -> EmulationResult:
        """Close out a replay (shared by the per-event and batched loops)."""
        self._flush_interactions()
        if self._coalescer is not None:
            self._coalescer.flush()
        if self._lost_at is not None:
            # The run ended in degraded mode: close the downtime window.
            self._fault_report.downtime_s += self._now - self._lost_at
            self._lost_at = None
        if self.config.faults is not None:
            self._fault_report.epochs_survived = self.result.offload_count
            self.result.faults = self._fault_report
        if self._mobility_report is not None:
            self.result.mobility = self._mobility_report
        self.result.completed = not self.result.oom
        self.result.total_time = self._now
        self.result.final_offload_nodes = self._offloaded
        self.result.reeval = self._session.stats
        self.result.data_plane = self._dp_stats
        return self.result

    def _run_columnar(self, trace: ColumnarTrace) -> EmulationResult:
        """Batched dispatch over a columnar trace.

        Semantically this is :meth:`run`'s per-event loop with the five
        handlers inlined: the same operations happen in the same order
        with the same floating-point arithmetic, so serial and columnar
        replays of one trace produce bit-identical fingerprints (the
        parity tests in ``tests/emulator`` enforce this).  The speed
        comes from batch-decoding the columns into plain lists once and
        hoisting every per-event attribute/config lookup out of the
        loop; mutable replayer state lives in locals and is spilled to
        (and reloaded from) the instance only around the rare cold
        calls — GC cycles, partitioning attempts, surrogate-side
        reclaims, coalesced transfers, fault-gauntlet exchanges and
        rediscovery.
        """
        cols = trace.column_lists()
        strings = trace.strings
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        k_id, flags = cols["k_id"], cols["flags"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]

        config = self.config
        result = self.result
        graph = self.graph
        client_speed = config.client.cpu_speed
        surrogate_speed = config.surrogate.cpu_speed
        capacity = config.client.heap_capacity
        space_frac = config.gc.space_pressure_fraction
        allocs_per_cycle = config.gc.allocations_per_cycle
        bytes_per_cycle = config.gc.bytes_per_cycle
        monitoring_cost = config.monitoring_event_cost
        link = self._link
        next_roam = self._next_link_change
        offload_at = config.offload_at_event
        reevaluate_every = config.reevaluate_every
        offload_enabled = config.offload_enabled
        stateless_local = config.flags.stateless_natives_local

        # String-id tables: mkind comparisons and node naming become
        # integer work.  Ids that cannot occur compare unequal to every
        # column cell.
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

        # Wire-cost memo tables: the cost helpers are pure in
        # (link, payload, direction) and traces reuse a handful of
        # payload sizes, so each distinct size is priced exactly once —
        # the cached float is the same object the helper returned,
        # keeping accounting bit-identical.
        access_cost_memo: Dict[Tuple[int, int], float] = {}
        access_memo_get = access_cost_memo.get
        invoke_cost_memo: Dict[Tuple[int, int], float] = {}
        invoke_memo_get = invoke_cost_memo.get

        site_map = self._site
        site_get = site_map.get
        size_map = self._size
        class_map = self._class
        cache = self._cache
        cache_invalidate = cache.invalidate if cache is not None else None
        cache_note_read = cache.note_read if cache is not None else None
        static_key = RemoteReadCache.static_key
        coalescer = self._coalescer
        # Fault gauntlet: without a coalescer every uncached remote
        # operation is one exchange of its own; with one, the exchanges
        # happen inside its flushes.  Either way an exchange may declare
        # the surrogate dead, and recovery then rewrites the heap
        # counters and placement under the loop.
        delivery = self._delivery
        attempt = (delivery.attempt
                   if delivery is not None and coalescer is None else None)
        graph_record = graph.record_interaction
        graph_add_cpu = graph.add_cpu
        graph_add_memory = graph.add_memory
        graph_note_created = graph.note_object_created
        graph_ensure = graph.ensure_node

        # Hoisted mutable state (spilled/reloaded around cold calls).
        now = self._now
        client_live = self._client_live
        surrogate_live = self._surrogate_live
        allocs_since_gc = self._allocs_since_gc
        bytes_since_gc = self._bytes_since_gc
        last_reeval = self._last_reevaluation
        class_on_surrogate = self._class_on_surrogate
        pend_pair = self._pending_edge
        pend_bytes = self._pending_edge_bytes
        pend_count = self._pending_edge_count
        cpu_client = result.cpu_time_client
        cpu_surrogate = result.cpu_time_surrogate
        comm_time = result.comm_time
        monitoring_time = result.monitoring_time
        remote_invocations = result.remote_invocations
        remote_native = result.remote_native_invocations
        remote_accesses = result.remote_accesses
        remote_bytes = result.remote_bytes
        peak_client = result.peak_client_bytes
        reattach_at = self._reattach_at
        ep = 0
        oom = False

        CLIENT_ = CLIENT
        SURROGATE_ = SURROGATE
        for i, tag in enumerate(tags):
            if tag == TAG_ACCESS:
                # -- inline _replay_access --------------------------------
                acid = a_cls[i]
                accessor_class = strings[acid]
                ao = a_oid[i]
                if ao >= 0:
                    accessor_site = site_get(ao)
                    if accessor_site is None:
                        accessor_site = (
                            SURROGATE_
                            if accessor_class in class_on_surrogate
                            else CLIENT_
                        )
                else:
                    accessor_site = (
                        SURROGATE_ if accessor_class in class_on_surrogate
                        else CLIENT_
                    )
                bcid = b_cls[i]
                owner_class = strings[bcid]
                oo = b_oid[i]
                fl = flags[i]
                is_write = fl & FLAG_WRITE
                if fl & FLAG_STATIC:
                    owner_site = CLIENT_
                else:
                    if oo >= 0:
                        owner_site = site_get(oo)
                        if owner_site is None:
                            owner_site = (
                                SURROGATE_
                                if owner_class in class_on_surrogate
                                else CLIENT_
                            )
                    else:
                        owner_site = (
                            SURROGATE_
                            if owner_class in class_on_surrogate
                            else CLIENT_
                        )
                nbytes = n1[i]
                if cache is not None and is_write:
                    if fl & FLAG_STATIC:
                        key = static_key(owner_class)
                    elif oo < 0 or bcid in array_ids:
                        key = None
                    else:
                        key = oo
                    if key is not None:
                        cache_invalidate(key)
                if owner_site != accessor_site:
                    cached = False
                    if cache is not None and not is_write:
                        if fl & FLAG_STATIC:
                            key = static_key(owner_class)
                        elif oo < 0 or bcid in array_ids:
                            key = None
                        else:
                            key = oo
                        cached = key is not None and cache_note_read(key)
                    if cached:
                        # Served from the reading site's copy: no round
                        # trip, zero bytes on the wire.
                        pass
                    elif coalescer is not None:
                        result.comm_time = comm_time
                        if delivery is None:
                            self._now = now
                        else:
                            self._exchange_spill(ep, now, client_live,
                                                 surrogate_live, peak_client)
                        if is_write:
                            coalescer.write(accessor_site, owner_site,
                                            nbytes)
                        else:
                            coalescer.read(accessor_site, owner_site,
                                           nbytes)
                        now = self._now
                        comm_time = result.comm_time
                        if delivery is not None:
                            (client_live, surrogate_live, class_on_surrogate,
                             peak_client, reattach_at) = self._exchange_reload()
                        remote_accesses += 1
                        remote_bytes += nbytes
                    else:
                        delivered = True
                        if attempt is not None:
                            self._exchange_spill(ep, now, client_live,
                                                 surrogate_live, peak_client)
                            delivered = attempt()
                            now = self._now
                        if delivered:
                            ck = (nbytes, is_write)
                            cost = access_memo_get(ck)
                            if cost is None:
                                cost = remote_access_cost(link, nbytes,
                                                          bool(is_write))
                                access_cost_memo[ck] = cost
                            comm_time += cost
                            now += cost
                            remote_accesses += 1
                            remote_bytes += nbytes
                        else:
                            # Surrogate lost mid-access: recovery has
                            # repatriated the owner, so the access
                            # completes locally, uncharged.
                            (client_live, surrogate_live, class_on_surrogate,
                             peak_client, reattach_at) = self._exchange_reload()
                            owner_site = self._site_for(
                                owner_class, oo if oo >= 0 else None)
                if granular_ids:
                    accessor_node = (
                        object_node_id(accessor_class, ao)
                        if ao >= 0 and acid in granular_ids
                        else accessor_class
                    )
                    owner_node = (
                        object_node_id(owner_class, oo)
                        if oo >= 0 and bcid in granular_ids
                        else owner_class
                    )
                else:
                    accessor_node = accessor_class
                    owner_node = owner_class
                if accessor_node != owner_node:
                    pair = (
                        (accessor_node, owner_node)
                        if accessor_node <= owner_node
                        else (owner_node, accessor_node)
                    )
                    if pair == pend_pair:
                        pend_bytes += nbytes
                        pend_count += 1
                    else:
                        if pend_pair is not None:
                            graph_record(pend_pair[0], pend_pair[1],
                                         pend_bytes, count=pend_count)
                        pend_pair = pair
                        pend_bytes = nbytes
                        pend_count = 1
                if monitoring_cost:
                    wall = monitoring_cost / (
                        client_speed if owner_site == CLIENT_
                        else surrogate_speed
                    )
                    monitoring_time += wall
                    now += wall
            elif tag == TAG_WORK:
                # -- inline _replay_work ----------------------------------
                class_name = strings[a_cls[i]]
                ao = a_oid[i]
                if ao >= 0:
                    site = site_get(ao)
                    if site is None:
                        site = (
                            SURROGATE_ if class_name in class_on_surrogate
                            else CLIENT_
                        )
                else:
                    site = (
                        SURROGATE_ if class_name in class_on_surrogate
                        else CLIENT_
                    )
                seconds = f64[i]
                if site == CLIENT_:
                    wall = seconds / client_speed
                    cpu_client += wall
                else:
                    wall = seconds / surrogate_speed
                    cpu_surrogate += wall
                now += wall
                graph_add_cpu(class_name, seconds)
            elif tag == TAG_INVOKE:
                # -- inline _replay_invoke --------------------------------
                acid = a_cls[i]
                caller_class = strings[acid]
                ao = a_oid[i]
                if ao >= 0:
                    caller_site = site_get(ao)
                    if caller_site is None:
                        caller_site = (
                            SURROGATE_
                            if caller_class in class_on_surrogate
                            else CLIENT_
                        )
                else:
                    caller_site = (
                        SURROGATE_ if caller_class in class_on_surrogate
                        else CLIENT_
                    )
                bcid = b_cls[i]
                callee_class = strings[bcid]
                bo = b_oid[i]
                kid = k_id[i]
                if kid == native_id:
                    if flags[i] & FLAG_STATELESS and stateless_local:
                        exec_site = caller_site
                    else:
                        exec_site = CLIENT_
                elif kid == static_id:
                    exec_site = caller_site
                else:
                    if bo >= 0:
                        exec_site = site_get(bo)
                        if exec_site is None:
                            exec_site = (
                                SURROGATE_
                                if callee_class in class_on_surrogate
                                else CLIENT_
                            )
                    else:
                        exec_site = (
                            SURROGATE_
                            if callee_class in class_on_surrogate
                            else CLIENT_
                        )
                arg_bytes = n1[i]
                ret_bytes = n2[i]
                nbytes = arg_bytes + ret_bytes
                if attempt is not None and exec_site != caller_site:
                    self._exchange_spill(ep, now, client_live,
                                         surrogate_live, peak_client)
                    delivered = attempt()
                    now = self._now
                    if not delivered:
                        # The surrogate died under this round trip:
                        # recovery has repatriated everything, so the
                        # invocation is local now.
                        (client_live, surrogate_live, class_on_surrogate,
                         peak_client, reattach_at) = self._exchange_reload()
                        caller_site, exec_site = self._invoke_sites(
                            caller_class, ao if ao >= 0 else None,
                            callee_class, bo if bo >= 0 else None,
                            strings[kid], flags[i] & FLAG_STATELESS,
                        )
                if exec_site != caller_site:
                    if coalescer is not None:
                        result.comm_time = comm_time
                        if delivery is None:
                            self._now = now
                        else:
                            self._exchange_spill(ep, now, client_live,
                                                 surrogate_live, peak_client)
                        coalescer.invoke(caller_site, exec_site,
                                         arg_bytes, ret_bytes)
                        now = self._now
                        comm_time = result.comm_time
                        if delivery is not None:
                            (client_live, surrogate_live, class_on_surrogate,
                             peak_client, reattach_at) = self._exchange_reload()
                    else:
                        ck = (arg_bytes, ret_bytes)
                        cost = invoke_memo_get(ck)
                        if cost is None:
                            cost = remote_invoke_cost(link, arg_bytes,
                                                      ret_bytes)
                            invoke_cost_memo[ck] = cost
                        comm_time += cost
                        now += cost
                    remote_invocations += 1
                    remote_bytes += nbytes
                    if kid == native_id:
                        remote_native += 1
                if granular_ids:
                    caller_node = (
                        object_node_id(caller_class, ao)
                        if ao >= 0 and acid in granular_ids
                        else caller_class
                    )
                    callee_node = (
                        object_node_id(callee_class, bo)
                        if bo >= 0 and bcid in granular_ids
                        else callee_class
                    )
                else:
                    caller_node = caller_class
                    callee_node = callee_class
                if caller_node != callee_node:
                    pair = (
                        (caller_node, callee_node)
                        if caller_node <= callee_node
                        else (callee_node, caller_node)
                    )
                    if pair == pend_pair:
                        pend_bytes += nbytes
                        pend_count += 1
                    else:
                        if pend_pair is not None:
                            graph_record(pend_pair[0], pend_pair[1],
                                         pend_bytes, count=pend_count)
                        pend_pair = pair
                        pend_bytes = nbytes
                        pend_count = 1
                if monitoring_cost:
                    wall = monitoring_cost / (
                        client_speed if exec_site == CLIENT_
                        else surrogate_speed
                    )
                    monitoring_time += wall
                    now += wall
            elif tag == TAG_ALLOC:
                # -- inline _replay_alloc ---------------------------------
                creator_class = strings[b_cls[i]]
                site = (
                    SURROGATE_ if creator_class in class_on_surrogate
                    else CLIENT_
                )
                size = n1[i]
                if site == CLIENT_:
                    if client_live + size > capacity:
                        # ---- spill / cold call / reload -----------------
                        self._now = now
                        self._client_live = client_live
                        self._surrogate_live = surrogate_live
                        self._allocs_since_gc = allocs_since_gc
                        self._bytes_since_gc = bytes_since_gc
                        self._last_reevaluation = last_reeval
                        self._pending_edge = pend_pair
                        self._pending_edge_bytes = pend_bytes
                        self._pending_edge_count = pend_count
                        result.cpu_time_client = cpu_client
                        result.cpu_time_surrogate = cpu_surrogate
                        result.comm_time = comm_time
                        result.monitoring_time = monitoring_time
                        result.remote_invocations = remote_invocations
                        result.remote_native_invocations = remote_native
                        result.remote_accesses = remote_accesses
                        result.remote_bytes = remote_bytes
                        result.events_processed = ep
                        if peak_client > result.peak_client_bytes:
                            result.peak_client_bytes = peak_client
                        self._gc_cycle("space-exhausted")
                        now = self._now
                        client_live = self._client_live
                        surrogate_live = self._surrogate_live
                        allocs_since_gc = self._allocs_since_gc
                        bytes_since_gc = self._bytes_since_gc
                        last_reeval = self._last_reevaluation
                        class_on_surrogate = self._class_on_surrogate
                        pend_pair = self._pending_edge
                        pend_bytes = self._pending_edge_bytes
                        pend_count = self._pending_edge_count
                        comm_time = result.comm_time
                        peak_client = result.peak_client_bytes
                        reattach_at = self._reattach_at
                        # Placement may have changed under the GC's
                        # offload trigger, but the serial handler keeps
                        # its pre-GC site decision — so does this one.
                        if client_live + size > capacity:
                            # OOM: like the serial handler's early
                            # return, the rest of the handler is
                            # skipped; the common post-event checks
                            # below still run before the loop breaks.
                            result.oom = True
                            result.oom_time = now
                            oom = True
                    if not oom:
                        client_live += size
                        if client_live > peak_client:
                            peak_client = client_live
                        allocs_since_gc += 1
                        bytes_since_gc += size
                else:
                    surrogate_live += size
                if not oom:
                    oid = a_oid[i]
                    acid = a_cls[i]
                    class_name = strings[acid]
                    site_map[oid] = site
                    size_map[oid] = size
                    class_map[oid] = class_name
                    if granular_ids and acid in granular_ids:
                        node = object_node_id(class_name, oid)
                    else:
                        node = class_name
                    graph_add_memory(node, size)
                    graph_note_created(node)
                    # The creating class is part of the execution
                    # picture even if no interaction referenced it yet.
                    graph_ensure(creator_class)
                    if monitoring_cost:
                        wall = monitoring_cost / (
                            client_speed if site == CLIENT_
                            else surrogate_speed
                        )
                        monitoring_time += wall
                        now += wall
                    # -- inline _maybe_gc ---------------------------------
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
                    # ---- spill / cold call / reload ---------------------
                    self._now = now
                    self._client_live = client_live
                    self._surrogate_live = surrogate_live
                    self._allocs_since_gc = allocs_since_gc
                    self._bytes_since_gc = bytes_since_gc
                    self._last_reevaluation = last_reeval
                    self._pending_edge = pend_pair
                    self._pending_edge_bytes = pend_bytes
                    self._pending_edge_count = pend_count
                    result.cpu_time_client = cpu_client
                    result.cpu_time_surrogate = cpu_surrogate
                    result.comm_time = comm_time
                    result.monitoring_time = monitoring_time
                    result.remote_invocations = remote_invocations
                    result.remote_native_invocations = remote_native
                    result.remote_accesses = remote_accesses
                    result.remote_bytes = remote_bytes
                    result.events_processed = ep
                    if peak_client > result.peak_client_bytes:
                        result.peak_client_bytes = peak_client
                    self._gc_cycle(reason)
                    now = self._now
                    client_live = self._client_live
                    surrogate_live = self._surrogate_live
                    allocs_since_gc = self._allocs_since_gc
                    bytes_since_gc = self._bytes_since_gc
                    last_reeval = self._last_reevaluation
                    class_on_surrogate = self._class_on_surrogate
                    pend_pair = self._pending_edge
                    pend_bytes = self._pending_edge_bytes
                    pend_count = self._pending_edge_count
                    comm_time = result.comm_time
                    peak_client = result.peak_client_bytes
                    reattach_at = self._reattach_at
            else:
                # -- inline _replay_free (TAG_FREE) -----------------------
                oid = a_oid[i]
                site = site_get(oid)
                if site is None:
                    pass
                elif site == CLIENT_:
                    # Client garbage waits for an emulated collection.
                    self._pending_garbage.append(oid)
                    self._pending_garbage_bytes += size_map[oid]
                else:
                    # Surrogate-side garbage reclaims immediately.
                    self._client_live = client_live
                    self._surrogate_live = surrogate_live
                    self._reclaim(oid)
                    client_live = self._client_live
                    surrogate_live = self._surrogate_live
            # -- post-event checks (mirrors run()) ------------------------
            ep += 1
            if now >= next_roam:
                # ---- spill / cold call / reload -------------------------
                # The roam may migrate state, charge time, and change
                # the link — which invalidates the wire-cost memos.
                self._columnar_spill(
                    ep, now, client_live, surrogate_live,
                    allocs_since_gc, bytes_since_gc, last_reeval,
                    pend_pair, pend_bytes, pend_count,
                    cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                self._poll_mobility()
                now = self._now
                client_live = self._client_live
                surrogate_live = self._surrogate_live
                last_reeval = self._last_reevaluation
                class_on_surrogate = self._class_on_surrogate
                pend_pair = self._pending_edge
                pend_bytes = self._pending_edge_bytes
                pend_count = self._pending_edge_count
                comm_time = result.comm_time
                peak_client = result.peak_client_bytes
                reattach_at = self._reattach_at
                link = self._link
                next_roam = self._next_link_change
                access_cost_memo.clear()
                invoke_cost_memo.clear()
            if (
                reattach_at is not None
                and now >= reattach_at
                and self._surrogate_dead
            ):
                # ---- spill / cold call / reload -------------------------
                # The partition that killed the surrogate has healed:
                # rediscovery may start a fresh offload epoch.
                self._columnar_spill(
                    ep, now, client_live, surrogate_live,
                    allocs_since_gc, bytes_since_gc, last_reeval,
                    pend_pair, pend_bytes, pend_count,
                    cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                self._rediscover()
                now = self._now
                client_live = self._client_live
                surrogate_live = self._surrogate_live
                last_reeval = self._last_reevaluation
                class_on_surrogate = self._class_on_surrogate
                pend_pair = self._pending_edge
                pend_bytes = self._pending_edge_bytes
                pend_count = self._pending_edge_count
                comm_time = result.comm_time
                peak_client = result.peak_client_bytes
                reattach_at = self._reattach_at
            if (
                offload_at is not None
                and ep == offload_at
                and offload_enabled
            ):
                self._columnar_offload(
                    ep, now, client_live, surrogate_live,
                    allocs_since_gc, bytes_since_gc, last_reeval,
                    pend_pair, pend_bytes, pend_count,
                    cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                )
                now = self._now
                client_live = self._client_live
                surrogate_live = self._surrogate_live
                last_reeval = self._last_reevaluation
                class_on_surrogate = self._class_on_surrogate
                pend_pair = self._pending_edge
                pend_bytes = self._pending_edge_bytes
                pend_count = self._pending_edge_count
                comm_time = result.comm_time
                peak_client = result.peak_client_bytes
                reattach_at = self._reattach_at
            if (
                reevaluate_every is not None
                and offload_enabled
                and result.offload_count > 0
                and now - last_reeval >= reevaluate_every
            ):
                last_reeval = now
                self._columnar_offload(
                    ep, now, client_live, surrogate_live,
                    allocs_since_gc, bytes_since_gc, last_reeval,
                    pend_pair, pend_bytes, pend_count,
                    cpu_client, cpu_surrogate, comm_time,
                    monitoring_time, remote_invocations, remote_native,
                    remote_accesses, remote_bytes, peak_client,
                    reevaluation=True,
                )
                now = self._now
                client_live = self._client_live
                surrogate_live = self._surrogate_live
                last_reeval = self._last_reevaluation
                class_on_surrogate = self._class_on_surrogate
                pend_pair = self._pending_edge
                pend_bytes = self._pending_edge_bytes
                pend_count = self._pending_edge_count
                comm_time = result.comm_time
                peak_client = result.peak_client_bytes
                reattach_at = self._reattach_at
            if oom:
                break
        # -- final spill ------------------------------------------------------
        self._now = now
        self._client_live = client_live
        self._surrogate_live = surrogate_live
        self._allocs_since_gc = allocs_since_gc
        self._bytes_since_gc = bytes_since_gc
        self._last_reevaluation = last_reeval
        self._pending_edge = pend_pair
        self._pending_edge_bytes = pend_bytes
        self._pending_edge_count = pend_count
        result.cpu_time_client = cpu_client
        result.cpu_time_surrogate = cpu_surrogate
        result.comm_time = comm_time
        result.monitoring_time = monitoring_time
        result.remote_invocations = remote_invocations
        result.remote_native_invocations = remote_native
        result.remote_accesses = remote_accesses
        result.remote_bytes = remote_bytes
        result.events_processed = ep
        if peak_client > result.peak_client_bytes:
            result.peak_client_bytes = peak_client
        return self._finish_run()

    def _columnar_offload(
        self, ep, now, client_live, surrogate_live, allocs_since_gc,
        bytes_since_gc, last_reeval, pend_pair, pend_bytes, pend_count,
        cpu_client, cpu_surrogate, comm_time, monitoring_time,
        remote_invocations, remote_native, remote_accesses, remote_bytes,
        peak_client, reevaluation=False,
    ) -> None:
        """Spill hoisted loop state and run one partitioning attempt."""
        self._columnar_spill(
            ep, now, client_live, surrogate_live, allocs_since_gc,
            bytes_since_gc, last_reeval, pend_pair, pend_bytes,
            pend_count, cpu_client, cpu_surrogate, comm_time,
            monitoring_time, remote_invocations, remote_native,
            remote_accesses, remote_bytes, peak_client,
        )
        self._attempt_offload(reevaluation=reevaluation)

    def _columnar_spill(
        self, ep, now, client_live, surrogate_live, allocs_since_gc,
        bytes_since_gc, last_reeval, pend_pair, pend_bytes, pend_count,
        cpu_client, cpu_surrogate, comm_time, monitoring_time,
        remote_invocations, remote_native, remote_accesses, remote_bytes,
        peak_client,
    ) -> None:
        """Write the batched loop's hoisted state back to the instance.

        The batched loop keeps replayer state in locals; this helper
        writes it back so a cold call (:meth:`_attempt_offload`,
        :meth:`_poll_mobility`, and everything they reach) observes the
        exact state the serial loop would, then the caller reloads what
        the call may have changed.
        """
        result = self.result
        self._now = now
        self._client_live = client_live
        self._surrogate_live = surrogate_live
        self._allocs_since_gc = allocs_since_gc
        self._bytes_since_gc = bytes_since_gc
        self._last_reevaluation = last_reeval
        self._pending_edge = pend_pair
        self._pending_edge_bytes = pend_bytes
        self._pending_edge_count = pend_count
        result.cpu_time_client = cpu_client
        result.cpu_time_surrogate = cpu_surrogate
        result.comm_time = comm_time
        result.monitoring_time = monitoring_time
        result.remote_invocations = remote_invocations
        result.remote_native_invocations = remote_native
        result.remote_accesses = remote_accesses
        result.remote_bytes = remote_bytes
        if peak_client > result.peak_client_bytes:
            result.peak_client_bytes = peak_client
        result.events_processed = ep

    def _exchange_spill(self, ep, now, client_live, surrogate_live,
                        peak_client) -> None:
        """Spill the batched loop's state around a fault-gauntlet exchange.

        The exchange reads the clock and the event index (for
        ``crash_at_event``); recovery from a dead surrogate rewrites the
        heap counters and may raise the peak.  The caller always reloads
        the clock afterwards, and :meth:`_exchange_reload` when recovery
        may have run.
        """
        result = self.result
        self._now = now
        result.events_processed = ep
        self._client_live = client_live
        self._surrogate_live = surrogate_live
        if peak_client > result.peak_client_bytes:
            result.peak_client_bytes = peak_client

    def _exchange_reload(self):
        """Heap counters, placement, peak and reattach time after an
        exchange that may have declared the surrogate dead."""
        return (self._client_live, self._surrogate_live,
                self._class_on_surrogate, self.result.peak_client_bytes,
                self._reattach_at)

    # -- allocation and the emulated collector -------------------------------------

    def _replay_alloc(self, event: AllocEvent) -> None:
        site = self._class_site(event.creator_class)
        if site == CLIENT:
            capacity = self.config.client.heap_capacity
            if self._client_live + event.size > capacity:
                self._gc_cycle("space-exhausted")
                if self._client_live + event.size > capacity:
                    self.result.oom = True
                    self.result.oom_time = self._now
                    return
            self._client_live += event.size
            if self._client_live > self.result.peak_client_bytes:
                self.result.peak_client_bytes = self._client_live
            self._allocs_since_gc += 1
            self._bytes_since_gc += event.size
        else:
            self._surrogate_live += event.size
        self._site[event.oid] = site
        self._size[event.oid] = event.size
        self._class[event.oid] = event.class_name
        node = self._node_for(event.class_name, event.oid)
        self.graph.add_memory(node, event.size)
        self.graph.note_object_created(node)
        # The creating class is part of the execution picture even if no
        # interaction has referenced it yet.
        self.graph.ensure_node(event.creator_class)
        self._charge_monitoring(site)
        self._maybe_gc()

    def _replay_free(self, event: FreeEvent) -> None:
        site = self._site.get(event.oid)
        if site is None:
            return
        if site == CLIENT:
            # Client garbage waits for an emulated collection cycle.
            self._pending_garbage.append(event.oid)
            self._pending_garbage_bytes += self._size[event.oid]
        else:
            self._reclaim(event.oid)

    def _reclaim(self, oid: int) -> None:
        site = self._site.pop(oid, None)
        if site is None:
            return
        if self._cache is not None:
            # GC of the owner invalidates its cached remote copy.
            self._cache.invalidate(oid)
        size = self._size.pop(oid)
        class_name = self._class.pop(oid)
        if site == CLIENT:
            self._client_live -= size
        else:
            self._surrogate_live -= size
        node = self._node_for(class_name, oid)
        if self.graph.has_node(node):
            self.graph.add_memory(node, -size)
            self.graph.note_object_freed(node)

    def _maybe_gc(self) -> None:
        capacity = self.config.client.heap_capacity
        free_fraction = (capacity - self._client_live) / capacity
        if free_fraction < self.config.gc.space_pressure_fraction:
            self._gc_cycle("space-pressure")
        elif self._allocs_since_gc >= self.config.gc.allocations_per_cycle:
            self._gc_cycle("allocation-count")
        elif self._bytes_since_gc >= self.config.gc.bytes_per_cycle:
            self._gc_cycle("allocation-bytes")

    def _gc_cycle(self, reason: str) -> None:
        if self._coalescer is not None:
            # GC barrier: the pause must not overtake un-charged traffic.
            self._coalescer.gc_barrier()
        freed_bytes = self._pending_garbage_bytes
        freed_objects = len(self._pending_garbage)
        for oid in self._pending_garbage:
            # Only reclaim garbage still on the client: a migration may
            # not move garbage, so client garbage stays client garbage.
            self._reclaim(oid)
        self._pending_garbage = []
        self._pending_garbage_bytes = 0
        self._allocs_since_gc = 0
        self._bytes_since_gc = 0
        self._gc_cycles += 1
        self.result.gc_cycles += 1
        pause = (default_pause_model(len(self._site), freed_objects)
                 / self.config.client.cpu_speed)
        self.result.gc_pause_time += pause
        self._now += pause
        capacity = self.config.client.heap_capacity
        report = GCReport(
            cycle=self._gc_cycles,
            reason=reason,
            live_objects=len(self._site),
            freed_objects=freed_objects,
            freed_bytes=freed_bytes,
            used_bytes=self._client_live,
            free_bytes=capacity - self._client_live,
            capacity=capacity,
        )
        if not self.config.offload_enabled:
            return
        if (
            self.result.offload_count > 0
            and self.config.reevaluate_every is not None
        ):
            # In global-placement mode the replay loop's clock check
            # owns every attempt after the first offload; the memory
            # trigger stays out of it.
            return
        if self.config.single_shot and self.result.offload_count > 0:
            return
        if self._trigger.observe(report):
            self._last_reevaluation = self._now
            self._attempt_offload()

    # -- partitioning and migration -----------------------------------------------

    def _pinned_nodes(self) -> List[str]:
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

    def _evaluation_context(self) -> EvaluationContext:
        return EvaluationContext(
            heap_capacity=self.config.client.heap_capacity,
            client_speed=self.config.client.cpu_speed,
            surrogate_speed=self.config.surrogate.cpu_speed,
            link=self._link,
            total_cpu=self.graph.total_cpu(),
            elapsed=self._now,
        )

    def _attempt_offload(self, reevaluation: bool = False) -> None:
        if self._surrogate_dead:
            # Client-only degraded mode: nothing to offload to.  The
            # graph keeps growing, so the post-rediscovery epoch starts
            # warm.
            return
        self._flush_interactions()
        if self._coalescer is not None:
            # Repartition barrier: decisions and migrations must not
            # observe buffered, un-charged operations.
            self._coalescer.migration_barrier()
        if self.config.forced_offload_nodes is not None:
            moved_bytes, moved_objects = self._apply_placement(
                self.config.forced_offload_nodes
            )
            if self._surrogate_dead and moved_objects == 0:
                # The placement died on its opening exchange: nothing
                # moved, so no offload was performed.
                return
            self.result.offloads.append(ReplayOffload(
                time=self._now,
                decision=PartitionDecision(
                    beneficial=True,
                    offload_nodes=self.config.forced_offload_nodes,
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
            return
        decision = self._session.partition(
            self.graph, self._pinned_nodes(), self._evaluation_context()
        )
        offload = ReplayOffload(time=self._now, decision=decision)
        if not decision.beneficial:
            self.result.refusals += 1
            self._trigger.reset()
            if reevaluation:
                # No partitioning is currently beneficial: revert to
                # the all-local placement (reverse migration).
                moved_bytes, moved_objects = self._apply_placement(
                    frozenset()
                )
                offload.migrated_bytes = moved_bytes
                offload.migrated_objects = moved_objects
            self.result.offloads.append(offload)
            return
        moved_bytes, moved_objects = self._apply_placement(
            decision.offload_nodes
        )
        if self._surrogate_dead and moved_objects == 0:
            # The placement died on its opening exchange: nothing
            # moved, so no offload was performed.
            return
        offload.migrated_bytes = moved_bytes
        offload.migrated_objects = moved_objects
        self.result.offloads.append(offload)

    def _apply_placement(
        self, offload_nodes: FrozenSet[str]
    ) -> Tuple[int, int]:
        self._offloaded = offload_nodes
        self._class_on_surrogate = {
            node for node in offload_nodes if "#" not in node
        }
        garbage = set(self._pending_garbage)
        to_surrogate: List[int] = []
        to_client: List[int] = []
        for oid, site in self._site.items():
            if oid in garbage:
                continue
            class_name = self._class[oid]
            node = self._node_for(class_name, oid)
            wants_surrogate = node in offload_nodes
            if wants_surrogate and site == CLIENT:
                to_surrogate.append(oid)
            elif not wants_surrogate and site == SURROGATE:
                to_client.append(oid)
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
            batch_bytes = sum(self._size[oid] for oid in oids)
            for oid in oids:
                self._site[oid] = destination
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
        if self._cache is not None and (to_surrogate or to_client):
            # Residency changed under the cache: drop everything rather
            # than chase which owners moved.
            self._cache.invalidate_all()
        return moved_bytes, moved_objects

    # -- interactions ------------------------------------------------------------

    def _invoke_sites(
        self, caller_class: str, caller_oid: Optional[int],
        callee_class: str, callee_oid: Optional[int], mkind: str,
        stateless: bool,
    ) -> Tuple[str, str]:
        caller_site = self._site_for(caller_class, caller_oid)
        if mkind == "native":
            if stateless and self.config.flags.stateless_natives_local:
                exec_site = caller_site
            else:
                exec_site = CLIENT
        elif mkind == "static":
            exec_site = caller_site
        else:
            exec_site = self._site_for(callee_class, callee_oid)
        return caller_site, exec_site

    def _replay_invoke(self, event: InvokeEvent) -> None:
        sites = (event.caller_class, event.caller_oid, event.callee_class,
                 event.callee_oid, event.mkind, event.stateless)
        caller_site, exec_site = self._invoke_sites(*sites)
        remote = exec_site != caller_site
        nbytes = event.arg_bytes + event.ret_bytes
        if remote and self._coalescer is None and not self._exchange():
            # The surrogate died under this round trip: recovery has
            # repatriated everything, so the invocation is local now.
            caller_site, exec_site = self._invoke_sites(*sites)
            remote = exec_site != caller_site
        if remote:
            if self._coalescer is not None:
                # Control transfers: the invoke closes its batch, and
                # any buffered writes piggyback on its request leg.
                self._coalescer.invoke(caller_site, exec_site,
                                       event.arg_bytes, event.ret_bytes)
            else:
                self._charge_comm(remote_invoke_cost(
                    self._link, event.arg_bytes, event.ret_bytes
                ))
            self.result.remote_invocations += 1
            self.result.remote_bytes += nbytes
            if event.is_native:
                self.result.remote_native_invocations += 1
        caller_node = self._node_for(event.caller_class, event.caller_oid)
        callee_node = self._node_for(event.callee_class, event.callee_oid)
        self._record_interaction(caller_node, callee_node, nbytes)
        self._charge_monitoring(exec_site)

    def _replay_access(self, event: AccessEvent) -> None:
        accessor_site = self._site_for(event.accessor_class,
                                       event.accessor_oid)
        if event.is_static:
            owner_site = CLIENT
        else:
            owner_site = self._site_for(event.owner_class, event.owner_oid)
        remote = owner_site != accessor_site
        if self._cache is not None and event.is_write:
            # Any write (local or remote) makes a cached copy on the
            # other site stale.
            key = self._cache_key(event)
            if key is not None:
                self._cache.invalidate(key)
        if remote:
            cached = False
            if self._cache is not None and not event.is_write:
                key = self._cache_key(event)
                cached = key is not None and self._cache.note_read(key)
            lost = (
                not cached
                and self._coalescer is None
                and not self._exchange()
            )
            if lost:
                # Surrogate lost mid-access: recovery has repatriated
                # the owner, so the access completes locally, uncharged.
                remote = False
                owner_site = self._site_for(event.owner_class,
                                            event.owner_oid)
            if cached or lost:
                # Served from the reading site's copy (or resolved
                # locally after recovery): no round trip, zero bytes on
                # the wire — a local read, cost-wise.
                pass
            elif self._coalescer is not None:
                if event.is_write:
                    self._coalescer.write(accessor_site, owner_site,
                                          event.nbytes)
                else:
                    self._coalescer.read(accessor_site, owner_site,
                                         event.nbytes)
                self.result.remote_accesses += 1
                self.result.remote_bytes += event.nbytes
            else:
                self._charge_comm(remote_access_cost(
                    self._link, event.nbytes, event.is_write
                ))
                self.result.remote_accesses += 1
                self.result.remote_bytes += event.nbytes
        accessor_node = self._node_for(event.accessor_class,
                                       event.accessor_oid)
        owner_node = self._node_for(event.owner_class, event.owner_oid)
        self._record_interaction(accessor_node, owner_node, event.nbytes)
        self._charge_monitoring(owner_site)

    def _replay_work(self, event: WorkEvent) -> None:
        site = self._site_for(event.class_name, event.oid)
        self._charge_cpu(site, event.seconds)
        self.graph.add_cpu(event.class_name, event.seconds)
