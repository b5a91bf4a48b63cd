"""The ad-hoc distributed platform (the paper's prototype).

A :class:`DistributedPlatform` joins a client VM and one or more
surrogate VMs over simulated wireless links, shares the application
bytecodes between them, and installs the three AIDE modules: the
execution monitor, the partitioner (behind the offloading engine), and
the remote invocation support.  Running a guest application on the
platform reproduces the paper's prototype behaviour: the application
starts on the client, the platform watches memory pressure, and when
the trigger policy fires it transparently offloads the selected classes
to the surrogate.  With several surrogates (paper section 2: "multiple
surrogates could be used by the client") the offloaded nodes spread
across them and a full surrogate's allocations spill to a sibling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import EnhancementFlags, JORNADA, PC_SURROGATE, VMConfig
from ..core.control import ControlPlane
from ..core.engine import MigrationOutcome, OffloadEvent, OffloadingEngine
from ..core.monitor import ExecutionMonitor, ResourceMonitor
from ..core.partitioner import Partitioner
from ..core.policy import EvaluationContext, OffloadPolicy, PartitionPolicy
from ..errors import (
    ConfigurationError,
    OutOfMemoryError,
    PlatformError,
    SurrogateUnavailableError,
)
from ..net.faults import FaultSchedule, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig
from ..net.stats import TrafficStats
from ..net.wavelan import WAVELAN_11MBPS
from ..rpc.batch import DataPlane, DataPlaneConfig
from ..rpc.channel import RpcChannel
from ..rpc.retry import ReliableDelivery, RetryPolicy
from ..rpc.distgc import CrossHeapRootScanner
from ..vm.classloader import ClassRegistry
from ..vm.clock import VirtualClock
from ..vm.context import ExecutionContext, MAIN_CLASS, Runtime
from ..vm.hooks import HookFanout
from ..vm.natives import install_standard_library
from ..vm.objectmodel import JObject
from ..vm.vm import VirtualMachine
from .discovery import SurrogateDirectory, SurrogateOffer
from .migration import Migrator
from .node import make_client_node, make_surrogate_node

#: Graph-node name for primitive integer arrays, the class the paper's
#: "Array" enhancement tracks at object granularity.
INT_ARRAY_CLASS = "int[]"


@dataclass(frozen=True)
class SurrogateSpec:
    """One surrogate of a platform: its name, VM config and client link."""

    name: str
    config: VMConfig
    link: LinkModel = WAVELAN_11MBPS

    def __post_init__(self) -> None:
        if not self.name or self.name == "client":
            raise ConfigurationError(
                f"surrogate name {self.name!r} is not usable"
            )


class DistributedRuntime(Runtime):
    """Routing between the client and its surrogates.

    ``surrogates`` lists the active surrogate VMs, primary first;
    ``links`` maps each of them to its client link.  A client-surrogate
    message rides that surrogate's link; a surrogate-surrogate message
    relays through the client (the ad-hoc platform has no
    surrogate-to-surrogate radio path), one charge per hop.  A full
    surrogate's allocation spills to the active sibling with the most
    free heap.
    """

    def __init__(
        self,
        client_vm: VirtualMachine,
        surrogates: Sequence[VirtualMachine],
        links: Dict[str, LinkModel],
        traffic: TrafficStats,
    ) -> None:
        self._client = client_vm
        self.sites = {client_vm.name: client_vm}
        self.sites.update((vm.name, vm) for vm in surrogates)
        self.surrogates: List[VirtualMachine] = list(surrogates)
        self.links = links
        self.traffic = traffic
        #: Optional reliability layer.  When present, every cross-site
        #: transfer runs the fault gauntlet first (drops, retries,
        #: partitions, crash detection); the base link charge below only
        #: happens for delivered messages.
        self.delivery: Optional[ReliableDelivery] = None

    def client(self) -> VirtualMachine:
        return self._client

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self.sites[name]
        except KeyError:
            raise PlatformError(f"unknown site {name!r}") from None

    def vms(self) -> Iterable[VirtualMachine]:
        return self.sites.values()

    def register(self, vm: VirtualMachine) -> None:
        """Attach another site (used by surrogate handoff)."""
        if vm.name in self.sites:
            raise PlatformError(f"site {vm.name!r} already registered")
        self.sites[vm.name] = vm

    def transfer(self, from_site: str, to_site: str, nbytes: int) -> bool:
        if from_site == to_site:
            return True
        sites = self.sites
        if from_site not in sites or to_site not in sites:
            unknown = to_site if from_site in sites else from_site
            raise PlatformError(f"unknown site {unknown!r}")
        if self.delivery is not None and not self.delivery.attempt():
            # The peer was declared dead under this exchange; recovery
            # has already run (via ``on_peer_lost``) and the caller must
            # resolve the operation locally instead of charging it.
            return False
        for site in (from_site, to_site):
            if site != self._client.name:
                self._client.clock.advance(self.links[site].one_way(nbytes))
                self.traffic.record(nbytes, category="rpc")
        return True

    def new_instance(self, site: str, cls) -> JObject:
        try:
            return self.vm(site).new_instance(cls)
        except OutOfMemoryError as oom:
            return self._spill(site, oom, lambda vm: vm.new_instance(cls))

    def new_array(self, site: str, element_type: str, length: int,
                  data=None) -> JObject:
        try:
            return self.vm(site).new_array(element_type, length, data=data)
        except OutOfMemoryError as oom:
            return self._spill(
                site, oom,
                lambda vm: vm.new_array(element_type, length, data=data),
            )

    def _spill(self, site: str, error: OutOfMemoryError,
               allocate: Callable[[VirtualMachine], JObject]) -> JObject:
        """Retry a failed surrogate allocation on the active siblings,
        most free heap first.  Client allocations never spill: client
        pressure is the trigger policy's concern, not the allocator's."""
        if site != self._client.name:
            siblings = sorted(
                (vm for vm in self.surrogates if vm.name != site),
                key=lambda vm: -vm.heap.free,
            )
            for vm in siblings:
                try:
                    return allocate(vm)
                except OutOfMemoryError as oom:
                    error = oom
        raise error


@dataclass
class PlatformReport:
    """Summary of one application run on the platform."""

    app_name: str
    elapsed: float
    offload_count: int
    refusal_count: int
    migrated_bytes: int
    rpc_messages: int
    rpc_bytes: int
    remote_invocations: int
    remote_native_invocations: int
    client_heap_used: int
    surrogate_heap_used: int
    # Cross-site data-plane counters (all zero when the optimisations
    # are off — the default — so older readers see familiar numbers).
    cached_remote_reads: int = 0
    rpc_rtts_saved: int = 0
    rpc_bytes_saved: int = 0
    pruned_handles: int = 0
    #: Recovery section (``None`` when no fault injection was
    #: configured): the :class:`~repro.net.faults.FaultReport` counters
    #: — retries, timeouts, downtime charged, objects repatriated,
    #: partitioning epochs survived — as a plain dict.
    faults: Optional[dict] = None


class DistributedPlatform:
    """One client + one or more surrogates joined at run time.

    ``surrogates`` lists the surrogates as :class:`SurrogateSpec`; the
    first is the *primary*, which recovery, handoff, mobility and the
    RPC channel act on.  ``surrogate_config`` and ``link`` (default
    WaveLAN) are the shorthand for a single surrogate named
    ``"surrogate"``.
    """

    def __init__(
        self,
        client_config: Optional[VMConfig] = None,
        surrogate_config: Optional[VMConfig] = None,
        link: Optional[LinkModel] = None,
        offload_policy: Optional[OffloadPolicy] = None,
        partition_policy: Optional[PartitionPolicy] = None,
        flags: EnhancementFlags = EnhancementFlags(),
        single_shot: bool = True,
        reevaluate_every: Optional[float] = None,
        hints=None,
        profile=None,
        cold_start=None,
        registry: Optional[ClassRegistry] = None,
        install_stdlib: bool = True,
        data_plane: Optional[DataPlaneConfig] = None,
        faults: Optional[FaultSpec] = None,
        retry: Optional[RetryPolicy] = None,
        link_profile: Optional[LinkProfile] = None,
        mobility: Optional[MobilityConfig] = None,
        directory: Optional[SurrogateDirectory] = None,
        surrogates: Optional[List[SurrogateSpec]] = None,
    ) -> None:
        if surrogates is None:
            surrogates = [SurrogateSpec(
                "surrogate",
                surrogate_config or VMConfig(device=PC_SURROGATE),
                link or WAVELAN_11MBPS,
            )]
        elif surrogate_config is not None or link is not None:
            raise ConfigurationError(
                "pass surrogates or surrogate_config/link, not both"
            )
        if not surrogates:
            raise ConfigurationError("need at least one surrogate")
        names = [spec.name for spec in surrogates]
        if len(set(names)) != len(names):
            raise ConfigurationError("surrogate names must be unique")
        if link_profile is not None:
            # A scheduled profile owns the primary's link from t=0; the
            # static link is ignored in its favour.
            surrogates = [replace(surrogates[0],
                                  link=link_profile.link_at(0.0)),
                          *surrogates[1:]]
        self.client_config = client_config or VMConfig(device=JORNADA)
        self.flags = flags
        offload_policy = offload_policy or OffloadPolicy.initial()

        if registry is None:
            registry = ClassRegistry()
            if install_stdlib:
                install_standard_library(registry)
        self.registry = registry
        self.clock = VirtualClock()
        self.client = make_client_node(self.client_config, registry, self.clock)
        nodes = [
            make_surrogate_node(spec.config, registry, self.clock,
                                name=spec.name)
            for spec in surrogates
        ]
        self.surrogate = nodes[0]
        self.hooks = HookFanout()
        self.traffic = TrafficStats()
        self.runtime = DistributedRuntime(
            self.client.vm, [node.vm for node in nodes],
            {spec.name: spec.link for spec in surrogates}, self.traffic,
        )
        # Loss, rediscovery and roaming decisions: the state machine the
        # emulator drives too, with this platform as its host.  A link
        # profile schedules the primary's link; ``mobility`` adds the
        # trend trigger that turns decay into proactive action.
        self.control = control = ControlPlane(
            self, self.link, faults=faults, link_profile=link_profile,
            mobility=mobility,
        )
        self.fault_report = control.faults
        self.mobility_report = control.mobility
        self.directory = directory
        self._current_offer_name = ""
        # Fault injection and the recovery ladder.  With a spec, every
        # cross-site exchange runs through ReliableDelivery: seeded
        # drops/spikes/partitions, bounded retransmission, and — on a
        # declared surrogate death — the graceful-degradation callback.
        self.delivery: Optional[ReliableDelivery] = None
        if faults is not None:
            self.delivery = ReliableDelivery(
                retry if retry is not None else RetryPolicy(),
                schedule=FaultSchedule(faults),
                charge=self.clock.advance,
                counters=control.faults,
                now=lambda: self.clock.now,
                on_peer_lost=control.lose_surrogate,
            )
        self.runtime.delivery = control.delivery = self.delivery
        dp_config = data_plane or DataPlaneConfig()
        #: RPC worker-pool service quantum, threaded into every channel
        #: this platform creates (including post-handoff rebuilds).
        self._service_quantum_s = dp_config.service_quantum_s
        # The data plane's coalescer and read cache are ``None`` when
        # off, and the context gates on them.
        self.data_plane = DataPlane(dp_config, self.link,
                                    self.runtime.transfer)
        self.ctx = ExecutionContext(
            self.runtime, registry, hooks=self.hooks, flags=flags,
            data_plane=self.data_plane,
        )

        granularity = {INT_ARRAY_CLASS} if flags.arrays_object_granularity else set()
        self.monitor = ExecutionMonitor(
            object_granularity_classes=granularity, profile=profile
        )
        self.resources = ResourceMonitor()
        self.hooks.add(self.monitor)
        self.hooks.add(self.resources)

        self.migrator = Migrator(
            self.client.vm,
            self.runtime.surrogates,
            self.runtime.links,
            self.monitor,
            self.traffic,
            object_granularity_classes=granularity,
            delivery=self.delivery,
        )
        self.partitioner = Partitioner(
            partition_policy or offload_policy.make_partition_policy(),
            hints=hints,
        )
        self.engine = OffloadingEngine(
            self,
            self.partitioner,
            offload_policy.make_trigger(),
            client_site=self.client.vm.name,
            single_shot=single_shot,
            reevaluate_every=reevaluate_every,
        )
        # Static-analysis cold start (a ColdStartSeed): seeds the
        # monitor's graph with the predicted interaction structure and
        # installs inferred hints unless explicit ``hints`` were given.
        self.engine.apply_cold_start(cold_start)
        self.hooks.add(self.engine)

        self.channel = RpcChannel(
            self.ctx, self.client.vm.name, self.surrogate.vm.name,
            delivery=self.delivery,
            service_quantum_s=self._service_quantum_s,
        )
        sites = [self.client.vm, *self.runtime.surrogates]
        for vm in sites:
            self._wire_gc(vm)
            for peer in sites:
                if peer is not vm:
                    self._install_root_scanner(vm, peer)
        self._torn_down = False

    # -- construction helpers ------------------------------------------------

    def _wire_gc(self, vm: VirtualMachine) -> None:
        # The channel barrier runs first: export handles for collected
        # objects are pruned (and pending data-plane traffic flushed)
        # before the report reaches the offloading engine.
        vm.collector.subscribe(
            lambda report, site=vm.name: self._gc_barrier(site)
        )
        vm.collector.subscribe(
            lambda report, site=vm.name: self.hooks.on_gc_report(report, site)
        )
        # Looked up per free: the fanout rebinds its hooks on ``add``.
        vm.collector.subscribe_free(lambda obj: self.hooks.on_free(obj))
        vm.collector.subscribe_free(
            lambda obj: self.data_plane.note_free(obj.oid)
        )

    def _gc_barrier(self, site: str) -> None:
        self.data_plane.gc_barrier()
        # After a handoff the departed surrogate keeps collecting but is
        # no longer a channel endpoint; only current endpoints prune.
        if site in self.channel.exports:
            self.channel.gc_barrier(site)

    def _install_root_scanner(self, local: VirtualMachine,
                              peer: VirtualMachine) -> None:
        """Let ``peer`` keep ``local``'s objects alive.

        The scanner also consults the peer's *direct* roots (named
        globals, static fields): a client global may point straight at
        a migrated object on a surrogate.  Only the channel's two
        endpoints have export maps.
        """
        exports = None
        if {local.name, peer.name} == set(self.channel.sites):
            exports = self.channel.exports[local.name]
        scanner = CrossHeapRootScanner(
            local, peer, exports, extra_peer_roots=peer.local_roots,
        )
        local.add_root_source(scanner.roots)

    @classmethod
    def from_discovery(
        cls,
        directory: SurrogateDirectory,
        client_config: Optional[VMConfig] = None,
        min_free_heap: int = 0,
        max_rtt: Optional[float] = None,
        **kwargs,
    ) -> "DistributedPlatform":
        """Ad-hoc creation: pick the best advertised surrogate and attach."""
        offer = directory.select(min_free_heap=min_free_heap, max_rtt=max_rtt)
        return cls(
            client_config=client_config,
            surrogate_config=VMConfig(device=offer.device),
            link=offer.link,
            **kwargs,
        )

    # -- engine ports (see repro.core.engine) ---------------------------------

    @property
    def graph(self):
        return self.monitor.graph

    def pinned_nodes(self) -> List[str]:
        """Graph nodes that must stay on the client.

        The application entry point and every class with native methods
        (only *stateful* natives under the stateless-native enhancement).
        """
        pinned = [MAIN_CLASS]
        pinned.extend(
            self.registry.pinned_class_names(
                stateless_natives_ok=self.flags.stateless_natives_local
            )
        )
        return pinned

    def evaluation_context(self) -> EvaluationContext:
        """The fastest active surrogate over the lowest-RTT active link."""
        return EvaluationContext(
            heap_capacity=self.client.vm.heap.capacity,
            client_speed=self.client.device.cpu_speed,
            surrogate_speed=max(
                vm.device.cpu_speed for vm in self.runtime.surrogates
            ),
            link=min(self.runtime.links.values(), key=lambda link: link.rtt),
            total_cpu=self.monitor.graph.total_cpu(),
            elapsed=self.clock.now,
        )

    def _migrate(self, offload_nodes) -> MigrationOutcome:
        # Migration barrier: pending coalesced traffic must be charged
        # before residency changes under it...
        self.data_plane.migration_barrier()
        outcome = self.migrator.apply_placement(offload_nodes)
        # ...and the read cache cannot outlive the old placement.
        self.data_plane.note_migration()
        # A post-offload cycle refreshes the free-memory picture so the
        # trigger policy sees the relief immediately.
        self.client.vm.collect_garbage("post-offload")
        return outcome

    def migrate(self, offload_nodes) -> Tuple[int, int]:
        """Move residency to ``offload_nodes``; raises
        :class:`~repro.errors.MigrationError` when the client cannot
        host what comes home (a memory-pressure offload is usually
        exactly that state)."""
        outcome = self._migrate(offload_nodes)
        return outcome.moved_bytes, outcome.moved_objects

    # -- failure and recovery (graceful degradation) ---------------------------

    @property
    def surrogate_lost(self) -> bool:
        return self.control.surrogate_lost

    def rediscover(self, attempt_offload: bool = True):
        """A replacement surrogate was discovered: leave degraded mode.

        When ``attempt_offload``, warm-starts a fresh partitioning epoch
        and returns its :class:`OffloadEvent` (``None`` when the
        placement died on its opening exchange).
        """
        return self.control.rediscover(attempt_offload)

    # -- running applications ------------------------------------------------------

    def run(self, app) -> PlatformReport:
        """Install and execute a guest application to completion."""
        if self._torn_down:
            raise PlatformError("platform has been torn down")
        app.install(self.registry)
        app.main(self.ctx)
        return self.report(app.name)

    def _faults_section(self) -> Optional[dict]:
        """The report's recovery section (``None`` without injection)."""
        if self.delivery is None:
            return None
        report = self.fault_report
        report.epochs_survived = len(self.engine.performed_events)
        section = report.as_dict()
        section["downtime_s"] = self.control.downtime_s()
        return section

    def report(self, app_name: str = "") -> PlatformReport:
        # Charge whatever is still buffered before summarising.
        self.data_plane.flush()
        rpc = self.traffic.category("rpc")
        dp_stats = self.data_plane.stats
        return PlatformReport(
            app_name=app_name,
            elapsed=self.clock.now,
            offload_count=self.engine.offload_count,
            refusal_count=self.engine.refusal_count,
            migrated_bytes=self.traffic.category("migration").bytes,
            rpc_messages=rpc.messages,
            rpc_bytes=rpc.bytes,
            remote_invocations=self.monitor.remote.remote_invocations,
            remote_native_invocations=self.monitor.remote.remote_native_invocations,
            client_heap_used=self.client.vm.heap.used,
            surrogate_heap_used=sum(self.surrogate_usage().values()),
            cached_remote_reads=self.monitor.remote.cached_reads,
            rpc_rtts_saved=dp_stats.rtts_saved,
            rpc_bytes_saved=dp_stats.bytes_saved,
            pruned_handles=self.channel.pruned_handles,
            faults=self._faults_section(),
        )

    def surrogate_usage(self) -> Dict[str, int]:
        """Heap bytes in use on each active surrogate."""
        return {vm.name: vm.heap.used for vm in self.runtime.surrogates}

    @property
    def link(self) -> LinkModel:
        """The primary surrogate's client link."""
        return self.runtime.links[self.surrogate.vm.name]

    @property
    def elapsed(self) -> float:
        return self.clock.now

    def teardown(self) -> MigrationOutcome:
        """Dissolve the ad-hoc platform, returning all state to the client."""
        self.data_plane.migration_barrier()
        outcome = self.migrator.return_everything()
        self.data_plane.note_migration()
        self._torn_down = True
        return outcome

    # -- mobility (paper section 8: "combine offloading and mobility") ---------

    def handoff(self, offer: SurrogateOffer,
                backhaul: Optional[LinkModel] = None) -> MigrationOutcome:
        """Move the platform to a new surrogate as the user roams.

        Implements the migration answer to the paper's handoff question
        ("should the objects on the first surrogate be migrated to the
        second surrogate?"): every object on the primary surrogate is
        shipped to the new one over a surrogate-to-surrogate backhaul
        link (infrastructure wiring, default fast Ethernet), the client
        link is switched to the new offer's link (or, under a link
        profile, the profile's t=0 link: the attachment epoch restarts),
        and the AIDE modules re-attach to the new surrogate, which
        becomes the primary.
        Execution continues transparently — subsequent remote
        interactions route to the new surrogate.
        """
        from ..net.wavelan import ETHERNET_100MBPS

        if self._torn_down:
            raise PlatformError("platform has been torn down")
        self.data_plane.migration_barrier()
        self.data_plane.note_migration()
        backhaul = backhaul if backhaul is not None else ETHERNET_100MBPS
        taken = {vm.name for vm in self.runtime.vms()}
        suffix = len(taken)
        while f"surrogate-{suffix}" in taken:
            suffix += 1
        new_name = f"surrogate-{suffix}"
        new_node = make_surrogate_node(
            VMConfig(device=offer.device), self.registry, self.clock,
            name=new_name,
        )
        self.runtime.register(new_node.vm)
        new_node.vm.add_root_source(self.ctx.frame_roots)
        self._wire_gc(new_node.vm)

        # The existing migrator (and its delivery layer, so exactly-once
        # and the recovery ladder survive the handoff) streams the state
        # over the backhaul and re-attaches to the new surrogate.
        outcome = self.migrator.handoff_to(new_node.vm, backhaul, offer.link)
        if self.runtime.surrogates[0] is not new_node.vm:
            # The opening delivery exchange failed: the stream aborted
            # un-applied and recovery owns the old surrogate's state —
            # leave the platform attached where it was.
            return outcome

        # Re-point the platform at the new surrogate.
        self.surrogate = new_node
        self.set_link(offer.link)
        self._current_offer_name = offer.name
        self.channel = RpcChannel(
            self.ctx, self.client.vm.name, new_node.vm.name,
            delivery=self.delivery,
            service_quantum_s=self._service_quantum_s,
        )
        for peer in (self.client.vm, *self.runtime.surrogates[1:]):
            self._install_root_scanner(peer, new_node.vm)
            self._install_root_scanner(new_node.vm, peer)
        self.control.handed_off(outcome.moved_bytes, outcome.seconds,
                                offer.link)
        return outcome

    def poll_mobility(self) -> Optional[str]:
        """Resolve the link profile against the clock and react.

        Applications (and the platform-backed experiment drivers) call
        this between operations.  Returns the action taken — ``"fire"``
        (proactive handoff or repatriation), ``"recover"``
        (re-offload after the link came back), or ``None``.
        """
        return self.control.poll_mobility()

    # -- control-plane ports (see repro.core.control) ------------------------

    def now(self) -> float:
        return self.clock.now

    def drop_traffic(self) -> int:
        dropped = self.data_plane.drop_pending()
        self.data_plane.note_migration()
        return dropped

    def repatriate_unreachable(self):
        """Degrade to a client-only monolith: rebuild the unreachable
        objects client-side, clear the export tables."""
        outcome = self.migrator.repatriate_unreachable()
        for refmap in self.channel.exports.values():
            refmap.clear()
        return outcome.moved_objects, outcome.moved_bytes

    def resume_offloading(self, attempt: bool) -> Optional[OffloadEvent]:
        return self.engine.attempt() if attempt else None

    def flush_traffic(self) -> None:
        self.data_plane.flush()

    def set_link(self, link: LinkModel) -> None:
        """Re-point every link-cost consumer at ``link``.

        The runtime's links table, which the migrator shares, holds the
        primary's link for RPC charges and placement streams; the data
        plane's coalescer (RTT-saving accounting) holds its own
        reference.  A link change that misses one silently keeps
        charging old-link costs.
        """
        self.runtime.links[self.surrogate.vm.name] = link
        self.data_plane.set_link(link)

    def placement(self) -> frozenset:
        return self.migrator.resident_nodes()

    def roam(self) -> Optional[MigrationOutcome]:
        """Hand off to the directory's best other surrogate, if any."""
        if self.directory is None:
            return None
        try:
            offer = self.directory.select(
                exclude=(self._current_offer_name,),
            )
        except SurrogateUnavailableError:
            return None
        return self.handoff(offer, backhaul=self.control.config.backhaul)
