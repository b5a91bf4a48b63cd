"""Object migration between the client and its surrogate VMs.

Given a placement (the set of graph nodes the partitioner wants off the
client), the migrator moves the corresponding live objects: whole
classes at class granularity, individual arrays at object granularity.
It charges the transfer against the link and keeps traffic statistics.

Migration is bidirectional: applying a placement also returns to the
client any object whose node is *not* in the offload set, which gives
the platform the "global placement" behaviour the paper lists as future
work (reverse migration on re-evaluation).

With several surrogates (paper section 2: "multiple surrogates could be
used by the client") :func:`assign_offload_nodes` spreads the offloaded
nodes across them, and a move between two surrogates relays through the
client — two wireless hops.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.engine import MigrationOutcome
from ..core.graph import ExecutionGraph, node_class, object_node_id
from ..core.monitor import ExecutionMonitor
from ..errors import MigrationError
from ..net.link import LinkModel
from ..net.stats import TrafficStats
from ..rpc.marshal import MESSAGE_HEADER_BYTES
from ..rpc.retry import ReliableDelivery
from ..vm.objectmodel import JObject
from ..vm.vm import VirtualMachine

#: Serialisation overhead charged per migrated object (type tag, oid,
#: field map framing).
PER_OBJECT_OVERHEAD_BYTES = 16


def migration_payload(total_object_bytes: int, object_count: int) -> int:
    """On-wire size of a migration batch: the objects' bytes, their
    per-object overhead and one message header."""
    if object_count < 0 or total_object_bytes < 0:
        raise ValueError("migration payload cannot be negative")
    return (
        total_object_bytes
        + object_count * PER_OBJECT_OVERHEAD_BYTES
        + MESSAGE_HEADER_BYTES
    )


def assign_offload_nodes(
    graph: ExecutionGraph,
    offload_nodes: FrozenSet[str],
    capacities: Dict[str, int],
    node_memory: Dict[str, int],
    preference: List[str],
) -> Dict[str, str]:
    """Spread offloaded nodes across surrogates.

    Greedy cohesion packing: nodes are placed largest-first; each node
    goes to the surrogate with the strongest interaction coupling to
    the nodes already placed there (so chatty neighbours co-locate and
    avoid the two-hop relay), breaking ties by the caller-supplied
    preference order, subject to each surrogate's free heap.

    Returns ``{node: surrogate_name}``; raises
    :class:`~repro.errors.MigrationError` when some node fits nowhere.
    """
    remaining = dict(capacities)
    placed: Dict[str, str] = {}
    members: Dict[str, Set[str]] = {name: set() for name in capacities}
    order = sorted(
        offload_nodes,
        key=lambda n: (-node_memory.get(n, 0), n),
    )
    rank = {name: index for index, name in enumerate(preference)}
    for node in order:
        need = node_memory.get(node, 0)
        candidates = [
            name for name, free in remaining.items() if free >= need
        ]
        if not candidates:
            raise MigrationError(
                f"no surrogate can host node {node!r} ({need} bytes)"
            )
        best = max(
            candidates,
            key=lambda name: (
                sum(graph.edge_bytes(node, other)
                    for other in members[name]),
                -rank.get(name, len(rank)),
            ),
        )
        placed[node] = best
        members[best].add(node)
        remaining[best] -= need
    return placed


class Migrator:
    """Applies placements between the client and its active surrogates.

    ``surrogates`` (primary first) and ``links`` (surrogate name to its
    client link) are the runtime's own list and table, shared rather
    than copied, so a handoff or link change is seen by both.
    """

    def __init__(
        self,
        client: VirtualMachine,
        surrogates: List[VirtualMachine],
        links: Dict[str, LinkModel],
        monitor: ExecutionMonitor,
        traffic: TrafficStats,
        object_granularity_classes: Set[str] = frozenset(),
        delivery: Optional[ReliableDelivery] = None,
    ) -> None:
        self.client = client
        self.surrogates = surrogates
        self.links = links
        #: The graph is read through the monitor, which folds its hook
        #: log on read.
        self.monitor = monitor
        self.traffic = traffic
        self.object_granularity_classes = set(object_granularity_classes)
        #: Optional reliability layer: when present, every migration
        #: stream opens with one fault-checked exchange *before* any
        #: object changes residency, so a surrogate crash mid-migration
        #: leaves both heaps exactly as they were.
        self.delivery = delivery
        #: Sequence number of the delivery exchange that opened the last
        #: migration stream (for at-most-once application of retried
        #: streams; 0 when no migration has run under a delivery layer).
        self.last_migration_seq = 0

    @property
    def peer_lost(self) -> bool:
        return self.delivery is not None and self.delivery.peer_dead

    # -- placement interpretation ------------------------------------------------

    def _node_for(self, obj: JObject) -> str:
        if obj.class_name in self.object_granularity_classes:
            return object_node_id(obj.class_name, obj.oid)
        return obj.class_name

    def resident_nodes(self) -> FrozenSet[str]:
        """Graph nodes with objects on any active surrogate."""
        return frozenset(
            self._node_for(obj)
            for vm in self.surrogates for obj in vm.heap.objects()
        )

    def _assign(self, offload_nodes: FrozenSet[str]) -> Dict[str, str]:
        """Map each offloaded node to the surrogate that should host it."""
        if len(self.surrogates) == 1:
            return dict.fromkeys(offload_nodes, self.surrogates[0].name)
        graph = self.monitor.graph
        node_memory = {
            node: (graph.node(node).memory_bytes
                   if graph.has_node(node) else 0)
            for node in offload_nodes
        }
        capacities = {vm.name: vm.heap.free for vm in self.surrogates}
        return assign_offload_nodes(
            graph, offload_nodes, capacities, node_memory,
            [vm.name for vm in self.surrogates],
        )

    # -- the move itself ------------------------------------------------------

    def apply_placement(self, offload_nodes: FrozenSet[str]) -> MigrationOutcome:
        """Move objects so residency matches ``offload_nodes``.

        Objects of offloaded nodes move to their assigned surrogate;
        objects of every other node move back to the client.  Each
        (source, target) pair is one stream; streams out of the client
        run first.
        """
        for node in offload_nodes:
            if node_class(node) == "<main>":
                raise MigrationError("the application entry point cannot move")
        if self.peer_lost:
            # The surrogate is unreachable; recovery already pulled its
            # state home and owns residency until rediscovery.
            return MigrationOutcome()
        assignment = self._assign(offload_nodes)
        client_name = self.client.name
        batches: Dict[Tuple[str, str], List[JObject]] = {}
        sites = {vm.name: vm for vm in (self.client, *self.surrogates)}
        for vm in sites.values():
            for obj in vm.heap.objects():
                target = assignment.get(self._node_for(obj), client_name)
                if target != vm.name:
                    batches.setdefault((vm.name, target), []).append(obj)
        moved_bytes = 0
        moved_objects = 0
        seconds = 0.0
        for source, target in sorted(
            batches, key=lambda pair: (pair[0] != client_name, pair)
        ):
            objects = batches[(source, target)]
            moved = self._move(objects, sites[source], sites[target],
                               self._hops(source, target))
            if self.peer_lost:
                # The peer died under this stream: recovery has run and
                # every object is already home — touch nothing more.
                return MigrationOutcome()
            moved_bytes += moved.moved_bytes
            moved_objects += moved.moved_objects
            seconds += moved.seconds
        return MigrationOutcome(
            moved_bytes=moved_bytes, moved_objects=moved_objects, seconds=seconds
        )

    def _hops(self, source: str, target: str) -> Tuple[LinkModel, ...]:
        """The client links a stream crosses: surrogate-to-surrogate
        streams relay through the client."""
        return tuple(
            self.links[site] for site in (source, target)
            if site != self.client.name
        )

    def _open_stream(self) -> bool:
        """Exchange before mutate: the stream's opening message must
        survive the fault gauntlet before any object changes residency.
        A crash here aborts the whole stream un-applied — recovery
        (triggered inside the failed exchange) sees every heap exactly
        as it was."""
        if self.delivery is None:
            return True
        if not self.delivery.attempt():
            return False
        self.last_migration_seq = self.delivery.exchanges
        return True

    def _move(
        self,
        objects: List[JObject],
        source: VirtualMachine,
        destination: VirtualMachine,
        hops: Sequence[LinkModel],
    ) -> MigrationOutcome:
        if not self._open_stream():
            return MigrationOutcome()
        incoming = sum(obj.size_bytes for obj in objects)
        total = migration_payload(incoming, len(objects))
        # Capacity check before touching either heap, so a failed
        # migration leaves residency unchanged.
        if destination.heap.free < incoming:
            destination.collect_garbage("pre-migration")
            if destination.heap.free < incoming:
                raise MigrationError(
                    f"{destination.name} cannot host {incoming} bytes "
                    f"({destination.heap.free} free)"
                )
        for obj in objects:
            source.evict(obj)
            destination.adopt(obj)
        duration = sum(link.bulk_transfer(total) for link in hops)
        source.clock.advance(duration)
        self.traffic.record(total, category="migration")
        return MigrationOutcome(
            moved_bytes=total, moved_objects=len(objects), seconds=duration
        )

    def handoff_to(
        self,
        new_surrogate: VirtualMachine,
        backhaul: LinkModel,
        link: LinkModel,
    ) -> MigrationOutcome:
        """Move the primary surrogate's partition to ``new_surrogate``.

        The roaming client found a better-placed surrogate: every object
        resident on the primary streams to ``new_surrogate`` over
        ``backhaul`` (the surrogate-side infrastructure link) — the
        state never transits the client's wireless hop.  After the move
        ``new_surrogate`` is the primary, talking over ``link``; the
        departed surrogate is no longer active.

        Exactly-once under retry: the stream opens with one
        fault-checked delivery exchange *before* any object moves (the
        delivery layer dedups retransmitted sequence numbers), and
        ``last_migration_seq`` records the stream so recovery can tell
        an applied handoff from an aborted one.  A failed exchange
        aborts the handoff with both surrogates' heaps untouched.
        """
        old = self.surrogates[0]
        departing = list(old.heap.objects())
        outcome = MigrationOutcome()
        if departing:
            outcome = self._move(departing, old, new_surrogate, (backhaul,))
        else:
            self._open_stream()
        if self.peer_lost:
            # The opening exchange failed: the stream aborted un-applied.
            return outcome
        self.surrogates[0] = new_surrogate
        del self.links[old.name]
        self.links[new_surrogate.name] = link
        return outcome

    def return_everything(self) -> MigrationOutcome:
        """Bring every offloaded object home (platform teardown)."""
        if self.peer_lost:
            return self.repatriate_unreachable()
        return self.apply_placement(frozenset())

    def repatriate_unreachable(self) -> MigrationOutcome:
        """Rebuild every surrogate-resident object on the client.

        The surrogates are gone, so nothing travels the wire and nothing
        is charged to the link or the clock: the client *reconstructs*
        the lost state from its own bookkeeping (the reference map and
        monitored field traffic give it every object it ever saw leave),
        which the emulation models as adopting the same object records
        back into the client heap.  A pre-recovery collection runs if
        the reconstructed state would not fit as-is.
        """
        stranded = [(vm, list(vm.heap.objects())) for vm in self.surrogates]
        stranded = [(vm, objects) for vm, objects in stranded if objects]
        if not stranded:
            return MigrationOutcome()
        incoming = sum(
            obj.size_bytes for _, objects in stranded for obj in objects
        )
        if self.client.heap.free < incoming:
            self.client.collect_garbage("recovery")
        moved_objects = 0
        for vm, objects in stranded:
            for obj in objects:
                vm.evict(obj)
                self.client.adopt(obj)
            moved_objects += len(objects)
        return MigrationOutcome(
            moved_bytes=incoming,
            moved_objects=moved_objects,
            seconds=0.0,
        )
