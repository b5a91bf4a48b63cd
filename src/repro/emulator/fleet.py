"""Fleet emulator: N recorded clients sharing a pool of M surrogates.

Everything else in the emulator is one client with its private
surrogate(s); the paper's "millions of users" story is the inverse — a
small surrogate pool serving hundreds-to-thousands of concurrent
clients.  :class:`FleetEmulator` models exactly that on top of the
sharded replay core:

1. **Drive side** — every client's recorded trace replays through
   :class:`~repro.emulator.parallel.ShardedReplayer` (identical shards
   from :func:`~repro.emulator.parallel.replicate` deduplicate into one
   representative replay, the PR-6 determinism guarantee makes that
   exact).  The replay yields each client's *demand profile*: total
   virtual service time, offloaded-partition footprint, and re-offload
   cost.
2. **Placement** — clients spread across the pool by predicted traffic
   (:func:`place_fleet_clients`), preferring an
   AIDE-Lint cold-start estimate where the config carries one.
3. **Serving side** — a deterministic virtual-time simulation runs the
   fleet: per-surrogate **admission control** (a concurrent-client cap
   with queue-or-reject policy and admission-latency accounting),
   **deficit-round-robin fairness** between admitted clients (the same
   discipline :class:`~repro.rpc.channel.WorkerPool` applies to single
   RPCs, applied here to whole sessions and computed in the fluid
   limit: always-backlogged DRR with equal quanta is processor
   sharing, so completions are solved analytically per epoch between
   membership changes instead of stepping millions of 1.2 ms rounds),
   **heap-pressure eviction** (when resident partitions cross the
   watermark the coldest *idle* partitions repatriate — zero wire
   charge, like surrogate-loss recovery — and pay their re-offload on
   the next touch), and a **rebalance trigger** that moves queued
   clients off a persistently overloaded member.

The simulation is single-threaded and entirely virtual-time, so the
fleet fingerprint is invariant under the drive side's worker count —
the same merge discipline the sharded replayer enforces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from collections import deque
from pathlib import Path
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..rpc.channel import QUEUE_SERVICE_SECONDS
from ..units import MB
from .parallel import ClientReplay, ReplayShard, ShardedReplayer

ADMISSION_QUEUE = "queue"
ADMISSION_REJECT = "reject"


def place_fleet_clients(
    predicted_load: Dict[str, float],
    surrogates: List[str],
    capacities: Optional[Dict[str, int]] = None,
) -> Dict[str, str]:
    """Balance whole *clients* across a surrogate pool.

    The fleet-scale sibling of
    :func:`~repro.platform.migration.assign_offload_nodes`: where that
    assigner spreads one client's graph nodes k-ways by cohesion, this
    one spreads N independent clients by **predicted traffic** (an
    AIDE-Lint cold-start estimate where available, the trace's event
    count otherwise).  Clients are placed heaviest-first onto the
    currently least-loaded surrogate — the classic LPT balance rule —
    with ties broken by pool order, so placement is deterministic for a
    given load map.

    ``capacities`` (optional, clients per surrogate) bounds how many
    clients a member may receive; when every surrogate is full the
    remaining clients overflow to the least-loaded member anyway (the
    fleet's *admission control* decides queue-or-reject, placement only
    picks the target).

    Returns ``{client_id: surrogate_name}``.
    """
    if not surrogates:
        raise ConfigurationError("fleet placement needs at least one "
                                 "surrogate")
    load: Dict[str, float] = {name: 0.0 for name in surrogates}
    count: Dict[str, int] = {name: 0 for name in surrogates}
    rank = {name: index for index, name in enumerate(surrogates)}
    placed: Dict[str, str] = {}
    order = sorted(predicted_load,
                   key=lambda cid: (-predicted_load[cid], cid))
    for client_id in order:
        candidates = surrogates
        if capacities is not None:
            open_members = [
                name for name in surrogates
                if count[name] < capacities.get(name, 0)
            ]
            if open_members:
                candidates = open_members
        best = min(candidates, key=lambda name: (load[name], rank[name]))
        placed[client_id] = best
        load[best] += predicted_load[client_id]
        count[best] += 1
    return placed


@dataclass(frozen=True)
class FleetConfig:
    """Everything the serving-side simulation is parameterised by."""

    #: Pool size (M).
    surrogates: int = 4
    #: Max clients concurrently *in service* per surrogate.  ``0`` is
    #: the degenerate pool: with the queue policy every client is
    #: admitted alone (strictly serial service), with the reject policy
    #: every client is refused.
    admission_cap: int = 8
    #: What happens to a client that arrives at a full surrogate:
    #: ``"queue"`` parks it (admission latency accrues), ``"reject"``
    #: refuses it deterministically.
    admission_policy: str = ADMISSION_QUEUE
    #: Service granularity of the DRR scheduler — one quantum of one
    #: surrogate CPU.  Demand rounds up to whole quanta and fairness
    #: counters are kept in quanta.  Defaults to the RPC worker pool's
    #: 1.2 ms service estimate; lower it to model faster surrogate
    #: CPUs, raise it for slower ones.
    service_quantum_s: float = QUEUE_SERVICE_SECONDS
    #: Demand-seconds one surrogate serves per virtual second, shared
    #: equally (DRR) across its admitted clients.
    surrogate_speed: float = 1.0
    #: Shared heap per surrogate, holding every resident client
    #: partition.
    heap_capacity: int = 64 * MB
    #: Fraction of ``heap_capacity`` above which admission evicts the
    #: coldest idle partitions (LRU by last-interaction virtual time).
    eviction_watermark: float = 0.85
    #: Interaction bursts per client session.  Between bursts a client
    #: idles with its partition resident — the state eviction preys on.
    bursts_per_client: int = 1
    #: Idle gap between one client's bursts.
    think_time_s: float = 0.0
    #: Queue-depth spread (max - min across the pool) that counts as
    #: imbalance.
    rebalance_threshold: int = 4
    #: Consecutive imbalanced observations (taken at completion events)
    #: before queued clients move to the shallowest queue.
    rebalance_patience: int = 3

    def __post_init__(self) -> None:
        if self.surrogates < 1:
            raise ConfigurationError("a fleet needs at least one surrogate")
        if self.admission_cap < 0:
            raise ConfigurationError("admission_cap must be >= 0")
        if self.admission_policy not in (ADMISSION_QUEUE, ADMISSION_REJECT):
            raise ConfigurationError(
                f"unknown admission policy {self.admission_policy!r}"
            )
        if self.service_quantum_s <= 0.0:
            raise ConfigurationError("service_quantum_s must be positive")
        if self.surrogate_speed <= 0.0:
            raise ConfigurationError("surrogate_speed must be positive")
        if not 0.0 < self.eviction_watermark <= 1.0:
            raise ConfigurationError(
                "eviction_watermark must be in (0, 1]"
            )
        if self.bursts_per_client < 1:
            raise ConfigurationError("bursts_per_client must be >= 1")
        if self.think_time_s < 0.0:
            raise ConfigurationError("think_time_s must be >= 0")


@dataclass(frozen=True)
class ClientDemand:
    """One client's serving-side profile, derived from its replay."""

    client_id: str
    events: int
    #: Standalone virtual completion time — the service the fleet owes.
    service_s: float
    #: Offloaded-partition footprint on the shared surrogate heap.
    partition_bytes: int
    #: Cost of re-offloading an evicted partition on the next touch.
    reoffload_s: float
    #: Placement weight (cold-start predicted traffic, else events).
    predicted_load: float
    #: SHA-256 of the client's replay fingerprint (determinism anchor).
    replay_sha: str


@dataclass
class ClientOutcome:
    """How one client's session went through the shared fleet."""

    client_id: str
    surrogate: str
    events: int
    demand_s: float
    completed: bool = False
    rejected: bool = False
    reject_reason: str = ""
    #: Total virtual time spent waiting for admission (all bursts).
    admission_wait_s: float = 0.0
    #: Virtual completion time of the whole session (NaN if rejected).
    completion_s: float = math.nan
    evictions: int = 0
    readmissions: int = 0
    quanta_served: int = 0
    replay_sha: str = ""


@dataclass
class SurrogateStats:
    """Per-pool-member counters out of the simulation."""

    name: str
    clients_placed: int = 0
    admissions: int = 0
    completions: int = 0
    rejections: int = 0
    evictions: int = 0
    peak_active: int = 0
    peak_queue: int = 0
    peak_resident_bytes: int = 0
    watermark_breaches: int = 0
    quanta_served: int = 0


@dataclass
class FleetResult:
    """Deterministic outcome of one fleet run."""

    config: FleetConfig
    outcomes: List[ClientOutcome] = field(default_factory=list)
    surrogates: List[SurrogateStats] = field(default_factory=list)
    rebalances: int = 0
    #: Virtual time when the last admitted client completed.
    makespan_s: float = 0.0
    #: Host seconds the whole run took (drive replay + simulation).
    wall_time_s: float = 0.0
    #: Events actually replayed on the host (after deduplication).
    replayed_events: int = 0
    #: Distinct demand profiles the drive side replayed.
    distinct_profiles: int = 0
    workers: int = 1
    warnings: List[str] = field(default_factory=list)

    @property
    def emulated_events(self) -> int:
        return sum(o.events for o in self.outcomes)

    @property
    def completed_clients(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def rejected_clients(self) -> int:
        return sum(1 for o in self.outcomes if o.rejected)

    @property
    def total_evictions(self) -> int:
        return sum(o.evictions for o in self.outcomes)

    @property
    def events_per_second(self) -> float:
        """Host-side aggregate throughput of the emulation."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.emulated_events / self.wall_time_s

    def completion_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of admitted clients' completions."""
        times = sorted(o.completion_s for o in self.outcomes
                       if o.completed)
        if not times:
            return math.nan
        rank = max(1, math.ceil(fraction * len(times)))
        return times[rank - 1]

    @property
    def p50_completion_s(self) -> float:
        return self.completion_percentile(0.50)

    @property
    def p99_completion_s(self) -> float:
        return self.completion_percentile(0.99)

    @property
    def fairness_ratio(self) -> float:
        """p99/p50 completion — the tail-fairness gate's metric."""
        p50 = self.p50_completion_s
        p99 = self.p99_completion_s
        if math.isnan(p50) or p50 <= 0.0:
            return math.nan
        return p99 / p50

    @property
    def mean_admission_wait_s(self) -> float:
        admitted = [o for o in self.outcomes if not o.rejected]
        if not admitted:
            return 0.0
        return sum(o.admission_wait_s for o in admitted) / len(admitted)

    def fingerprint(self) -> str:
        """SHA-256 over the ordered per-client outcomes.

        Only virtual-time quantities enter the digest, so it is
        invariant under the drive side's worker count and the host's
        load — the fleet sibling of the sharded replayer's aggregate
        fingerprint.
        """
        digest = hashlib.sha256()
        for o in self.outcomes:
            digest.update(
                f"{o.client_id}|{o.surrogate}|{int(o.completed)}|"
                f"{int(o.rejected)}|{o.reject_reason}|"
                f"{o.completion_s!r}|{o.admission_wait_s!r}|"
                f"{o.evictions}|{o.readmissions}|{o.quanta_served}|"
                f"{o.replay_sha}\n".encode("utf-8")
            )
        return digest.hexdigest()


# -- serving-side simulation ------------------------------------------------


class _Session:
    """Mutable per-client simulation state."""

    __slots__ = (
        "demand", "outcome", "surrogate", "bursts_left", "burst_quanta",
        "remaining_s", "state", "enqueued_at", "vfinish", "resident",
        "evicted", "last_touch",
    )

    def __init__(self, demand: ClientDemand, outcome: ClientOutcome,
                 surrogate: "_Member", bursts: int,
                 quantum: float) -> None:
        self.demand = demand
        self.outcome = outcome
        self.surrogate = surrogate
        self.bursts_left = bursts
        per_burst = demand.service_s / bursts
        self.burst_quanta = max(1, math.ceil(per_burst / quantum))
        self.remaining_s = 0.0
        self.state = "pending"
        self.enqueued_at = 0.0
        self.vfinish = 0.0
        self.resident = False
        self.evicted = False
        self.last_touch = 0.0


class _Member:
    """One pool member: GPS service, admission queue, resident heap."""

    __slots__ = (
        "name", "index", "cap", "stats", "active", "queue",
        "resident_bytes", "vservice", "last_t", "speed",
    )

    def __init__(self, name: str, index: int, cap: int,
                 speed: float) -> None:
        self.name = name
        self.index = index
        self.cap = cap
        self.speed = speed
        self.stats = SurrogateStats(name=name)
        self.active: Dict[str, _Session] = {}
        self.queue: deque = deque()
        self.resident_bytes = 0
        self.vservice = 0.0
        self.last_t = 0.0

    def advance(self, t: float) -> None:
        """Accrue shared service up to virtual time ``t``."""
        if self.active and t > self.last_t:
            self.vservice += (
                (t - self.last_t) * self.speed / len(self.active)
            )
        self.last_t = t

    def next_completion(self) -> Tuple[float, Optional[str]]:
        if not self.active:
            return math.inf, None
        cid, session = min(
            self.active.items(), key=lambda item: (item[1].vfinish, item[0])
        )
        owed = max(0.0, session.vfinish - self.vservice)
        return self.last_t + owed * len(self.active) / self.speed, cid


class _FleetSimulation:
    """Deterministic virtual-time run of the shared pool."""

    def __init__(self, demands: List[ClientDemand],
                 placement: Dict[str, str],
                 config: FleetConfig) -> None:
        self.config = config
        names = [f"surrogate-{i:02d}" for i in range(config.surrogates)]
        self.members = [
            _Member(
                name, index,
                cap=(max(1, config.admission_cap)
                     if config.admission_policy == ADMISSION_QUEUE
                     else config.admission_cap),
                speed=config.surrogate_speed,
            )
            for index, name in enumerate(names)
        ]
        by_name = {member.name: member for member in self.members}
        self.sessions: Dict[str, _Session] = {}
        self.outcomes: List[ClientOutcome] = []
        for demand in sorted(demands, key=lambda d: d.client_id):
            member = by_name[placement[demand.client_id]]
            outcome = ClientOutcome(
                client_id=demand.client_id, surrogate=member.name,
                events=demand.events, demand_s=demand.service_s,
                replay_sha=demand.replay_sha,
            )
            self.sessions[demand.client_id] = _Session(
                demand, outcome, member, config.bursts_per_client,
                config.service_quantum_s,
            )
            member.stats.clients_placed += 1
            self.outcomes.append(outcome)
        #: Pending wake events: (time, sequence, client_id).  The
        #: sequence breaks ties deterministically (insertion order).
        self._wakes: List[Tuple[float, int, str]] = []
        self._wake_seq = 0
        self.rebalances = 0
        self._imbalance_streak = 0
        self.makespan_s = 0.0

    # -- event plumbing ---------------------------------------------------

    def _schedule_wake(self, t: float, client_id: str) -> None:
        heapq.heappush(self._wakes, (t, self._wake_seq, client_id))
        self._wake_seq += 1

    def run(self) -> None:
        for cid in sorted(self.sessions):
            self._schedule_wake(0.0, cid)
        while True:
            wake_t = self._wakes[0][0] if self._wakes else math.inf
            done_t = math.inf
            done_member: Optional[_Member] = None
            for member in self.members:
                t, cid = member.next_completion()
                if t < done_t:
                    done_t, done_member = t, member
            if done_t is math.inf and wake_t is math.inf:
                break
            # Completions run first at equal times: a freed slot must
            # be visible to an admission decision at the same instant.
            if done_t <= wake_t:
                self._complete_one(done_member, done_t)
                self._maybe_rebalance(done_t)
            else:
                t, _, cid = heapq.heappop(self._wakes)
                self._arrive(self.sessions[cid], t)

    # -- admission, service, eviction -------------------------------------

    def _arrive(self, session: _Session, t: float) -> None:
        """One burst arrival (first touch, think-over, or re-touch)."""
        member = session.surrogate
        if len(member.active) < member.cap:
            self._admit(session, t)
            return
        if self.config.admission_policy == ADMISSION_REJECT:
            outcome = session.outcome
            outcome.rejected = True
            outcome.reject_reason = (
                f"{member.name} at capacity {self.config.admission_cap}"
            )
            member.stats.rejections += 1
            session.state = "rejected"
            self._release_partition(session)
            return
        session.state = "queued"
        session.enqueued_at = t
        member.queue.append(session.demand.client_id)
        if len(member.queue) > member.stats.peak_queue:
            member.stats.peak_queue = len(member.queue)

    def _admit(self, session: _Session, t: float) -> None:
        member = session.surrogate
        member.advance(t)
        demand_quanta = session.burst_quanta
        if session.evicted:
            # The partition was repatriated under heap pressure: the
            # next touch re-offloads it before any service happens.
            demand_quanta += max(
                1, math.ceil(session.demand.reoffload_s
                             / self.config.service_quantum_s)
            ) if session.demand.reoffload_s > 0.0 else 0
            session.outcome.readmissions += 1
            session.evicted = False
        if not session.resident:
            self._make_room(member, session)
            session.resident = True
            member.resident_bytes += session.demand.partition_bytes
            if member.resident_bytes > member.stats.peak_resident_bytes:
                member.stats.peak_resident_bytes = member.resident_bytes
        if session.state == "queued":
            session.outcome.admission_wait_s += t - session.enqueued_at
        session.state = "active"
        session.remaining_s = (
            demand_quanta * self.config.service_quantum_s
        )
        session.outcome.quanta_served += demand_quanta
        member.stats.quanta_served += demand_quanta
        session.vfinish = member.vservice + session.remaining_s
        session.last_touch = t
        member.active[session.demand.client_id] = session
        member.stats.admissions += 1
        if len(member.active) > member.stats.peak_active:
            member.stats.peak_active = len(member.active)

    def _make_room(self, member: _Member, incoming: _Session) -> None:
        """Evict coldest idle partitions until the watermark holds."""
        limit = (self.config.eviction_watermark
                 * self.config.heap_capacity)
        needed = member.resident_bytes + incoming.demand.partition_bytes
        if needed <= limit:
            return
        idle = sorted(
            (
                s for s in self.sessions.values()
                if s.surrogate is member and s.resident
                and s.state in ("idle", "queued")
            ),
            key=lambda s: (s.last_touch, s.demand.client_id),
        )
        for victim in idle:
            if needed <= limit:
                break
            # Zero-wire repatriation (the surrogate-loss recovery
            # path): dropping a cold partition costs nothing now; the
            # owner pays the re-offload on its next touch.
            victim.resident = False
            victim.evicted = True
            victim.outcome.evictions += 1
            member.resident_bytes -= victim.demand.partition_bytes
            member.stats.evictions += 1
            needed -= victim.demand.partition_bytes
        if needed > limit:
            member.stats.watermark_breaches += 1

    def _release_partition(self, session: _Session) -> None:
        if session.resident:
            session.surrogate.resident_bytes -= (
                session.demand.partition_bytes
            )
            session.resident = False

    def _complete_one(self, member: _Member, t: float) -> None:
        member.advance(t)
        cid, session = min(
            member.active.items(),
            key=lambda item: (item[1].vfinish, item[0]),
        )
        del member.active[cid]
        session.last_touch = t
        session.bursts_left -= 1
        if session.bursts_left <= 0:
            session.state = "done"
            session.outcome.completed = True
            session.outcome.completion_s = t
            member.stats.completions += 1
            self._release_partition(session)
            if t > self.makespan_s:
                self.makespan_s = t
        else:
            session.state = "idle"
            self._schedule_wake(t + self.config.think_time_s, cid)
        self._drain_queue(member, t)

    def _drain_queue(self, member: _Member, t: float) -> None:
        while member.queue and len(member.active) < member.cap:
            cid = member.queue.popleft()
            session = self.sessions[cid]
            self._admit(session, t)

    # -- rebalancing -------------------------------------------------------

    def _maybe_rebalance(self, t: float) -> None:
        if len(self.members) < 2:
            return
        depths = [len(member.queue) for member in self.members]
        spread = max(depths) - min(depths)
        if spread < self.config.rebalance_threshold:
            self._imbalance_streak = 0
            return
        self._imbalance_streak += 1
        if self._imbalance_streak < self.config.rebalance_patience:
            return
        self._imbalance_streak = 0
        longest = max(self.members,
                      key=lambda m: (len(m.queue), -m.index))
        shortest = min(self.members,
                       key=lambda m: (len(m.queue), m.index))
        to_move = spread // 2
        moved = 0
        # Pull movable clients (no partition resident on the loaded
        # member) off the tail — the youngest arrivals lose the least
        # accumulated queue position.
        kept: deque = deque()
        while longest.queue and moved < to_move:
            cid = longest.queue.pop()
            session = self.sessions[cid]
            if session.resident:
                kept.appendleft(cid)
                continue
            session.surrogate = shortest
            session.outcome.surrogate = shortest.name
            longest.stats.clients_placed -= 1
            shortest.stats.clients_placed += 1
            shortest.queue.append(cid)
            if len(shortest.queue) > shortest.stats.peak_queue:
                shortest.stats.peak_queue = len(shortest.queue)
            moved += 1
        longest.queue.extend(kept)
        if moved:
            self.rebalances += 1
            self._drain_queue(shortest, t)


# -- the emulator ------------------------------------------------------------


class FleetEmulator:
    """Replays N client shards against a shared M-surrogate pool.

    ``workers`` parallelises the drive-side replays (clamped like
    :class:`~repro.emulator.parallel.ShardedReplayer`); the serving
    simulation itself is single-threaded virtual time, so
    :meth:`run`'s fingerprint never depends on it.  ``dedupe`` (on by
    default) replays only one representative per identical
    ``(trace, config)`` shard group — exact because equal shards
    produce bit-identical replay fingerprints.
    """

    def __init__(self, shards: Sequence[ReplayShard],
                 config: Optional[FleetConfig] = None,
                 workers: Optional[int] = None,
                 dedupe: bool = True) -> None:
        if not shards:
            raise ConfigurationError("a fleet needs at least one client")
        self.shards = list(shards)
        self.config = config if config is not None else FleetConfig()
        self.workers = workers
        self.dedupe = dedupe

    # -- demand extraction -------------------------------------------------

    @staticmethod
    def _profile_key(shard: ReplayShard):
        trace = shard.trace
        trace_key = (str(trace) if isinstance(trace, (str, Path))
                     else id(trace))
        return (trace_key, id(shard.config))

    @staticmethod
    def _predicted_load(shard: ReplayShard, events: int) -> float:
        seed = shard.config.cold_start
        if seed is not None:
            # The dataflow pass's boundary estimate is the sharpest
            # signal: it already excludes intra-side chatter that never
            # costs wire traffic, so prefer it over the whole-profile
            # byte total.
            cross = seed.predicted_cross_traffic
            if cross is not None and cross > 0:
                return float(cross)
            if seed.profile is not None:
                total = sum(
                    edge.bytes for _, edge in seed.profile.edges()
                )
                if total > 0:
                    return float(total)
        return float(events)

    @staticmethod
    def _demand_from(shard: ReplayShard, replay: ClientReplay,
                     predicted: float) -> ClientDemand:
        result = replay.result
        return ClientDemand(
            client_id=shard.client_id,
            events=replay.events,
            service_s=result.total_time,
            partition_bytes=result.migration_bytes,
            reoffload_s=result.migration_time,
            predicted_load=predicted,
            replay_sha=hashlib.sha256(
                result.fingerprint().encode("utf-8")
            ).hexdigest(),
        )

    def _replay_demands(self):
        groups: Dict[object, List[ReplayShard]] = {}
        if self.dedupe:
            for shard in self.shards:
                groups.setdefault(self._profile_key(shard), []).append(shard)
        else:
            for index, shard in enumerate(self.shards):
                groups[index] = [shard]
        representatives = [members[0] for members in groups.values()]
        aggregate = ShardedReplayer(representatives,
                                    workers=self.workers).run()
        by_id = {c.client_id: c for c in aggregate.clients}
        demands: List[ClientDemand] = []
        for members in groups.values():
            replay = by_id[members[0].client_id]
            predicted = self._predicted_load(members[0], replay.events)
            for shard in members:
                demands.append(self._demand_from(shard, replay, predicted))
        warnings = list(aggregate.warnings)
        if len(representatives) < len(self.shards):
            warnings.append(
                f"deduplicated {len(self.shards)} client replays into "
                f"{len(representatives)} distinct demand profile(s)"
            )
        return (demands, aggregate.total_events, aggregate.workers,
                warnings)

    # -- running -----------------------------------------------------------

    def run(self) -> FleetResult:
        # Host wall time is the measurand here (events/s reporting);
        # it never feeds the fleet fingerprint.
        started = time.perf_counter()  # detlint: allow
        demands, replayed, workers, warnings = self._replay_demands()
        placement = place_fleet_clients(
            {d.client_id: d.predicted_load for d in demands},
            [f"surrogate-{i:02d}" for i in range(self.config.surrogates)],
        )
        simulation = _FleetSimulation(demands, placement, self.config)
        simulation.run()
        wall = time.perf_counter() - started  # detlint: allow
        return FleetResult(
            config=self.config,
            outcomes=simulation.outcomes,
            surrogates=[m.stats for m in simulation.members],
            rebalances=simulation.rebalances,
            makespan_s=simulation.makespan_s,
            wall_time_s=wall,
            replayed_events=replayed,
            distinct_profiles=len({d.replay_sha for d in demands}),
            workers=workers,
            warnings=warnings,
        )
