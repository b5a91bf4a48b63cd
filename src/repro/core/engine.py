"""The offloading engine: trigger → partition → migrate.

This is the control loop of Figure 1 in the paper: the platform monitors
execution and resources; when a trigger event occurs it analyses the
collected execution graph, decides whether offloading would be
beneficial, and if so migrates the selected components to the surrogate.
Execution then continues and monitoring resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional

from ..errors import MigrationError
from ..vm.gc import GCReport
from ..vm.hooks import ExecutionListener
from .hints import ColdStartSeed
from .monitor import ExecutionMonitor
from .partitioner import (
    IncrementalPartitioner,
    PartitionDecision,
    Partitioner,
    ReevalStats,
)
from .policy import EvaluationContext, MemoryTrigger


@dataclass(frozen=True)
class OffloadEvent:
    """One completed or refused offloading attempt."""

    time: float
    decision: PartitionDecision
    migrated_bytes: int = 0
    migration_seconds: float = 0.0

    @property
    def performed(self) -> bool:
        return self.decision.beneficial


@dataclass
class MigrationOutcome:
    """What the platform reports back after applying a placement."""

    moved_bytes: int = 0
    moved_objects: int = 0
    seconds: float = 0.0


#: Callback through which the engine asks the platform to realise a
#: placement.  Receives the set of graph nodes to host on the surrogate.
MigrateFn = Callable[[FrozenSet[str]], MigrationOutcome]


class OffloadingEngine(ExecutionListener):
    """Watches GC reports on the client and orchestrates offloading."""

    def __init__(
        self,
        monitor: ExecutionMonitor,
        partitioner: Partitioner,
        trigger: MemoryTrigger,
        pinned_provider: Callable[[], List[str]],
        context_provider: Callable[[], EvaluationContext],
        migrate: MigrateFn,
        now: Callable[[], float],
        client_site: str = "client",
        single_shot: bool = True,
        reevaluate_every: Optional[float] = None,
    ) -> None:
        self.monitor = monitor
        # The ``partitioner`` setter builds the incremental session.
        self.partitioner = partitioner
        self.trigger = trigger
        self._pinned_provider = pinned_provider
        self._context_provider = context_provider
        self._migrate = migrate
        self._now = now
        self.client_site = client_site
        self.single_shot = single_shot
        #: Global-placement mode (paper section 8): once the first
        #: offload has happened, re-evaluate the partitioning every
        #: ``reevaluate_every`` seconds of virtual time.  Re-evaluation
        #: applies the *whole* placement, so classes whose coupling has
        #: shifted towards the client migrate back (reverse migration).
        self.reevaluate_every = reevaluate_every
        self._last_reevaluation = 0.0
        self.events: List[OffloadEvent] = []
        self.offload_count = 0
        self.refusal_count = 0
        self._attempting = False
        self._suspended = False

    @property
    def partitioner(self) -> Partitioner:
        return self.session.base

    @partitioner.setter
    def partitioner(self, partitioner: Partitioner) -> None:
        #: Incremental re-evaluation session: carries warm-start state,
        #: the previous candidate list, and the policy-evaluation memo
        #: across attempts, and is the one drainer of the monitor
        #: graph's dirty sets.  Replacing the partitioner starts a fresh
        #: session — stale warm state must not leak across policies.
        self.session = IncrementalPartitioner(partitioner)

    # -- cold start ------------------------------------------------------------

    def apply_cold_start(self, seed: Optional[ColdStartSeed]) -> None:
        """Install ahead-of-time placement knowledge before execution.

        The static analyzer (``repro.analysis``) predicts the
        interaction graph and placement hints without running any code;
        this folds both into the engine so the *first* partitioning
        attempt works from predicted structure instead of an empty
        graph.  Explicitly configured partitioner hints take precedence
        over the seed's — a developer's ``pin_local`` should not be
        silently replaced by inferred ones.
        """
        if seed is None or seed.empty:
            return
        if seed.profile is not None:
            self.monitor.graph.merge_profile(seed.profile)
        if seed.hints is not None and self.partitioner.hints is None:
            base = self.partitioner
            base.hints = seed.hints
            # Reassigning rebuilds the incremental session, so no warm
            # state predating the hints survives.
            self.partitioner = base

    # -- hook ------------------------------------------------------------

    def suspend(self) -> None:
        """Surrogate lost: stop proposing placements until rediscovery.

        Monitoring continues (the graph keeps growing, which is what
        makes the post-rediscovery warm start useful); only the control
        loop's trigger path is parked.
        """
        self._suspended = True

    def resume(self) -> None:
        """A (replacement) surrogate is reachable again."""
        self._suspended = False

    @property
    def suspended(self) -> bool:
        return self._suspended

    def on_gc_report(self, report: GCReport, site: str) -> None:
        if self._attempting:
            # GC cycles caused by the migration itself must not re-enter.
            return
        if self._suspended:
            # Client-only degraded mode: there is no surrogate to
            # offload to, so trigger events are observed but not acted on.
            return
        if self.offload_count > 0 and self.reevaluate_every is not None:
            # Periodic re-evaluation is clock-driven and fires off any
            # site's collection activity — after an offload, allocation
            # (and hence GC) may be happening only on the surrogate.
            if self._now() - self._last_reevaluation >= self.reevaluate_every:
                self._last_reevaluation = self._now()
                self.attempt(revert_on_refusal=True)
            return
        if site != self.client_site:
            return
        if self.single_shot and self.offload_count > 0:
            return
        if self.trigger.observe(report):
            if self.offload_count == 0:
                self._last_reevaluation = self._now()
            self.attempt()

    # -- the control loop body ------------------------------------------------

    def attempt(self, revert_on_refusal: bool = False) -> OffloadEvent:
        """Run one partitioning attempt and apply it if beneficial.

        In global-placement mode (``revert_on_refusal``), a refusal
        means "no partitioning is currently beneficial" — so the engine
        reverts to the all-local placement, pulling offloaded objects
        back to the client when they fit (the paper's section 8
        "moving objects from the surrogate to the client device").
        """
        self._attempting = True
        try:
            decision = self.session.partition(
                self.monitor.graph,
                self._pinned_provider(),
                self._context_provider(),
            )
            migrated_bytes = 0
            migration_seconds = 0.0
            if decision.beneficial:
                outcome = self._migrate(decision.offload_nodes)
                migrated_bytes = outcome.moved_bytes
                migration_seconds = outcome.seconds
                self.offload_count += 1
            else:
                self.refusal_count += 1
                self.trigger.reset()
                if revert_on_refusal:
                    try:
                        outcome = self._migrate(frozenset())
                    except MigrationError:
                        # The client cannot host the state right now;
                        # keep the current placement and try again at
                        # the next re-evaluation.
                        outcome = MigrationOutcome()
                    migrated_bytes = outcome.moved_bytes
                    migration_seconds = outcome.seconds
            event = OffloadEvent(
                time=self._now(),
                decision=decision,
                migrated_bytes=migrated_bytes,
                migration_seconds=migration_seconds,
            )
            self.events.append(event)
            return event
        finally:
            self._attempting = False

    # -- reporting ------------------------------------------------------------

    @property
    def reeval_stats(self) -> ReevalStats:
        """Epoch counters for the incremental re-evaluation session."""
        return self.session.stats

    @property
    def last_event(self) -> Optional[OffloadEvent]:
        return self.events[-1] if self.events else None

    @property
    def performed_events(self) -> List[OffloadEvent]:
        return [e for e in self.events if e.performed]
