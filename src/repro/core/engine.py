"""The offloading engine: trigger → partition → migrate.

This is the control loop of Figure 1 in the paper: the platform monitors
execution and resources; when a trigger event occurs it analyses the
collected execution graph, decides whether offloading would be
beneficial, and if so migrates the selected components to the surrogate.
Execution then continues and monitoring resumes.

The prototype (:class:`~repro.platform.platform.DistributedPlatform`)
and the emulator (:class:`~repro.emulator.replay.TraceReplayer`) run
this one loop.  Each passes itself in as the *host* and supplies the
mechanics through duck-typed ports:

* ``graph``: the execution graph as of now;
* ``pinned_nodes()``: graph nodes that must stay on the client;
* ``evaluation_context()``: devices, link and history for the policy;
* ``now()``: the host's virtual clock;
* ``migrate(nodes) -> (bytes, objects)``: make ``nodes`` the offloaded
  set and report what moved; raises
  :class:`~repro.errors.MigrationError` when infeasible;
* ``surrogate_lost``: degraded mode, with no surrogate to offload to;
  :meth:`OffloadingEngine.attempt` does nothing while it holds.

The gating is two calls: :meth:`OffloadingEngine.observe` feeds a GC
report to the memory trigger, and
:meth:`OffloadingEngine.reevaluation_due` reads the re-evaluation
clock.  The prototype's collector hook calls both; the replayer calls
the first from its emulated collector and the second after an event.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, List, Optional

from ..errors import MigrationError
from ..vm.gc import GCReport
from ..vm.hooks import ExecutionListener
from .hints import ColdStartSeed
from .partitioner import (
    IncrementalPartitioner,
    PartitionDecision,
    Partitioner,
    ReevalStats,
)
from .policy import MemoryTrigger


@dataclass(frozen=True)
class OffloadEvent:
    """One completed or refused offloading attempt, stamped with the
    time of its decision."""

    time: float
    decision: PartitionDecision
    migrated_bytes: int = 0
    migrated_objects: int = 0

    @property
    def performed(self) -> bool:
        return self.decision.beneficial


@dataclass
class MigrationOutcome:
    """What the platform's migrator reports after applying a placement."""

    moved_bytes: int = 0
    moved_objects: int = 0
    seconds: float = 0.0


class OffloadingEngine(ExecutionListener):
    """Gates and runs offloading attempts for one host."""

    def __init__(
        self,
        host: Any,
        partitioner: Partitioner,
        trigger: MemoryTrigger,
        client_site: str = "client",
        single_shot: bool = True,
        reevaluate_every: Optional[float] = None,
    ) -> None:
        # Weak: the host owns the engine (see ControlPlane).
        self.host = weakref.proxy(host)
        # The ``partitioner`` setter builds the incremental session.
        self.partitioner = partitioner
        self.trigger = trigger
        self.client_site = client_site
        self.single_shot = single_shot
        #: Global-placement mode (paper section 8): once the first
        #: offload has happened, re-evaluate the partitioning every
        #: ``reevaluate_every`` seconds of virtual time.  Re-evaluation
        #: applies the *whole* placement, so classes whose coupling has
        #: shifted towards the client migrate back (reverse migration).
        self.reevaluate_every = reevaluate_every
        self.last_reevaluation = 0.0
        self.events: List[OffloadEvent] = []
        self.offload_count = 0
        self.refusal_count = 0
        self._attempting = False

    @property
    def partitioner(self) -> Partitioner:
        return self.session.base

    @partitioner.setter
    def partitioner(self, partitioner: Partitioner) -> None:
        #: Incremental re-evaluation session: carries warm-start state,
        #: the previous candidate list, and the last attempt's context key
        #: across attempts, and is the one drainer of the host graph's
        #: dirty sets.  Replacing the partitioner starts a fresh
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
            self.host.graph.merge_profile(seed.profile)
        if seed.hints is not None and self.partitioner.hints is None:
            base = self.partitioner
            base.hints = seed.hints
            # Reassigning rebuilds the incremental session, so no warm
            # state predating the hints survives.
            self.partitioner = base

    # -- gating ------------------------------------------------------------

    def observe(self, report: GCReport) -> bool:
        """Feed one client GC report; ``True`` when an attempt is due.

        After the first offload the memory trigger stays out: a
        single-shot engine is done, and in global-placement mode the
        clock (:meth:`reevaluation_due`) owns every later attempt.
        """
        if self.offload_count > 0 and (
                self.single_shot or self.reevaluate_every is not None):
            return False
        if not self.trigger.observe(report):
            return False
        self.last_reevaluation = self.host.now()
        return True

    def reevaluation_due(self) -> bool:
        """``True`` when a global-placement re-evaluation is due; the
        clock restarts from now."""
        if self.offload_count == 0 or self.reevaluate_every is None:
            return False
        now = self.host.now()
        if now - self.last_reevaluation < self.reevaluate_every:
            return False
        self.last_reevaluation = now
        return True

    def on_gc_report(self, report: GCReport, site: str) -> None:
        if self._attempting:
            # GC cycles caused by the migration itself must not
            # re-enter.
            return
        if site == self.client_site and self.observe(report):
            self.attempt()
        elif self.reevaluation_due():
            # The clock fires off any site's collection activity: after
            # an offload, allocation (and hence GC) may be happening
            # only on the surrogate.
            self.attempt(revert_on_refusal=True)

    # -- the control loop body ------------------------------------------------

    def attempt(self, revert_on_refusal: bool = False) -> Optional[OffloadEvent]:
        """Run one partitioning attempt and apply it if beneficial.

        In global-placement mode (``revert_on_refusal``), a refusal
        means "no partitioning is currently beneficial" — so the engine
        reverts to the all-local placement, pulling offloaded objects
        back to the client when they fit (the paper's section 8
        "moving objects from the surrogate to the client device").

        Returns ``None`` in client-only degraded mode, where there is no
        surrogate to offload to, and when the placement died on its
        opening exchange: nothing moved, so no offload happened.
        """
        if self.host.surrogate_lost:
            return None
        self._attempting = True
        try:
            host = self.host
            decision = self.session.partition(
                host.graph, host.pinned_nodes(), host.evaluation_context()
            )
            now = host.now()
            moved = (0, 0)
            if decision.beneficial:
                moved = host.migrate(decision.offload_nodes)
                if host.surrogate_lost and moved[1] == 0:
                    return None
            else:
                self.trigger.reset()
                if revert_on_refusal:
                    try:
                        moved = host.migrate(frozenset())
                    except MigrationError:
                        # The client cannot host the state right now;
                        # keep the current placement and try again at
                        # the next re-evaluation.
                        pass
            return self.record(OffloadEvent(now, decision, *moved))
        finally:
            self._attempting = False

    def record(self, event: OffloadEvent) -> OffloadEvent:
        """Log one attempt and count it as an offload or a refusal."""
        self.events.append(event)
        if event.performed:
            self.offload_count += 1
        else:
            self.refusal_count += 1
        return event

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
