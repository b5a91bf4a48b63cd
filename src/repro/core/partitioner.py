"""The partitioning module: candidates + policy = decision.

Ties the modified MINCUT candidate generator (the flat CSR kernel in
:mod:`repro.core.flatgraph`) to a partitioning policy and wraps the
outcome in a :class:`PartitionDecision`, including the wall-clock cost
of computing it (the paper reports ~0.1 s on a 600 MHz Pentium for
JavaNote's 134-class graph).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from ..errors import NoBeneficialPartitionError
from . import flatgraph
from .graph import ExecutionGraph, GraphDelta
from .hints import contract_graph, expand_nodes
from .policy import (
    EvaluationContext,
    PartitionPolicy,
    PolicyDecision,
    context_key,
)


@dataclass(frozen=True)
class PartitionDecision:
    """The outcome of one partitioning attempt.

    ``beneficial`` is False when the policy refused every candidate (the
    platform then continues running locally — the paper's Biomer case).
    ``warm_start`` records whether an incremental session served this
    attempt from its warm-started candidate generator;
    ``policy_cache_hit`` whether it was a reuse epoch under the previous
    epoch's :func:`~repro.core.policy.context_key`, so that the policy's
    selection repeats the previous one.
    """

    beneficial: bool
    offload_nodes: FrozenSet[str]
    client_nodes: FrozenSet[str]
    cut_bytes: int
    cut_count: int
    freed_bytes: int
    predicted_bandwidth: float
    candidates_evaluated: int
    compute_seconds: float
    policy_name: str
    predicted_time: Optional[float] = None
    original_time: Optional[float] = None
    refusal_reason: Optional[str] = None
    warm_start: bool = False
    policy_cache_hit: bool = False

    @classmethod
    def refusal(
        cls, reason: str, candidates_evaluated: int, compute_seconds: float,
        policy_name: str,
    ) -> "PartitionDecision":
        return cls(
            beneficial=False,
            offload_nodes=frozenset(),
            client_nodes=frozenset(),
            cut_bytes=0,
            cut_count=0,
            freed_bytes=0,
            predicted_bandwidth=0.0,
            candidates_evaluated=candidates_evaluated,
            compute_seconds=compute_seconds,
            policy_name=policy_name,
            refusal_reason=reason,
        )


class Partitioner:
    """Runs the heuristic and evaluates the candidates under a policy.

    Optional :class:`~repro.core.hints.PlacementHints` are honoured by
    extending the pinned set (``pin_local``) and by contracting each
    ``keep_together`` group into one supernode before candidate
    generation, so no candidate can split a semantic component.
    """

    def __init__(self, policy: PartitionPolicy, hints=None) -> None:
        self.policy = policy
        self.hints = hints

    def _prepare(
        self, graph: ExecutionGraph, pinned: List[str]
    ) -> Tuple[ExecutionGraph, List[str], Dict[str, FrozenSet[str]]]:
        """Apply hints: extend the pinned set, contract hint groups."""
        expansion: Dict[str, FrozenSet[str]] = {}
        if self.hints is not None:
            pinned = pinned + list(self.hints.pin_local)
            if self.hints.has_groups:
                graph, expansion = contract_graph(
                    graph, self.hints.keep_together
                )
                # A group containing a pinned member is pinned whole.
                pinned = [
                    next((supernode
                          for supernode, members in expansion.items()
                          if node in members), node)
                    for node in pinned
                ]
        return graph, pinned, expansion

    def partition(
        self,
        graph: ExecutionGraph,
        pinned: Iterable[str],
        ctx: EvaluationContext,
    ) -> PartitionDecision:
        """Attempt a partitioning; never raises on policy refusal."""
        started = time.perf_counter()  # detlint: allow - reported compute cost
        graph, pinned, expansion = self._prepare(graph, list(pinned))
        chain = flatgraph.snapshot(graph).generate_chain(pinned)
        return self._decide(self._evaluate(chain, ctx), chain.k, expansion,
                            started)

    def _evaluate(
        self, chain: flatgraph.FlatChain, ctx: EvaluationContext
    ) -> Union[PolicyDecision, str]:
        """The policy's decision on ``chain``, or its refusal reason."""
        try:
            return self.policy.evaluate_chain(chain, ctx)
        except NoBeneficialPartitionError as refusal:
            return str(refusal)

    def _decide(
        self,
        outcome: Union[PolicyDecision, str],
        candidates_evaluated: int,
        expansion: Dict[str, FrozenSet[str]],
        started: float,
    ) -> PartitionDecision:
        """The one step from a policy outcome to a :class:`PartitionDecision`.

        ``outcome`` is the policy's decision, or its refusal reason; an
        accepted placement is expanded back from any hint supernodes.
        """
        if isinstance(outcome, str):
            elapsed = time.perf_counter() - started  # detlint: allow
            return PartitionDecision.refusal(
                reason=outcome,
                candidates_evaluated=candidates_evaluated,
                compute_seconds=elapsed,
                policy_name=self.policy.name,
            )
        candidate = outcome.candidate
        offload_nodes = candidate.surrogate_nodes
        client_nodes = candidate.client_nodes
        if expansion:
            offload_nodes = expand_nodes(offload_nodes, expansion)
            client_nodes = expand_nodes(client_nodes, expansion)
        return PartitionDecision(
            beneficial=True,
            offload_nodes=offload_nodes,
            client_nodes=client_nodes,
            cut_bytes=candidate.cut_bytes,
            cut_count=candidate.cut_count,
            freed_bytes=candidate.surrogate_memory,
            predicted_bandwidth=outcome.predicted_bandwidth,
            candidates_evaluated=candidates_evaluated,
            compute_seconds=time.perf_counter() - started,  # detlint: allow
            policy_name=outcome.policy_name,
            predicted_time=outcome.predicted_time,
            original_time=outcome.original_time,
        )


@dataclass
class ReevalStats:
    """Counters for one incremental re-evaluation session.

    ``reuse_hits`` counts epochs where the graph was untouched since the
    previous attempt and the prior candidate chain was reused outright
    (``contraction_reuses`` counts those among them whose chain was
    built over a hint-contracted graph); ``cache_hits`` counts reuse
    epochs whose :func:`~repro.core.policy.context_key` equals the
    previous epoch's, so the policy, run afresh, repeats its previous
    selection; ``warm_hits`` counts epochs served by repairing the
    previous chain; ``cold_runs`` counts full cold candidate
    generations.

    Every cold epoch also increments exactly one fallback-taxonomy
    counter naming *why* it ran cold: ``not_ready`` (no usable warm
    state — first epoch, oversized delta, changed pinned set, or a
    freshly compiled snapshot), ``node_churn`` (nodes appeared since
    the recorded run, or the snapshot refused a delta and was
    recompiled), ``seed_change`` (same nodes, different effective
    seed), ``shrunk_winner`` (a recorded winner's connectivity shrank
    below its recorded value, so local repair could not certify the
    order), ``budget`` (the repair region outgrew its adjacency
    budget), and ``forced`` (``force_cold`` sessions and
    hint-contraction epochs).  ``repair_epochs`` counts
    warm hits that actually had to repair the move log (with
    ``repair_splices``/``repair_promotions`` accumulating how much);
    warm hits beyond those merely revalidated the recorded order.
    """

    epochs: int = 0
    cold_runs: int = 0
    warm_hits: int = 0
    reuse_hits: int = 0
    cache_hits: int = 0
    contraction_reuses: int = 0
    repair_epochs: int = 0
    repair_splices: int = 0
    repair_promotions: int = 0
    fallback_not_ready: int = 0
    fallback_node_churn: int = 0
    fallback_seed_change: int = 0
    fallback_shrunk_winner: int = 0
    fallback_budget: int = 0
    fallback_forced: int = 0
    last_dirty_fraction: float = 0.0
    last_epoch_seconds: float = 0.0
    total_epoch_seconds: float = 0.0


class IncrementalPartitioner:
    """A partitioning session that exploits work from previous epochs.

    Wraps a :class:`Partitioner` and keeps three pieces of state between
    ``partition()`` calls:

    * a :class:`~repro.core.flatgraph.FlatGraph` snapshot synced with
      each epoch's delta, plus the
      :class:`~repro.core.flatgraph.FlatWarmState` of its last run, so
      the chain is repaired from the previous move order when the graph
      delta is small (dirty fraction at most ``warm_threshold``),
    * the previous :class:`~repro.core.flatgraph.FlatChain`, reused
      outright when the graph, pinned set, and hints are all unchanged,
    * the :func:`~repro.core.policy.context_key` of the last evaluated
      epoch, which names a reuse epoch's repeated selection.

    The policy runs on every epoch, a reuse epoch too.  Reuse epochs
    are rare (two in a 278-epoch ``reeval`` pass), so storing the
    policy's selection would save little and be a second path to keep
    in step.

    Each epoch is handed the live graph and drains its dirty sets: the
    session is the graph's one drainer, in the prototype's engine and
    in the replayer alike.
    """

    def __init__(
        self,
        partitioner: Partitioner,
        *,
        warm_threshold: float = 0.25,
        force_cold: bool = False,
    ) -> None:
        self.base = partitioner
        self.warm_threshold = warm_threshold
        self.force_cold = force_cold
        self.stats = ReevalStats()
        self._fg: Optional[flatgraph.FlatGraph] = None
        self._fwarm = flatgraph.FlatWarmState()
        self._last_context_key: Optional[Tuple] = None
        self._last_graph: Optional[ExecutionGraph] = None
        self._last_version: int = -1
        self._last_pinned_key: Optional[FrozenSet[str]] = None
        self._last_chain: Optional[flatgraph.FlatChain] = None
        self._last_expansion: Dict[str, FrozenSet[str]] = {}

    @property
    def policy(self) -> PartitionPolicy:
        return self.base.policy

    def _generate(
        self,
        graph: ExecutionGraph,
        pinned: List[str],
        delta: GraphDelta,
    ) -> Tuple[flatgraph.FlatChain, Dict[str, FrozenSet[str]], bool, bool]:
        """Produce the chain, via reuse, warm repair, or a cold run.

        Returns ``(chain, expansion, warm_used, reused)``.
        """
        pinned_key = frozenset(pinned)
        hints = self.base.hints
        contracted = hints is not None and hints.has_groups
        if (
            graph is self._last_graph
            and graph.version == self._last_version
            and delta.empty
            and pinned_key == self._last_pinned_key
        ):
            self.stats.reuse_hits += 1
            if contracted:
                self.stats.contraction_reuses += 1
            return self._last_chain, self._last_expansion, False, True
        work_graph, eff_pinned, expansion = self.base._prepare(graph, pinned)
        if contracted:
            # Contraction rebuilds the graph wholesale; warm-start
            # bookkeeping does not survive it.
            chain = flatgraph.snapshot(work_graph).generate_chain(eff_pinned)
            warm_used = False
            self.stats.cold_runs += 1
            self.stats.fallback_forced += 1
        else:
            chain, warm_used = self._repair_or_cold(
                work_graph, eff_pinned, pinned_key, delta
            )
        self._last_graph = graph
        self._last_version = graph.version
        self._last_pinned_key = pinned_key
        self._last_chain = chain
        self._last_expansion = expansion
        return chain, expansion, warm_used, False

    def _repair_or_cold(
        self,
        graph: ExecutionGraph,
        pinned: List[str],
        pinned_key: FrozenSet[str],
        delta: GraphDelta,
    ) -> Tuple[flatgraph.FlatChain, bool]:
        """Sync the snapshot, then repair the last chain or rerun cold."""
        denominator = graph.node_count + graph.link_count
        dirty_fraction = delta.size() / denominator if denominator else 1.0
        self.stats.last_dirty_fraction = dirty_fraction
        reason = flatgraph.COLD_NOT_READY
        fg = self._fg
        fdelta = None
        if fg is not None and delta.empty \
                and graph.version != fg.synced_version:
            # An empty delta cannot explain the version drift — some
            # other consumer drained this graph's dirty sets.  The
            # snapshot can no longer be trusted; rebuild it.
            fg = None
        if fg is not None:
            fdelta = fg.sync(graph, delta)
            if fdelta is None:
                fg = None
                reason = flatgraph.COLD_NODE_CHURN
        if fg is None:
            fg = flatgraph.FlatGraph.try_compile(graph)
            self._fg = fg
            self._fwarm = flatgraph.FlatWarmState()
        # Nodes appended by the sync outrank every other fallback
        # reason: repair_chain's churn guard names the epoch.
        churned = fdelta is not None and self._fwarm.n != fg.n
        attempt_repair = churned or (
            fdelta is not None
            and self._fwarm.ready
            and not delta.empty
            and dirty_fraction <= self.warm_threshold
            and pinned_key == self._last_pinned_key
        )
        if attempt_repair:
            chain, fail, splices, promotions = fg.repair_chain(
                self._fwarm, fdelta, pinned
            )
            if chain is not None:
                self.stats.warm_hits += 1
                if splices or promotions:
                    self.stats.repair_epochs += 1
                    self.stats.repair_splices += splices
                    self.stats.repair_promotions += promotions
                return chain, True
            reason = fail
        chain = fg.generate_chain(pinned, warm=self._fwarm)
        self.stats.cold_runs += 1
        self._count_fallback(reason)
        return chain, False

    def _count_fallback(self, reason: Optional[str]) -> None:
        stats = self.stats
        if reason == flatgraph.COLD_NODE_CHURN:
            stats.fallback_node_churn += 1
        elif reason == flatgraph.COLD_SEED_CHANGE:
            stats.fallback_seed_change += 1
        elif reason == flatgraph.COLD_SHRUNK_WINNER:
            stats.fallback_shrunk_winner += 1
        elif reason == flatgraph.COLD_BUDGET:
            stats.fallback_budget += 1
        else:
            stats.fallback_not_ready += 1

    def partition(
        self,
        graph: ExecutionGraph,
        pinned: Iterable[str],
        ctx: EvaluationContext,
    ) -> PartitionDecision:
        """One re-evaluation epoch; never raises on policy refusal."""
        started = time.perf_counter()  # detlint: allow - reported epoch cost
        self.stats.epochs += 1
        delta = graph.drain_dirty()
        if self.force_cold:
            decision = self.base.partition(graph, pinned, ctx)
            self.stats.cold_runs += 1
            self.stats.fallback_forced += 1
            self._record_epoch(started)
            return decision
        chain, expansion, warm_used, reused = self._generate(
            graph, list(pinned), delta
        )
        key = context_key(ctx)
        cache_hit = reused and key == self._last_context_key
        if cache_hit:
            self.stats.cache_hits += 1
        self._last_context_key = key
        outcome = self.base._evaluate(chain, ctx)
        decision = self.base._decide(outcome, chain.k, expansion, started)
        self._record_epoch(started)
        return replace(
            decision, warm_start=warm_used, policy_cache_hit=cache_hit
        )

    def _record_epoch(self, started: float) -> None:
        elapsed = time.perf_counter() - started  # detlint: allow - epoch cost
        self.stats.last_epoch_seconds = elapsed
        self.stats.total_epoch_seconds += elapsed
