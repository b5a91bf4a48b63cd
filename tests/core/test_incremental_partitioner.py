"""The incremental re-evaluation session around the partitioner."""

from dataclasses import replace

import pytest

from repro.core.energy import EnergyPartitionPolicy
from repro.core.graph import ExecutionGraph
from repro.core.hints import PlacementHints
from repro.core.partitioner import IncrementalPartitioner, Partitioner
from repro.core.policy import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    context_key,
)
from repro.net.wavelan import GPRS_50KBPS


def build_graph(node_count=40, seed_edges=True):
    graph = ExecutionGraph()
    nodes = [f"n{i:02d}" for i in range(node_count)]
    for i, node in enumerate(nodes):
        graph.add_memory(node, 100 + 37 * i)
    if seed_edges:
        for i in range(node_count - 1):
            graph.record_interaction(nodes[i], nodes[i + 1],
                                     10 + 13 * i)
        for i in range(0, node_count - 5, 3):
            graph.record_interaction(nodes[i], nodes[i + 5], 5 + i)
    return graph, nodes


def make_session(**kwargs):
    return IncrementalPartitioner(
        Partitioner(MemoryPartitionPolicy(0.20)), **kwargs
    )


def ctx_for(graph):
    return EvaluationContext(heap_capacity=graph.total_memory(),
                             elapsed=10.0)


class TestSessionPaths:
    def test_first_epoch_is_cold(self):
        graph, nodes = build_graph()
        session = make_session()
        decision = session.partition(graph, nodes[:3], ctx_for(graph))
        assert decision.beneficial
        assert not decision.warm_start
        assert session.stats.epochs == 1
        assert session.stats.cold_runs == 1

    def test_unchanged_graph_reuses_candidates_and_hits_the_cache(self):
        graph, nodes = build_graph()
        session = make_session()
        ctx = ctx_for(graph)
        first = session.partition(graph, nodes[:3], ctx)
        second = session.partition(graph, nodes[:3], ctx)
        assert session.stats.reuse_hits == 1
        assert second.policy_cache_hit
        assert second.offload_nodes == first.offload_nodes

    def test_small_delta_is_served_warm_and_matches_cold(self):
        graph, nodes = build_graph()
        ctx = ctx_for(graph)
        session = make_session()
        cold_session = make_session(force_cold=True)
        session.partition(graph, nodes[:3], ctx)
        graph.record_interaction(nodes[0], nodes[1], 1)
        warm_decision = session.partition(graph, nodes[:3], ctx)
        cold_decision = cold_session.partition(graph.copy(), nodes[:3], ctx)
        assert session.stats.warm_hits == 1
        assert warm_decision.warm_start
        assert warm_decision.offload_nodes == cold_decision.offload_nodes
        assert warm_decision.cut_bytes == cold_decision.cut_bytes

    def test_large_delta_exceeding_threshold_runs_cold(self):
        graph, nodes = build_graph()
        ctx = ctx_for(graph)
        session = make_session(warm_threshold=0.01)
        session.partition(graph, nodes[:3], ctx)
        for i in range(10):
            graph.record_interaction(nodes[i], nodes[i + 20], 50)
        decision = session.partition(graph, nodes[:3], ctx)
        assert not decision.warm_start
        assert session.stats.cold_runs == 2
        assert session.stats.last_dirty_fraction > 0.01

    def test_force_cold_never_warms(self):
        graph, nodes = build_graph()
        ctx = ctx_for(graph)
        session = make_session(force_cold=True)
        session.partition(graph, nodes[:3], ctx)
        graph.record_interaction(nodes[0], nodes[1], 1)
        decision = session.partition(graph, nodes[:3], ctx)
        assert not decision.warm_start
        assert not decision.policy_cache_hit
        assert session.stats.cold_runs == 2
        assert session.stats.warm_hits == 0

    def test_changed_pinned_set_does_not_reuse(self):
        graph, nodes = build_graph()
        ctx = ctx_for(graph)
        session = make_session()
        session.partition(graph, nodes[:3], ctx)
        decision = session.partition(graph, nodes[:4], ctx)
        assert session.stats.reuse_hits == 0
        assert not decision.warm_start

    def test_refusal_is_tracked_and_flagged(self):
        graph, nodes = build_graph()
        session = IncrementalPartitioner(
            Partitioner(MemoryPartitionPolicy(0.99))
        )
        ctx = ctx_for(graph)
        first = session.partition(graph, nodes[:3], ctx)
        second = session.partition(graph, nodes[:3], ctx)
        assert not first.beneficial and not second.beneficial
        assert first.refusal_reason
        assert second.policy_cache_hit
        assert session.stats.epochs == 2

    def test_epoch_latency_is_recorded(self):
        graph, nodes = build_graph()
        session = make_session()
        session.partition(graph, nodes[:3], ctx_for(graph))
        assert session.stats.last_epoch_seconds > 0
        assert session.stats.total_epoch_seconds >= \
            session.stats.last_epoch_seconds


class TestHints:
    def test_contraction_skips_warm_but_reuses_when_unchanged(self):
        graph, nodes = build_graph()
        hints = PlacementHints(keep_together=(frozenset(nodes[5:8]),))
        session = IncrementalPartitioner(
            Partitioner(MemoryPartitionPolicy(0.20), hints=hints)
        )
        ctx = ctx_for(graph)
        first = session.partition(graph, nodes[:3], ctx)
        second = session.partition(graph, nodes[:3], ctx)
        assert session.stats.cold_runs == 1
        assert session.stats.reuse_hits == 1
        assert session.stats.contraction_reuses == 1
        assert first.offload_nodes == second.offload_nodes
        # The contracted groups expand back to their real members.
        group = set(nodes[5:8])
        offloaded = set(first.offload_nodes)
        assert group <= offloaded or not (group & offloaded)

    def test_hints_decision_matches_plain_partitioner(self):
        graph, nodes = build_graph()
        hints = PlacementHints(pin_local=(nodes[10],),
                               keep_together=(frozenset(nodes[5:8]),))
        ctx = ctx_for(graph)
        base = Partitioner(MemoryPartitionPolicy(0.20), hints=hints)
        session = IncrementalPartitioner(
            Partitioner(MemoryPartitionPolicy(0.20), hints=hints)
        )
        expected = base.partition(graph.copy(), nodes[:3], ctx)
        actual = session.partition(graph.copy(), nodes[:3], ctx)
        assert actual.offload_nodes == expected.offload_nodes
        assert actual.cut_bytes == expected.cut_bytes


def cpu_graph():
    """:func:`build_graph` with CPU on every node."""
    graph, nodes = build_graph()
    for i, node in enumerate(nodes):
        graph.add_cpu(node, 0.5 + (i % 7) / 4)
    return graph, nodes


def cpu_ctx_for(graph, **changes):
    ctx = EvaluationContext(heap_capacity=graph.total_memory(),
                            total_cpu=graph.total_cpu(), elapsed=10.0,
                            surrogate_speed=10.0)
    return replace(ctx, **changes)


def fresh_decision(policy, graph, pinned, ctx):
    """A one-shot partitioning of a copy of ``graph``."""
    return Partitioner(policy).partition(graph.copy(), pinned, ctx)


def without_timing(decision):
    return replace(decision, compute_seconds=0.0, warm_start=False,
                   policy_cache_hit=False)


class TestReuseEpochs:
    """A reuse epoch (same graph, same pinned set) reruns the policy.

    Its flag is set only when the context key also repeats, and its
    decision equals a fresh one-shot partitioning under its own
    context either way.
    """

    def test_context_key_ignores_elapsed(self):
        base = EvaluationContext(heap_capacity=1000, elapsed=10.0)
        later = EvaluationContext(heap_capacity=1000, elapsed=99.0)
        assert context_key(base) == context_key(later)
        bigger = EvaluationContext(heap_capacity=2000, elapsed=10.0)
        assert context_key(base) != context_key(bigger)

    @pytest.mark.parametrize("policy", [
        MemoryPartitionPolicy(0.20),
        CpuPartitionPolicy(),
        BestEffortCpuPolicy(),
        CombinedPartitionPolicy(0.20),
        EnergyPartitionPolicy(),
    ], ids=lambda policy: policy.name)
    def test_reuse_matches_fresh(self, policy):
        graph, nodes = cpu_graph()
        ctx = cpu_ctx_for(graph)
        session = IncrementalPartitioner(Partitioner(policy))
        first = session.partition(graph, nodes[:3], ctx)
        second = session.partition(graph, nodes[:3], ctx)
        assert session.stats.reuse_hits == session.stats.cache_hits == 1
        assert (first.policy_cache_hit, second.policy_cache_hit) == \
            (False, True)
        expected = without_timing(
            fresh_decision(policy, graph, nodes[:3], ctx))
        assert without_timing(first) == expected
        assert without_timing(second) == expected

    @pytest.mark.parametrize("policy, change", [
        (MemoryPartitionPolicy(0.20), "heap"),
        (CpuPartitionPolicy(), "link"),
    ], ids=["heap", "link"])
    def test_changed_context_clears_the_flag(self, policy, change):
        graph, nodes = cpu_graph()
        ctx = cpu_ctx_for(graph)
        # A heap five times the graph's memory refuses every candidate;
        # a slow link predicts a longer completion time.
        changed = (replace(ctx, heap_capacity=5 * ctx.heap_capacity)
                   if change == "heap" else replace(ctx, link=GPRS_50KBPS))
        session = IncrementalPartitioner(Partitioner(policy))
        first = session.partition(graph, nodes[:3], ctx)
        decision = session.partition(graph, nodes[:3], changed)
        assert session.stats.reuse_hits == 1
        assert session.stats.cache_hits == 0
        assert not decision.policy_cache_hit
        assert without_timing(decision) != without_timing(first)
        assert without_timing(decision) == without_timing(
            fresh_decision(policy, graph, nodes[:3], changed))

    def test_elapsed_alone_keeps_the_flag_and_moves_the_bandwidth(self):
        graph, nodes = cpu_graph()
        policy = MemoryPartitionPolicy(0.20)
        session = IncrementalPartitioner(Partitioner(policy))
        first = session.partition(graph, nodes[:3], cpu_ctx_for(graph))
        later = cpu_ctx_for(graph, elapsed=25.0)
        second = session.partition(graph, nodes[:3], later)
        assert second.policy_cache_hit
        assert second.offload_nodes == first.offload_nodes
        assert second.predicted_bandwidth == fresh_decision(
            policy, graph, nodes[:3], later).predicted_bandwidth
        assert second.predicted_bandwidth != first.predicted_bandwidth

    def test_refused_reuse_epoch_returns_the_same_reason(self):
        graph, nodes = build_graph()
        policy = MemoryPartitionPolicy(0.99)
        session = IncrementalPartitioner(Partitioner(policy))
        ctx = ctx_for(graph)
        first = session.partition(graph, nodes[:3], ctx)
        second = session.partition(graph, nodes[:3], ctx)
        assert second.policy_cache_hit
        assert not second.beneficial
        assert second.refusal_reason == first.refusal_reason == \
            fresh_decision(policy, graph, nodes[:3], ctx).refusal_reason
