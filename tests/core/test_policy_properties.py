"""Property tests for policies and candidate generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyPartitionPolicy
from repro.core.flatgraph import CandidatePartition, FlatGraph
from repro.core.graph import ExecutionGraph
from repro.core.policy import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    predict_completion_time,
)
from repro.errors import NoBeneficialPartitionError
from repro.net.wavelan import WAVELAN_11MBPS

from .mincut_oracle import generate_candidates
from .policy_oracle import chain_of, memory_loop_select, oracle_select


@st.composite
def candidate_lists(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    candidates = []
    for index in range(count):
        candidates.append(CandidatePartition(
            client_nodes=frozenset({f"c{index}"}),
            surrogate_nodes=frozenset({f"s{index}"}),
            cut_count=draw(st.integers(0, 1000)),
            cut_bytes=draw(st.integers(0, 10**6)),
            surrogate_memory=draw(st.integers(0, 10**6)),
            surrogate_cpu=draw(st.floats(0, 100)),
            client_cpu=draw(st.floats(0, 100)),
        ))
    return candidates


@st.composite
def weighted_graphs(draw):
    node_count = draw(st.integers(min_value=2, max_value=8))
    nodes = [f"n{i}" for i in range(node_count)]
    graph = ExecutionGraph()
    for node in nodes:
        graph.add_memory(node, draw(st.integers(0, 10_000)))
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if draw(st.booleans()):
                graph.record_interaction(
                    nodes[i], nodes[j], draw(st.integers(1, 1000)),
                    count=draw(st.integers(1, 10)),
                )
    return graph, nodes


@st.composite
def built_in_policies(draw):
    """Each built-in policy, with its threshold drawn at random."""
    kind = draw(st.sampled_from(
        ("memory", "cpu", "best-effort", "combined", "energy")))
    if kind == "memory":
        return MemoryPartitionPolicy(draw(st.floats(0.01, 1.0)))
    if kind == "cpu":
        return CpuPartitionPolicy(draw(st.floats(0.0, 0.9)))
    if kind == "best-effort":
        return BestEffortCpuPolicy()
    if kind == "combined":
        return CombinedPartitionPolicy(draw(st.floats(0.01, 1.0)))
    return EnergyPartitionPolicy(min_saving_fraction=draw(st.floats(0.0, 0.9)))


@st.composite
def tie_prone_candidate_lists(draw):
    """Candidate lists drawn from a pool of at most four statistics
    rows, so exact repeats are common and the scans' first-of-equal-key
    tie-breaks are exercised, not just their keys."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, 1000),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.floats(0, 100),
        st.floats(0, 100),
    ), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(rows), max_size=8))
    return [
        CandidatePartition(
            client_nodes=frozenset({f"c{index}"}),
            surrogate_nodes=frozenset({f"s{index}"}),
            cut_count=cut_count,
            cut_bytes=cut_bytes,
            surrogate_memory=memory,
            surrogate_cpu=surrogate_cpu,
            client_cpu=client_cpu,
        )
        for index, (cut_count, cut_bytes, memory, surrogate_cpu,
                    client_cpu) in enumerate(picks)
    ]


@st.composite
def contexts(draw):
    return EvaluationContext(
        heap_capacity=draw(st.integers(1, 2 * 10**6)),
        client_speed=draw(st.floats(0.25, 4.0)),
        surrogate_speed=draw(st.floats(0.25, 8.0)),
        total_cpu=draw(st.floats(0, 800)),
        elapsed=draw(st.floats(0, 100)),
    )


class TestScanMatchesOracle:
    @given(built_in_policies(), tie_prone_candidate_lists(), contexts())
    @settings(max_examples=300, deadline=None)
    def test_scan_picks_the_oracle_winner_or_refusal(self, policy,
                                                     candidates, ctx):
        try:
            expected = oracle_select(policy, candidates, ctx)
        except NoBeneficialPartitionError as refusal:
            with pytest.raises(NoBeneficialPartitionError) as scanned:
                policy.evaluate_chain(chain_of(candidates), ctx)
            assert str(scanned.value) == str(refusal)
            return
        decision = policy.evaluate_chain(chain_of(candidates), ctx)
        assert decision.candidate is candidates[expected]
        assert decision == policy.decision_for(candidates[expected], ctx)


@st.composite
def memory_chain_cases(draw):
    """A real chain for the memory policy, plus a context and threshold.

    Zero-memory nodes give runs of equal surrogate memory, edge bytes
    from a short list give equal cut bytes, a heap larger than the
    graph's memory leaves nothing feasible, and two-node graphs with
    one pinned node give ``k == 1``.
    """
    node_count = draw(st.integers(min_value=2, max_value=10))
    names = [f"n{i}" for i in range(node_count)]
    graph = ExecutionGraph()
    for name in names:
        graph.add_memory(name, draw(st.sampled_from([0, 0, 0, 64, 64, 512])))
    for _ in range(draw(st.integers(0, 2 * node_count))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        graph.record_interaction(a, b, draw(st.sampled_from([0, 8, 8, 64])),
                                 count=draw(st.integers(0, 2)))
    pinned = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    chain = FlatGraph.try_compile(graph).generate_chain(pinned)
    heap = max(1, graph.total_memory()) * draw(st.sampled_from([1, 1, 2]))
    return (chain, EvaluationContext(heap_capacity=heap, elapsed=1.0),
            MemoryPartitionPolicy(draw(st.floats(0.01, 1.0))))


class TestMemoryPrefixRule:
    """The memory policy's prefix rule picks what its old loop picked."""

    @staticmethod
    def assert_same_pick(policy, chain, ctx):
        try:
            expected = memory_loop_select(policy, chain, ctx)
        except NoBeneficialPartitionError as refusal:
            with pytest.raises(NoBeneficialPartitionError) as scanned:
                policy.evaluate_chain(chain, ctx)
            assert str(scanned.value) == str(refusal)
            return
        decision = policy.evaluate_chain(chain, ctx)
        assert decision.candidate._moves_applied == expected
        assert decision == policy.decision_for(chain.candidate(expected),
                                               ctx)

    @given(memory_chain_cases())
    @settings(max_examples=300, deadline=None)
    def test_prefix_rule_matches_the_loop(self, case):
        chain, ctx, policy = case
        assert chain.surrogate_memory == sorted(chain.surrogate_memory,
                                                reverse=True)
        self.assert_same_pick(policy, chain, ctx)

    def test_ties_and_single_candidate_chains(self):
        graph = ExecutionGraph()
        for name, memory in (("a", 100), ("b", 0), ("c", 0), ("d", 300)):
            graph.add_memory(name, memory)
        graph.record_interaction("a", "b", 8)
        graph.record_interaction("b", "c", 8)
        graph.record_interaction("c", "d", 8)
        chain = FlatGraph.try_compile(graph).generate_chain(["a"])
        # Candidates 1 and 2 free the same memory at the same cut bytes.
        assert chain.surrogate_memory[1:3] == [300, 300]
        assert chain.cut_bytes[1:3] == [8, 8]
        ctx = EvaluationContext(heap_capacity=400, elapsed=1.0)
        for fraction in (0.1, 0.75, 0.76, 1.0):
            self.assert_same_pick(MemoryPartitionPolicy(fraction), chain,
                                  ctx)
        single = FlatGraph.try_compile(graph).generate_chain(["a", "b", "c"])
        assert single.k == 1
        for fraction in (0.5, 1.0):
            self.assert_same_pick(MemoryPartitionPolicy(fraction), single,
                                  ctx)


class TestMemoryPolicyProperties:
    @given(candidate_lists(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_selection_always_meets_requirement(self, candidates, min_free):
        policy = MemoryPartitionPolicy(min_free_fraction=min_free)
        ctx = EvaluationContext(heap_capacity=10**6)
        try:
            decision = policy.evaluate_chain(chain_of(candidates), ctx)
        except NoBeneficialPartitionError:
            # Then genuinely nothing was eligible.
            assert all(
                c.surrogate_memory < min_free * ctx.heap_capacity
                for c in candidates
            )
            return
        assert decision.candidate in candidates
        assert decision.freed_bytes >= min_free * ctx.heap_capacity

    @given(candidate_lists())
    @settings(max_examples=80, deadline=None)
    def test_selected_cut_is_minimal_among_eligible(self, candidates):
        policy = MemoryPartitionPolicy(min_free_fraction=0.10)
        ctx = EvaluationContext(heap_capacity=10**6)
        try:
            decision = policy.evaluate_chain(chain_of(candidates), ctx)
        except NoBeneficialPartitionError:
            return
        eligible = [
            c for c in candidates
            if c.surrogate_memory >= 0.10 * ctx.heap_capacity
        ]
        assert decision.candidate.cut_bytes == min(
            c.cut_bytes for c in eligible
        )

    @given(candidate_lists())
    @settings(max_examples=50, deadline=None)
    def test_raising_min_free_never_lowers_freed_memory(self, candidates):
        ctx = EvaluationContext(heap_capacity=10**6)
        freed = []
        for min_free in (0.05, 0.25, 0.50):
            try:
                decision = MemoryPartitionPolicy(min_free).evaluate_chain(
                    chain_of(candidates), ctx
                )
                freed.append(decision.freed_bytes)
            except NoBeneficialPartitionError:
                freed.append(None)
        # Once the policy starts refusing, it keeps refusing at higher
        # requirements.
        seen_refusal = False
        for value in freed:
            if value is None:
                seen_refusal = True
            else:
                assert not seen_refusal


class TestPredictionProperties:
    def base_candidate(self, **overrides):
        fields = dict(
            client_nodes=frozenset({"c"}),
            surrogate_nodes=frozenset({"s"}),
            cut_count=10, cut_bytes=1000, surrogate_memory=1000,
            surrogate_cpu=5.0, client_cpu=5.0,
        )
        fields.update(overrides)
        return CandidatePartition(**fields)

    def ctx(self):
        return EvaluationContext(
            heap_capacity=10**6, client_speed=1.0, surrogate_speed=3.5,
            link=WAVELAN_11MBPS, total_cpu=10.0,
        )

    @given(st.integers(0, 10**5), st.integers(0, 10**5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_cut_count(self, low, delta):
        ctx = self.ctx()
        less = predict_completion_time(
            self.base_candidate(cut_count=low), ctx
        )
        more = predict_completion_time(
            self.base_candidate(cut_count=low + delta), ctx
        )
        assert more >= less

    @given(st.integers(0, 10**8), st.integers(0, 10**8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_cut_bytes(self, low, delta):
        ctx = self.ctx()
        less = predict_completion_time(
            self.base_candidate(cut_bytes=low), ctx
        )
        more = predict_completion_time(
            self.base_candidate(cut_bytes=low + delta), ctx
        )
        assert more >= less

    def test_faster_surrogate_predicts_faster(self):
        candidate = self.base_candidate()
        slow = EvaluationContext(heap_capacity=10**6, surrogate_speed=1.0,
                                 total_cpu=10.0)
        fast = EvaluationContext(heap_capacity=10**6, surrogate_speed=4.0,
                                 total_cpu=10.0)
        assert (predict_completion_time(candidate, fast)
                < predict_completion_time(candidate, slow))


class TestCandidateChainProperties:
    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_client_sets_are_nested(self, graph_nodes):
        graph, nodes = graph_nodes
        candidates = generate_candidates(graph, pinned=[nodes[0]])
        for earlier, later in zip(candidates, candidates[1:]):
            assert earlier.client_nodes < later.client_nodes
            assert later.surrogate_nodes < earlier.surrogate_nodes

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_memory_is_conserved(self, graph_nodes):
        graph, nodes = graph_nodes
        total = graph.total_memory()
        for candidate in generate_candidates(graph, pinned=[nodes[0]]):
            client_memory = graph.total_memory(candidate.client_nodes)
            assert client_memory + candidate.surrogate_memory == total

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_candidate_count_bound(self, graph_nodes):
        graph, nodes = graph_nodes
        candidates = generate_candidates(graph, pinned=[nodes[0]])
        # "The number of partitionings that will be evaluated is smaller
        # than the number of components."
        assert len(candidates) < graph.node_count
