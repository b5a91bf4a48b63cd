"""Parity: the warm-started MINCUT kernel vs a cold reference run.

The warm path (``FlatGraph.sync`` + ``FlatGraph.repair_chain`` over a
``FlatWarmState``) must be a pure optimisation.  After every mutation
burst it either repairs the previous move order into *exactly* the
candidate chain the cold reference generator produces — every
statistic, node set and float — or names the reason it fell back, and
the cold rerun then re-records the warm state so the next small delta
is served warm again.
"""

import random

import pytest

from repro.core.flatgraph import (
    COLD_NODE_CHURN,
    COLD_SEED_CHANGE,
    FlatGraph,
    FlatWarmState,
)
from repro.core.graph import ExecutionGraph
from repro.core.policy import EvaluationContext, MemoryPartitionPolicy
from repro.errors import NoBeneficialPartitionError

from .mincut_oracle import generate_candidates
from .policy_oracle import oracle_select


def random_graph(rng, node_count, edge_factor=2.0):
    graph = ExecutionGraph()
    nodes = [f"n{i:03d}" for i in range(node_count)]
    for node in nodes:
        graph.add_memory(node, rng.randrange(16, 10_000))
        graph.add_cpu(node, rng.random())
    for _ in range(int(node_count * edge_factor)):
        a, b = rng.sample(nodes, 2)
        graph.record_interaction(
            a, b, rng.randrange(1, 5_000), count=rng.randrange(1, 10)
        )
    return graph, nodes


def append_node(rng, graph, nodes):
    """A new node whose name sorts between existing names ("n007.31"
    lands between "n007" and "n008"), with float CPU and one edge."""
    node = f"{rng.choice(nodes)}.{len(nodes)}"
    graph.add_cpu(node, rng.random())
    graph.record_interaction(node, rng.choice(nodes), rng.randrange(1, 512))
    nodes.append(node)


def mutate(rng, graph, nodes, rounds):
    """A small burst of growth-only mutations through the entry points."""
    for _ in range(rounds):
        kind = rng.randrange(4)
        if kind == 0:
            a, b = rng.sample(nodes, 2)
            graph.record_interaction(a, b, rng.randrange(1, 64))
        elif kind == 1:
            graph.add_memory(rng.choice(nodes), rng.randrange(1, 512))
        elif kind == 2:
            graph.add_cpu(rng.choice(nodes), rng.random() * 0.1)
        else:
            append_node(rng, graph, nodes)


class WarmKernel:
    """A snapshot plus its warm state, advanced one epoch at a time."""

    def __init__(self, graph, pinned):
        graph.drain_dirty()
        self.fg = FlatGraph.try_compile(graph)
        self.warm = FlatWarmState()
        self.fg.generate_chain(pinned, warm=self.warm)

    def step(self, graph, pinned):
        """Drain ``graph`` and return ``(chain, reason)``; ``reason`` is
        None when warm."""
        fdelta = self.fg.sync(graph, graph.drain_dirty())
        if fdelta is None:
            self.fg = FlatGraph.try_compile(graph)
            self.warm = FlatWarmState()
            reason = COLD_NODE_CHURN
        else:
            chain, reason, _, _ = self.fg.repair_chain(
                self.warm, fdelta, pinned)
            if chain is not None:
                return chain, None
        return self.fg.generate_chain(pinned, warm=self.warm), reason


def assert_candidate_chains_match(chain, reference):
    assert chain.k == len(reference)
    for ours, theirs in zip(chain.candidates(), reference):
        assert ours.cut_bytes == theirs.cut_bytes
        assert ours.cut_count == theirs.cut_count
        assert ours.surrogate_memory == theirs.surrogate_memory
        assert ours.surrogate_cpu == theirs.surrogate_cpu
        assert ours.client_cpu == theirs.client_cpu
        assert ours.client_nodes == theirs.client_nodes
        assert ours.surrogate_nodes == theirs.surrogate_nodes


@pytest.mark.parametrize("seed", range(12))
def test_randomized_mutation_sequences_keep_parity(seed):
    rng = random.Random(seed)
    node_count = rng.choice((12, 20, 30, 50))
    graph, nodes = random_graph(rng, node_count)
    pinned = [nodes[i] for i in range(0, node_count, 7)]
    policy = MemoryPartitionPolicy(0.20)
    ctx = EvaluationContext(heap_capacity=graph.total_memory(), elapsed=10.0)

    kernel = WarmKernel(graph, pinned)
    warm_served = 0
    for _ in range(15):
        mutate(rng, graph, nodes, rounds=rng.randrange(1, 5))
        chain, reason = kernel.step(graph, pinned)
        if reason is None:
            warm_served += 1
        cold_chain = generate_candidates(graph, pinned)
        assert_candidate_chains_match(chain, cold_chain)
        try:
            warm_best = policy.evaluate_chain(chain, ctx).candidate
        except NoBeneficialPartitionError:
            with pytest.raises(NoBeneficialPartitionError):
                oracle_select(policy, cold_chain, ctx)
            continue
        cold_best = cold_chain[oracle_select(policy, cold_chain, ctx)]
        assert warm_best.surrogate_nodes == cold_best.surrogate_nodes
    # The point of the exercise: most small deltas must be served warm.
    assert warm_served > 0


def test_new_node_falls_back_to_cold():
    rng = random.Random(99)
    graph, nodes = random_graph(rng, 20)
    pinned = nodes[:2]
    kernel = WarmKernel(graph, pinned)
    graph.record_interaction(nodes[0], "brand-new-node", 100)
    chain, reason = kernel.step(graph, pinned)
    assert reason == COLD_NODE_CHURN
    assert_candidate_chains_match(chain, generate_candidates(graph, pinned))


def test_changed_pinned_seed_falls_back_to_cold():
    rng = random.Random(7)
    graph, nodes = random_graph(rng, 20)
    kernel = WarmKernel(graph, nodes[:2])
    graph.record_interaction(nodes[3], nodes[4], 10)
    chain, reason = kernel.step(graph, nodes[:3])
    assert reason == COLD_SEED_CHANGE
    assert_candidate_chains_match(
        chain, generate_candidates(graph, nodes[:3])
    )


def test_warm_state_recovers_after_fallback():
    """A cold fallback re-records, so the next small delta is warm again."""
    rng = random.Random(21)
    graph, nodes = random_graph(rng, 30)
    pinned = nodes[:3]
    kernel = WarmKernel(graph, pinned)
    # Force a fallback via a brand-new node...
    graph.record_interaction(nodes[0], "newcomer", 50)
    _, reason = kernel.step(graph, pinned)
    assert reason == COLD_NODE_CHURN
    # ...then a tiny growth delta on an existing edge must go warm.
    key, _ = next(graph.edges())
    graph.record_interaction(key[0], key[1], 1)
    chain, reason = kernel.step(graph, pinned)
    assert reason is None
    assert_candidate_chains_match(chain, generate_candidates(graph, pinned))


def test_chain_built_before_an_append_still_materialises():
    rng = random.Random(17)
    graph, nodes = random_graph(rng, 30)
    pinned = nodes[:2]
    kernel = WarmKernel(graph, pinned)
    before = kernel.fg.generate_chain(pinned)
    reference = generate_candidates(graph, pinned)
    for _ in range(10):  # 30 -> 40 nodes widens the rank field
        append_node(rng, graph, nodes)
    fdelta = kernel.fg.sync(graph, graph.drain_dirty())
    assert fdelta is not None and fdelta.rebased
    assert_candidate_chains_match(before, reference)
