"""The policy-evaluation memo: LRU behaviour and hit/miss parity."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flatgraph
from repro.core.energy import EnergyPartitionPolicy
from repro.core.graph import ExecutionGraph
from repro.core.policy import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    PolicyDecision,
    PolicyEvaluationCache,
    context_key,
    evaluate_chain_with_cache,
)
from repro.errors import ConfigurationError, NoBeneficialPartitionError


def chain(names=("x", "y", "z"), yz_bytes=300):
    """A three-candidate chain with ``main`` pinned.

    Candidates offload {x, y, z}, {y, z} and {z}: cut bytes 500, 100
    and ``yz_bytes``, surrogate memory 900, 600 and 300.
    """
    x, y, z = names
    graph = ExecutionGraph()
    graph.add_memory("main", 100)
    graph.add_cpu("main", 1.0)
    for name, cpu in ((x, 3.0), (y, 3.0), (z, 3.0)):
        graph.add_memory(name, 300)
        graph.add_cpu(name, cpu)
    graph.record_interaction("main", x, 500)
    graph.record_interaction(x, y, 100)
    graph.record_interaction(y, z, yz_bytes)
    return flatgraph.snapshot(graph).generate_chain(["main"])


CTX = EvaluationContext(heap_capacity=1000, elapsed=10.0)


class TestCacheMechanics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PolicyEvaluationCache(maxsize=0)

    def test_lru_eviction_order(self):
        cache = PolicyEvaluationCache(maxsize=2)
        cache.put("a", ("selected", 0))
        cache.put("b", ("selected", 1))
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", ("selected", 2))   # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_counts_hits_and_misses(self):
        cache = PolicyEvaluationCache()
        cache.get("missing")
        cache.put("k", ("selected", 0))
        cache.get("k")
        assert cache.misses == 1
        assert cache.hits == 1


class TestKeying:
    def test_fingerprint_covers_only_scalar_statistics(self):
        fp1 = chain().fingerprint()
        assert chain().fingerprint() == fp1
        # Node names are not part of the key; the statistics are.
        assert chain(names=("p", "q", "r")).fingerprint() == fp1
        assert chain(yz_bytes=301).fingerprint() != fp1

    def test_context_key_ignores_elapsed(self):
        base = EvaluationContext(heap_capacity=1000, elapsed=10.0)
        later = EvaluationContext(heap_capacity=1000, elapsed=99.0)
        assert context_key(base) == context_key(later)
        bigger = EvaluationContext(heap_capacity=2000, elapsed=10.0)
        assert context_key(base) != context_key(bigger)


class TestEvaluateWithCache:
    """``evaluate_chain_with_cache`` over :class:`FlatChain` inputs."""

    def test_hit_returns_byte_identical_decision(self):
        policy = MemoryPartitionPolicy(0.20)
        cache = PolicyEvaluationCache()
        cold = policy.evaluate_chain(chain(), CTX)
        first, hit1 = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        second, hit2 = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        assert (hit1, hit2) == (False, True)
        assert cold.candidate.surrogate_nodes == {"y", "z"}
        assert first == cold
        assert second == cold

    def test_hit_recomputes_bandwidth_against_current_context(self):
        policy = MemoryPartitionPolicy(0.20)
        cache = PolicyEvaluationCache()
        evaluate_chain_with_cache(policy, chain(), CTX, cache)
        later = EvaluationContext(heap_capacity=1000, elapsed=20.0)
        decision, hit = evaluate_chain_with_cache(policy, chain(), later,
                                                  cache)
        assert hit
        assert decision.predicted_bandwidth == pytest.approx(
            decision.candidate.cut_bytes / 20.0
        )

    @pytest.mark.parametrize("policy", [
        MemoryPartitionPolicy(0.20),
        CpuPartitionPolicy(),
        BestEffortCpuPolicy(),
        CombinedPartitionPolicy(0.20),
        EnergyPartitionPolicy(),
    ], ids=lambda policy: policy.name)
    def test_hit_equals_cold_for_every_policy(self, policy):
        ctx = EvaluationContext(heap_capacity=1000, total_cpu=10.0,
                                elapsed=10.0, surrogate_speed=10.0)
        cache = PolicyEvaluationCache()
        cold = policy.evaluate_chain(chain(), ctx)
        first, hit1 = evaluate_chain_with_cache(policy, chain(), ctx, cache)
        second, hit2 = evaluate_chain_with_cache(policy, chain(), ctx, cache)
        assert (hit1, hit2) == (False, True)
        assert isinstance(second, PolicyDecision)
        assert first == cold
        assert second == cold

    def test_refusals_are_memoised_with_their_reason(self):
        policy = MemoryPartitionPolicy(0.99)  # nothing frees 99%
        cache = PolicyEvaluationCache()
        with pytest.raises(NoBeneficialPartitionError) as refusal:
            policy.evaluate_chain(chain(), CTX)
        cold = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        warm = evaluate_chain_with_cache(policy, chain(), CTX, cache)
        assert cold == (str(refusal.value), False)
        assert warm == (str(refusal.value), True)
        assert cache.hits == 1

    def test_different_policies_do_not_collide(self):
        cache = PolicyEvaluationCache()
        memory = MemoryPartitionPolicy(0.20)
        cpu = CpuPartitionPolicy()
        ctx = EvaluationContext(heap_capacity=1000, total_cpu=10.0,
                                elapsed=10.0, surrogate_speed=10.0)
        evaluate_chain_with_cache(memory, chain(), ctx, cache)
        decision, hit = evaluate_chain_with_cache(cpu, chain(), ctx, cache)
        assert not hit
        assert decision.policy_name == cpu.name


class OracleMemo:
    """The memo keyed the old way: ``(id(policy), fingerprint,
    context_key)`` in an ``OrderedDict`` LRU of the same size.  Its hit
    rule is the one the signature key must reproduce exactly."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def evaluate(self, policy, flat, ctx):
        key = (id(policy), flat.fingerprint(), context_key(ctx))
        entries = self.entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            kind, payload = entries[key]
            if kind == "refused":
                return payload, True
            return policy.decision_for(flat.candidate(payload), ctx), True
        self.misses += 1
        try:
            decision = policy.evaluate_chain(flat, ctx)
        except NoBeneficialPartitionError as refusal:
            entries[key] = ("refused", str(refusal))
            outcome = str(refusal)
        else:
            entries[key] = ("selected", decision.candidate._moves_applied)
            outcome = decision
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
        return outcome, False


#: Ways to rebuild a base graph's chain.  ``fresh``, ``renamed``,
#: ``nb`` and ``cb`` leave the statistics columns equal (the last two
#: widen the packing basis under them); ``interior`` changes only the
#: second candidate's cut, so its signature matches and its columns
#: do not.
VARIANTS = ("fresh", "renamed", "nb", "cb", "scaled", "cpu", "interior")
#: Edge-byte scales: raw cuts past int64 with int64 statistics, and
#: statistics past int64 (the fingerprint's tuple fallback).
SCALES = (2 ** 50, 2 ** 64)


def variant_graph(base, variant, scale, order):
    """``base`` rebuilt one way; ``main`` and every ``~pad`` are pinned.

    ``order`` is the base chain's move order, by name.
    """
    graph = ExecutionGraph()
    prefix = "r." if variant == "renamed" else ""
    for name in base.nodes():
        node = base.node(name)
        graph.add_memory(prefix + name, node.memory_bytes)
        graph.add_cpu(prefix + name, node.cpu_seconds)
    for (a, b), edge in base.edges():
        nbytes = edge.bytes * scale if variant == "scaled" else edge.bytes
        graph.record_interaction(prefix + a, prefix + b, nbytes,
                                 count=edge.count)
    if variant == "nb":
        # Pinned, empty and sorted last: the rank field widens under
        # equal statistics.
        while len(graph.names) <= flatgraph._pow2_at_least(
                len(base.names)):
            graph.add_memory(f"~pad{len(graph.names)}", 0)
    elif variant == "cb":
        # A seed-internal edge: the count field widens, no cut moves.
        graph.record_interaction("~pad0", "~pad1", 0,
                                 count=1000 * (sum(base.edge_ncount) + 1))
    elif variant == "cpu" and order:
        # The never-moved node's CPU: the client CPU column is equal
        # and the totals (so the surrogate CPU column) are not.
        graph.add_cpu(order[-1], 0.5)
    elif variant == "interior" and len(order) >= 3:
        # The first two movers still move first, and only the cut
        # between them (candidate 1's) grows.
        graph.record_interaction(order[0], order[1], 7)
    return graph


@st.composite
def memo_sessions(draw):
    """A base graph and a sequence of (chain recipe, policy, context)."""
    node_count = draw(st.integers(min_value=2, max_value=6))
    names = ["main"] + [f"n{i}" for i in range(1, node_count)]
    base = ExecutionGraph()
    for name in names:
        base.add_memory(name, draw(st.sampled_from([0, 100, 300, 600])))
        base.add_cpu(name, draw(st.sampled_from([0.0, 0.1, 0.25, 1 / 3,
                                                 2.0])))
    for _ in range(draw(st.integers(1, 2 * node_count))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        base.record_interaction(a, b, draw(st.sampled_from([1, 100, 500])),
                                count=draw(st.integers(0, 3)))
    steps = draw(st.lists(
        st.tuples(
            st.one_of(st.sampled_from(VARIANTS),
                      st.integers(0, 7)),     # an earlier chain again
            st.sampled_from(SCALES),
            st.integers(0, 2),                # policy
            st.integers(0, 1),                # context
        ),
        min_size=1, max_size=12))
    return base, steps, draw(st.integers(1, 3))


class TestSignatureKeyMatchesFingerprintKey:
    """The memo's signature key against the old fingerprint key."""

    POLICIES = (MemoryPartitionPolicy(0.20), MemoryPartitionPolicy(0.95),
                CpuPartitionPolicy())

    @staticmethod
    def chain_of_graph(graph):
        pinned = ["main", "r.main"] + [n for n in graph.names
                                       if n.startswith("~pad")]
        return flatgraph.FlatGraph.try_compile(graph).generate_chain(pinned)

    @given(memo_sessions())
    @settings(max_examples=150, deadline=None)
    def test_hits_misses_and_decisions_match(self, session):
        base, steps, maxsize = session
        first = self.chain_of_graph(base)
        order = [base.names[v] for v in first.order]
        contexts = (
            EvaluationContext(heap_capacity=max(1, base.total_memory()),
                              total_cpu=base.total_cpu(), elapsed=5.0),
            EvaluationContext(heap_capacity=2 * base.total_memory() + 1,
                              total_cpu=2.0, elapsed=5.0),
        )
        cache = PolicyEvaluationCache(maxsize=maxsize)
        oracle = OracleMemo(maxsize)
        made = [first]
        for recipe, scale, policy_index, ctx_index in steps:
            if isinstance(recipe, int):
                flat = made[recipe % len(made)]
            else:
                flat = self.chain_of_graph(
                    variant_graph(base, recipe, scale, order))
                made.append(flat)
            policy = self.POLICIES[policy_index]
            ctx = contexts[ctx_index]
            got, hit = evaluate_chain_with_cache(policy, flat, ctx, cache)
            want, oracle_hit = oracle.evaluate(policy, flat, ctx)
            assert hit == oracle_hit
            assert got == want
        assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
        assert len(cache) == len(oracle.entries)
