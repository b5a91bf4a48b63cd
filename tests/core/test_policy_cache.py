"""The policy-evaluation memo: LRU behaviour and hit/miss parity."""

import pytest

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
