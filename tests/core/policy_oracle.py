"""The list-shaped reference for the partition policies' chain scans.

Every shipped policy selects by scanning a candidate chain's statistics
columns.  :func:`oracle_select` states each policy's rule the plain
way — ``min()`` over the eligible candidates of a list, with the
policy's refusal messages — and :func:`chain_of` wraps a candidate
list in the column interface the scans read, so any list can drive a
shipped policy.  The parity suites hold the scans to this oracle:
same winner index, or the same refusal string.
"""

from types import SimpleNamespace
from typing import List

from repro.core.energy import (
    EnergyPartitionPolicy,
    local_energy,
    predict_client_energy,
)
from repro.core.flatgraph import CandidatePartition
from repro.core.policy import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    predict_completion_time,
)
from repro.errors import NoBeneficialPartitionError


def chain_of(candidates: List[CandidatePartition]) -> SimpleNamespace:
    """A candidate list behind the chain interface the policies scan:
    ``k``, the five statistics columns and ``candidate(i)``."""
    return SimpleNamespace(
        k=len(candidates),
        cut_count=[c.cut_count for c in candidates],
        cut_bytes=[c.cut_bytes for c in candidates],
        surrogate_memory=[c.surrogate_memory for c in candidates],
        surrogate_cpu=[c.surrogate_cpu for c in candidates],
        client_cpu=[c.client_cpu for c in candidates],
        candidate=candidates.__getitem__,
    )


def _freeing(policy, candidates, ctx) -> List[int]:
    required = policy.min_free_fraction * ctx.heap_capacity
    eligible = [i for i, c in enumerate(candidates)
                if c.surrogate_memory >= required]
    if not eligible:
        raise NoBeneficialPartitionError(
            f"no candidate frees the required {required:.0f} bytes"
        )
    return eligible


def _moving_compute(candidates) -> List[int]:
    offloading = [i for i, c in enumerate(candidates) if c.surrogate_cpu > 0]
    if not offloading:
        raise NoBeneficialPartitionError("no candidate moves any computation")
    return offloading


def _memory(policy, candidates, ctx) -> int:
    return min(
        _freeing(policy, candidates, ctx),
        key=lambda i: (candidates[i].cut_bytes,
                       -candidates[i].surrogate_memory),
    )


def _combined(policy, candidates, ctx) -> int:
    return min(
        _freeing(policy, candidates, ctx),
        key=lambda i: predict_completion_time(candidates[i], ctx),
    )


def _cpu(policy, candidates, ctx) -> int:
    best = min(
        _moving_compute(candidates),
        key=lambda i: predict_completion_time(candidates[i], ctx),
    )
    predicted = predict_completion_time(candidates[best], ctx)
    original_time = ctx.total_cpu / ctx.client_speed
    if predicted >= original_time * (1.0 - policy.min_speedup_fraction):
        raise NoBeneficialPartitionError(
            f"best candidate predicts {predicted:.1f}s vs "
            f"{original_time:.1f}s locally"
        )
    return best


def _best_effort(policy, candidates, ctx) -> int:
    offloading = _moving_compute(candidates)
    max_cpu = max(candidates[i].surrogate_cpu for i in offloading)
    eligible = [i for i in offloading
                if candidates[i].surrogate_cpu >= 0.95 * max_cpu]
    return min(eligible, key=lambda i: (candidates[i].cut_bytes,
                                        candidates[i].cut_count))


def _energy(policy, candidates, ctx) -> int:
    power = policy.power
    best = min(
        _moving_compute(candidates),
        key=lambda i: predict_client_energy(candidates[i], ctx, power),
    )
    predicted = predict_client_energy(candidates[best], ctx, power)
    baseline = local_energy(ctx, power)
    if predicted >= baseline * (1.0 - policy.min_saving_fraction):
        raise NoBeneficialPartitionError(
            f"best candidate predicts {predicted:.1f}J vs "
            f"{baseline:.1f}J locally"
        )
    return best


_RULES = {
    MemoryPartitionPolicy: _memory,
    CombinedPartitionPolicy: _combined,
    CpuPartitionPolicy: _cpu,
    BestEffortCpuPolicy: _best_effort,
    EnergyPartitionPolicy: _energy,
}


def oracle_select(
    policy, candidates: List[CandidatePartition], ctx: EvaluationContext
) -> int:
    """The index ``policy`` should pick from ``candidates``.

    Raises :class:`NoBeneficialPartitionError` with the policy's
    refusal message when it should refuse every candidate.
    """
    return _RULES[type(policy)](policy, candidates, ctx)


def memory_loop_select(policy: MemoryPartitionPolicy, chain,
                       ctx: EvaluationContext) -> int:
    """The memory policy's former scan, one Python step per candidate.

    ``MemoryPartitionPolicy`` now picks the first least-cut candidate
    of a chain's freeing prefix at C speed; this loop is the rule it
    replaced, kept as the oracle for that prefix rule.
    """
    required = policy.min_free_fraction * ctx.heap_capacity
    memory = chain.surrogate_memory
    cut_bytes = chain.cut_bytes
    best = -1
    best_bytes = 0
    best_memory = 0
    for i in range(chain.k):
        freed = memory[i]
        if freed >= required:
            nbytes = cut_bytes[i]
            # Strict improvement only: ties keep the earliest
            # candidate, exactly like min() over the list.
            if (best < 0 or nbytes < best_bytes
                    or (nbytes == best_bytes and freed > best_memory)):
                best = i
                best_bytes = nbytes
                best_memory = freed
    if best < 0:
        raise NoBeneficialPartitionError(
            f"no candidate frees the required {required:.0f} bytes"
        )
    return best
