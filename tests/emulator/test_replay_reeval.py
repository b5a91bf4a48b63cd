"""Golden parity: incremental re-evaluation vs the force-cold escape hatch.

Replaying a real trace with periodic re-evaluation enabled must produce
the *identical* offload-event sequence whether the partitioning runs
through the incremental session (warm starts + chain reuse) or through
full cold runs every epoch.  Timing fields that measure the partitioner
itself (``compute_seconds``) and the incremental bookkeeping flags are
excluded — they are the only places the two paths may differ.
"""

import dataclasses

import pytest

from repro.config import EnhancementFlags
from repro.core.energy import EnergyPartitionPolicy
from repro.core.flatgraph import FlatGraph
from repro.emulator import Emulator
from repro.experiments import (
    cached_trace,
    cpu_emulator_config,
    memory_emulator_config,
)
from repro.experiments.exp_overhead import MEMORY_WORKLOADS


def offload_signature(result):
    """Every observable field of the offload sequence, bit-for-bit."""
    signature = []
    for offload in result.offloads:
        decision = offload.decision
        signature.append((
            offload.time,
            offload.migrated_bytes,
            offload.migrated_objects,
            decision.beneficial,
            tuple(sorted(decision.offload_nodes)),
            tuple(sorted(decision.client_nodes)),
            decision.cut_bytes,
            decision.cut_count,
            decision.freed_bytes,
            decision.predicted_bandwidth,
            decision.candidates_evaluated,
            decision.policy_name,
            decision.refusal_reason,
        ))
    return signature


def reeval_config(**overrides):
    base = memory_emulator_config()
    return dataclasses.replace(
        base, single_shot=False, reevaluate_every=5.0, **overrides
    )


@pytest.mark.parametrize("app_name", ["dia", "javanote"])
def test_incremental_replay_is_byte_identical_to_cold(app_name):
    trace = cached_trace(app_name, MEMORY_WORKLOADS[app_name])
    emulator = Emulator(trace)
    incremental = emulator.replay(reeval_config())
    cold = emulator.replay(reeval_config(force_cold=True))
    assert offload_signature(incremental) == offload_signature(cold)
    assert incremental.total_time == cold.total_time
    assert incremental.final_offload_nodes == cold.final_offload_nodes
    assert incremental.remote_bytes == cold.remote_bytes
    assert incremental.gc_cycles == cold.gc_cycles


@pytest.mark.parametrize("app_name", ["dia", "javanote"])
def test_reevaluation_epochs_actually_run_and_warm(app_name):
    trace = cached_trace(app_name, MEMORY_WORKLOADS[app_name])
    result = Emulator(trace).replay(reeval_config())
    stats = result.reeval
    assert stats is not None
    assert stats.epochs == len(result.offloads)
    # Periodic re-evaluation fired beyond the initial trigger...
    assert stats.epochs > 1
    # ...and at least some epochs avoided a full cold run.
    assert stats.warm_hits + stats.reuse_hits + stats.cache_hits > 0


def test_force_cold_counts_every_epoch_cold():
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    result = Emulator(trace).replay(reeval_config(force_cold=True))
    stats = result.reeval
    assert stats.epochs > 1
    assert stats.cold_runs == stats.epochs
    assert stats.warm_hits == 0
    assert stats.reuse_hits == 0


def test_single_shot_replay_reports_one_epoch():
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    result = Emulator(trace).replay(memory_emulator_config())
    assert result.reeval is not None
    assert result.reeval.epochs == len(result.offloads)


def test_energy_policy_reevaluation_replays_memoised_winners():
    """Reuse epochs under an unchanged context rerun the energy policy
    on the reused chain, and the session counts them as cache hits."""
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    config = dataclasses.replace(
        cpu_emulator_config(offload_at_event=len(trace) // 4),
        partition_policy=EnergyPartitionPolicy(),
        reevaluate_every=5.0,
    )
    result = Emulator(trace).replay(config)
    assert result.reeval.epochs > 1
    assert result.reeval.cache_hits > 0


def test_node_churn_patches_the_snapshot_without_recompiling(monkeypatch):
    """Array granularity adds object nodes every epoch; each epoch's
    sync appends them, so a replay compiles its snapshot exactly once."""
    compiles = []
    compile_snapshot = FlatGraph.try_compile.__func__

    def counting(cls, graph):
        compiles.append(graph.node_count)
        return compile_snapshot(cls, graph)

    monkeypatch.setattr(FlatGraph, "try_compile", classmethod(counting))
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    result = Emulator(trace).replay(reeval_config(
        flags=EnhancementFlags(arrays_object_granularity=True),
    ))
    assert result.reeval.fallback_node_churn > 0
    assert len(compiles) == 1
