"""Ablation: predicted vs realised cost over the whole candidate chain.

The paper's Biomer anecdote — the policy predicted 790 s for its best
candidate and refused, yet a manual partitioning realised 711 s — is a
statement about *prediction error*: history-based extrapolation is
conservative when the workload's phases shift.

This oracle study makes that gap measurable: it takes every candidate
the modified MINCUT heuristic produced for Biomer's CPU trace, force-
applies each in a separate replay, and compares the policy's predicted
completion time against the realised one.
"""

import dataclasses

from repro.config import EnhancementFlags
from tests.core.mincut_oracle import generate_candidates
from repro.core.policy import predict_completion_time
from repro.emulator import Emulator, TraceReplayer
from repro.experiments import (
    CPU_OFFLOAD_EVENT_FRACTION,
    cached_trace,
    cpu_emulator_config,
)
from repro.experiments.exp_cpu import CPU_WORKLOADS

FLAGS = EnhancementFlags(True, True)


def run_oracle():
    trace = cached_trace("biomer-cpu", CPU_WORKLOADS["biomer"],
                         variant="cpu")
    offload_at = int(len(trace) * CPU_OFFLOAD_EVENT_FRACTION["biomer"])
    base = dataclasses.replace(cpu_emulator_config(offload_at), flags=FLAGS)
    emulator = Emulator(trace)
    original = emulator.replay(
        dataclasses.replace(base, offload_enabled=False)
    ).total_time

    # Reconstruct the candidate chain exactly as the policy saw it.
    probe = TraceReplayer(
        trace, dataclasses.replace(base, offload_enabled=False)
    )
    seen = {"ctx": None, "candidates": None}

    class GraphProbe(TraceReplayer):
        def _attempt_offload(self):
            seen["candidates"] = generate_candidates(
                self.graph, self.pinned_nodes()
            )
            seen["ctx"] = self.evaluation_context()

    GraphProbe(trace, base).run()
    candidates = seen["candidates"]
    ctx = seen["ctx"]

    rows = []
    movers = [c for c in candidates if c.surrogate_cpu > 0][:6]
    for candidate in movers:
        predicted = predict_completion_time(candidate, ctx)
        realised = emulator.replay(dataclasses.replace(
            base, forced_offload_nodes=candidate.surrogate_nodes
        )).total_time
        rows.append((len(candidate.surrogate_nodes), predicted, realised))
    return original, ctx.total_cpu / ctx.client_speed, rows


def test_ablation_prediction_vs_realised(once):
    original, history_local, rows = once(run_oracle)
    print()
    print("Oracle: predicted (if history repeated) vs realised, Biomer CPU "
          "trace, combined enhancements")
    print(f"  original (local) run: {original:.1f}s; "
          f"history-local at decision time: {history_local:.1f}s")
    print(f"  {'|offload|':>10} {'predicted':>11} {'realised':>10}")
    for size, predicted, realised in rows:
        print(f"  {size:>10} {predicted:>10.1f}s {realised:>9.1f}s")
    # The paper's shape: prediction is conservative — every compute-
    # moving candidate predicts worse than history-local execution...
    assert all(predicted >= history_local for _, predicted, _ in rows)
    # ...yet at least one candidate *realises* better than local
    # execution (the manual-partitioning win).
    assert any(realised < original for _, _, realised in rows)
