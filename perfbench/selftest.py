"""Attribution self-test for the benchmark: ``python3 perfbench/selftest.py``.

Slows ``FlatGraph.generate_chain`` by a fixed busy-wait per call and
checks the benchmark's two claims about such a change:

* the traced run charges at least three quarters of the added time to
  ``core.flatgraph``, and moves no other layer more;
* ``reeval``'s ``events_per_s`` falls by more than its bound in
  ``BENCHMARK.json`` while ``replay``'s stays within it (the partitioner
  runs at most once per replay item, so the slowdown barely reaches it).

Untraced comparisons alternate normal and slowed passes and take the
median of the per-pair ratios, so that drift in the box's speed hits
both sides alike.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time

import run
from tracing import Tracer

#: Busy-wait added to every ``FlatGraph.generate_chain`` call.
DELAY_S = 0.010
#: Alternating (normal, slowed) untraced pass pairs per workload.
PAIRS = 3
#: Share of the injected time ``core.flatgraph`` must take up.
ATTRIBUTION_MIN = 0.75


def busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class SlowChain:
    """Patch ``FlatGraph.generate_chain`` with a fixed busy-wait."""

    def __init__(self) -> None:
        from repro.core.flatgraph import FlatGraph

        self.owner = FlatGraph
        self.original = vars(FlatGraph)["generate_chain"]

    def __enter__(self):
        original = self.original

        def generate_chain(*args, **kwargs):
            busy_wait(DELAY_S)
            return original(*args, **kwargs)

        self.owner.generate_chain = generate_chain
        return self

    def __exit__(self, *exc) -> None:
        self.owner.generate_chain = self.original


def timed_pass(workload, tracer=None) -> float:
    _, outcomes, failures, seconds = run.run_pass(workload, tracer)
    if failures or not all(o.completed for o in outcomes.values()):
        raise SystemExit(f"{workload.name}: items failed during self-test")
    return seconds


def slowdown(workload) -> float:
    """Median over alternating pairs of slowed / normal pass time."""
    ratios = []
    for _ in range(PAIRS):
        normal = timed_pass(workload)
        with SlowChain():
            slowed = timed_pass(workload)
        ratios.append(slowed / normal)
    return statistics.median(ratios)


def traced_layers(workload, slow: bool) -> Tracer:
    tracer = Tracer()
    # The slow patch goes in first, so the tracer's wrapper encloses it.
    with SlowChain() if slow else contextlib.nullcontext():
        tracer.install()
        try:
            timed_pass(workload, tracer)
        finally:
            tracer.uninstall()
    return tracer


def main() -> int:
    sys.path.insert(0, str(run.SOURCES))
    import workloads

    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in config["end_to_end"]
                 if m["name"] == "events_per_s")
    reeval = workloads.Reeval()
    reeval.setup(workloads.DEFAULT_SEED)
    replay = workloads.Replay()
    replay.setup(workloads.DEFAULT_SEED)

    base = traced_layers(reeval, slow=False)
    slowed = traced_layers(reeval, slow=True)
    calls = slowed.calls_by("FlatGraph.generate_chain")
    injected = calls * DELAY_S
    before, after = base.layer_self_s(), slowed.layer_self_s()
    moved = {layer: after[layer] - before[layer] for layer in before}
    print(f"injected {injected:.3f} s over {calls} generate_chain calls")
    for layer, delta in sorted(moved.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {delta:+.4f} s")
    checks = {
        "core.flatgraph takes the injected time":
            moved["core.flatgraph"] >= ATTRIBUTION_MIN * injected,
        "core.flatgraph moves most":
            max(moved, key=moved.get) == "core.flatgraph",
    }

    # events_per_s scales as 1 / pass time, so the metric's relative
    # loss is 1 - 1 / slowdown.
    reeval_loss = 1 - 1 / slowdown(reeval)
    replay_loss = 1 - 1 / slowdown(replay)
    print(f"events_per_s loss: reeval {reeval_loss:.3f}, "
          f"replay {replay_loss:.3f} (bound {bound})")
    checks["reeval events_per_s leaves its bound"] = reeval_loss > bound
    checks["replay events_per_s stays inside its bound"] = \
        replay_loss < bound

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
