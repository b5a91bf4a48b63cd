"""Partitioner hot-path profiler: ``python -m benchmarks.profile_partition``.

Runs the flat-CSR partitioning hot path under :mod:`cProfile` on the
same synthetic graph the bench report uses and prints the top-20
functions by cumulative time.  The synthetic graph has no pendants
(nodes with one neighbour), while an object-granularity replay's graph
is mostly pendants: javanote's is a core of classes plus ~1,600
single-edge array objects on a few hubs, and the cold kernel moves
those in runs.  So one more cold round partitions that shape, the same
core plus as many single-edge objects spread over a few hubs.  The cold
rounds are followed by one incremental session on that shape over a few
growth epochs, each appending single-edge objects on the same hubs (the
shape of javanote's churn epochs), so a churn epoch's ``sync``, re-rank,
cold rerun and policy scan show up in the profile too.  Meant for quick
"where did the milliseconds go" triage after touching
``core/flatgraph.py`` or ``core/graph.py`` — the CI bench-smoke job
uploads the output as an artifact so a regression report always ships
with its hotspot profile.

Examples::

    python -m benchmarks.profile_partition --nodes 5000
    python -m benchmarks.profile_partition --nodes 20000 --rounds 3 \
        --output profile_partition.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import random
import sys
from typing import List

from benchmarks.test_perf_components import synthetic_graph

from repro.core.graph import ExecutionGraph
from repro.core.partitioner import IncrementalPartitioner, Partitioner
from repro.core.policy import EvaluationContext, MemoryPartitionPolicy

TOP_FUNCTIONS = 20
#: Epochs of the profiled incremental session after the cold rounds.
GROWTH_EPOCHS = 5
#: Hubs that own the single-edge objects of the javanote-shaped round.
OBJECT_HUBS = 4


def object_hubs(node_count: int, rng: random.Random) -> List[str]:
    """The :data:`OBJECT_HUBS` core nodes that own the objects."""
    return [f"c{i:04d}" for i in rng.sample(range(node_count),
                                             min(OBJECT_HUBS, node_count))]


def add_object(graph: ExecutionGraph, hubs: List[str], obj: str,
               rng: random.Random) -> None:
    """One single-edge object node owned by one of ``hubs``."""
    graph.add_memory(obj, rng.randrange(16, 4096))
    graph.record_interaction(rng.choice(hubs), obj, rng.randrange(16, 4096))


def with_objects(graph: ExecutionGraph, node_count: int) -> ExecutionGraph:
    """A copy of ``graph`` plus ``node_count`` single-edge object nodes
    spread over :data:`OBJECT_HUBS` of its nodes: the shape object
    granularity gives javanote's graph."""
    shaped = graph.copy()
    rng = random.Random(13)
    hubs = object_hubs(node_count, rng)
    for i in range(node_count):
        add_object(shaped, hubs, f"o{i:05d}", rng)
    return shaped


def profile_partition(node_count: int, rounds: int = 5,
                      top: int = TOP_FUNCTIONS) -> str:
    """Profile ``rounds`` cold partitions at ``node_count`` nodes.

    Returns the formatted cProfile report (top ``top`` entries by
    cumulative time).  Each round uses a fresh :class:`Partitioner` so
    the flat-snapshot compile cost shows up in the profile alongside
    the per-partition kernel cost instead of being hidden by the
    module-level snapshot cache.  One more cold round partitions the
    graph with as many single-edge objects added (:func:`with_objects`).
    Then one :class:`IncrementalPartitioner` session runs ``GROWTH_EPOCHS``
    epochs on a copy of that graph, each after appending single-edge
    objects (1% of ``node_count``) on the same hubs, named to sort
    among the existing nodes: javanote's churn epochs, which rerun cold.
    """
    graph = synthetic_graph(node_count)
    pinned = [f"c{i:04d}" for i in range(0, node_count, 10)]
    ctx = EvaluationContext(heap_capacity=graph.total_memory())
    shaped = with_objects(graph, node_count)
    shaped_ctx = EvaluationContext(heap_capacity=shaped.total_memory())
    growing = shaped.copy()
    hubs = object_hubs(node_count, random.Random(13))
    rng = random.Random(11)
    per_epoch = max(1, node_count // 100)

    def run() -> None:
        for _ in range(rounds):
            partitioner = Partitioner(MemoryPartitionPolicy(0.20))
            partitioner.partition(graph, pinned, ctx)
        Partitioner(MemoryPartitionPolicy(0.20)).partition(
            shaped, pinned, shaped_ctx)
        session = IncrementalPartitioner(
            Partitioner(MemoryPartitionPolicy(0.20)))
        session.partition(growing, pinned, shaped_ctx)
        for epoch in range(GROWTH_EPOCHS):
            for i in range(per_epoch):
                add_object(growing, hubs, f"g{epoch}-{i:04d}", rng)
            session.partition(growing, pinned, EvaluationContext(
                heap_capacity=growing.total_memory()))

    profiler = cProfile.Profile()
    profiler.runcall(run)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    header = (f"profile_partition: {node_count} nodes, {rounds} rounds, "
              f"one round with {node_count} single-edge objects on "
              f"{OBJECT_HUBS} hubs, then {GROWTH_EPOCHS} growth epochs "
              f"adding {max(1, node_count // 100)} of them each, "
              f"flat-CSR kernel, top {top} by cumulative time\n")
    return header + buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.profile_partition",
        description="cProfile the partitioner hot path on a synthetic "
                    "graph and print the top cumulative hotspots.")
    parser.add_argument("--nodes", type=int, default=5000,
                        help="synthetic graph size (default: 5000)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="cold partitions to profile (default: 5)")
    parser.add_argument("--top", type=int, default=TOP_FUNCTIONS,
                        help="number of hotspot rows (default: 20)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file "
                             "(stdout is always printed)")
    args = parser.parse_args(argv)

    if args.nodes < 1 or args.rounds < 1 or args.top < 1:
        parser.error("--nodes, --rounds and --top must be positive")

    report = profile_partition(args.nodes, rounds=args.rounds, top=args.top)
    sys.stdout.write(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
