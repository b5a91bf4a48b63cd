"""Checked-in execution-graph digests: the oracle for the replay's graph.

``graph_goldens.json`` maps each graph-parity config (dia and javanote,
at class and array granularity, under the memory policy, periodic
re-evaluation, and every fault case of ``test_parallel_replay``) to
digests of the replayer's :class:`~repro.core.graph.ExecutionGraph`.
Each digest covers ``to_dict()``, ``list(nodes())`` and ``version``:

* ``trail`` chains the graph as each offload attempt left it (what the
  attempt's decision read, or would have read), in order;
* ``final`` is the graph after ``run``;
* ``attempts`` counts the offload attempts the trail covers.

The digests were recorded from the loop that updated the graph eagerly
on every event, so they hold the folded graph to the eager rules.

Re-record (only when a change is *meant* to alter the replay's graph)::

    PYTHONPATH=src python -m tests.emulator.graph_goldens
"""

import dataclasses
import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("graph_goldens.json")

GRANULARITIES = ("class", "array")


def graph_digest(graph) -> str:
    """sha256 over a graph's content, node order and version."""
    # ``repr`` keeps dict insertion order and round-trips every float.
    payload = repr((graph.to_dict(), list(graph.nodes()), graph.version))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def _with_granularity(config, granularity):
    flags = dataclasses.replace(
        config.flags, arrays_object_granularity=granularity == "array")
    return dataclasses.replace(config, flags=flags)


def graph_runs():
    """``(key, trace, config)`` for every graph-parity config."""
    from repro.experiments import memory_emulator_config

    from . import test_parallel_replay as parallel

    for app in parallel.APPS:
        trace = parallel.trace_for(app)
        memory = memory_emulator_config()
        configs = [
            ("memory", memory),
            ("reeval", dataclasses.replace(
                memory, single_shot=False, reevaluate_every=5.0)),
        ]
        configs.extend((case, parallel.fault_config(trace, case))
                       for case in parallel.FAULT_CASES)
        for granularity in GRANULARITIES:
            for label, config in configs:
                yield (f"{app}/{granularity}/{label}", trace,
                       _with_granularity(config, granularity))


def probe_replay(trace, config) -> dict:
    """Replay once, digesting the graph after every offload attempt."""
    from repro.emulator.replay import TraceReplayer

    trail = hashlib.sha256()
    attempts = [0]

    class GraphProbe(TraceReplayer):
        def _attempt_offload(self, reevaluation=False):
            super()._attempt_offload(reevaluation)
            trail.update(graph_digest(self.graph).encode())
            attempts[0] += 1

    replayer = GraphProbe(trace, config)
    replayer.run()
    return {"attempts": attempts[0], "trail": trail.hexdigest(),
            "final": graph_digest(replayer.graph)}


def record() -> dict:
    """Replay every graph-parity config and rewrite the goldens file."""
    table = {key: probe_replay(trace, config)
             for key, trace, config in graph_runs()}
    GOLDENS_PATH.write_text(json.dumps(table, indent=2) + "\n")
    return table


if __name__ == "__main__":
    for key, value in record().items():
        print(f"{key:36s} {value['attempts']:4d} {value['final'][:16]}")
