"""Checked-in monitor-graph digests: the oracle for the platform's graph.

``monitor_graph_goldens.json`` maps each app (javanote, dia, biomer) at
class and array granularity to digests of the live
:class:`~repro.core.monitor.ExecutionMonitor` of one
:class:`~repro.platform.DistributedPlatform` run under the ``prototype``
benchmark's config: a 6 MB client, the static-analysis cold-start seed,
and the data plane (coalescing plus the read cache).

A digest is taken at every read a decision makes: at the start of
every ``OffloadingEngine.attempt`` that hands ``monitor.graph`` to the
partitioning session (a mark), after every GC report (``on_gc_report``
reads the folded graph's link count, which is not a mark, so the probe
digests that graph without marking either), and after the run.  Each
covers the graph's ``to_dict()``, node order, edge order and every
adjacency row's order, plus the monitor's event and remote counters:

* ``trail`` chains the digests of every read, in order;
* ``final`` is the digest after the run;
* ``reads`` counts the reads the trail covers.

``version`` is left out: a fold may bump it fewer times than one update
per event.  :func:`probe_run` also returns each read's ``(content
digest, version)`` so a test can check that the version moves exactly
when the graph does.

The digests were recorded from the monitor folding by the replay's
rules (see :class:`~repro.core.monitor.ExecutionMonitor`).  Re-record
(only when a change is *meant* to alter the monitor's graph)::

    PYTHONPATH=src python -m tests.core.monitor_graph_goldens
"""

import hashlib
import json
from dataclasses import asdict
from itertools import count
from pathlib import Path
from typing import List, Tuple
from unittest import mock

GOLDENS_PATH = Path(__file__).with_name("monitor_graph_goldens.json")

APPS = ("javanote", "dia", "biomer")
GRANULARITIES = ("class", "array")
KEYS = tuple(f"{app}/{granularity}"
             for app in APPS for granularity in GRANULARITIES)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_content(graph) -> str:
    """sha256 over a graph's content and node, edge and adjacency order."""
    # ``repr`` keeps dict insertion order and round-trips every float.
    return _sha(repr((
        graph.to_dict(),
        list(graph.nodes()),
        [key for key, _ in graph.edges()],
        [(node, list(graph.neighbors(node))) for node in graph.nodes()],
    )))


def monitor_digest(monitor, graph) -> str:
    """``graph``'s content digest plus the monitor's counters."""
    return _sha(repr((graph_content(graph), asdict(monitor.counters),
                      asdict(monitor.remote))))


def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def probe_run(key: str) -> Tuple[dict, List[Tuple[str, int]]]:
    """Run one platform, digesting the monitor at every read.

    Returns the golden entry and, per read, the graph's content digest
    and ``version``.
    """
    from repro import analysis
    from repro.apps import Biomer, Dia, JavaNote
    from repro.config import EnhancementFlags, VMConfig
    from repro.core.engine import OffloadingEngine
    from repro.core.monitor import ExecutionMonitor
    from repro.core.policy import OffloadPolicy
    from repro.experiments.common import (
        CHAI_GC, CLIENT_6MB, SURROGATE_SAME_SPEED,
    )
    from repro.platform import DistributedPlatform
    from repro.rpc.batch import DataPlaneConfig

    app_name, granularity = key.split("/")
    trail = hashlib.sha256()
    reads: List[Tuple[str, int]] = []

    def read(monitor, graph) -> None:
        trail.update(monitor_digest(monitor, graph).encode())
        reads.append((graph_content(graph), graph.version))

    class ProbeMonitor(ExecutionMonitor):
        def on_gc_report(self, report, site):
            super().on_gc_report(report, site)
            read(self, self._graph)

    class ProbeEngine(OffloadingEngine):
        def attempt(self, revert_on_refusal=False):
            if not self.host.surrogate_lost:
                monitor = self.host.monitor
                read(monitor, monitor.graph)
            return super().attempt(revert_on_refusal)

    seed = analysis.analyze_app(app_name).analysis.seed
    app_cls = {"javanote": JavaNote, "dia": Dia, "biomer": Biomer}
    # Oids name the array-granular nodes, so every run numbers its
    # objects from 1, whatever ran earlier in the process.
    with mock.patch("repro.platform.platform.ExecutionMonitor",
                    ProbeMonitor), \
            mock.patch("repro.platform.platform.OffloadingEngine",
                       ProbeEngine), \
            mock.patch("repro.vm.objectmodel._oid_counter", count(1)):
        platform = DistributedPlatform(
            client_config=VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                                   monitoring_event_cost=0.0),
            surrogate_config=VMConfig(device=SURROGATE_SAME_SPEED,
                                      gc=CHAI_GC, monitoring_event_cost=0.0),
            offload_policy=OffloadPolicy.initial(),
            flags=EnhancementFlags(
                arrays_object_granularity=granularity == "array"),
            cold_start=seed,
            data_plane=DataPlaneConfig(coalescing=True, read_cache=True),
        )
        platform.run(app_cls[app_name]())
    entry = {"reads": len(reads), "trail": trail.hexdigest(),
             "final": monitor_digest(platform.monitor,
                                     platform.monitor.graph)}
    return entry, reads


def record() -> dict:
    """Run every config and rewrite the goldens file."""
    table = {key: probe_run(key)[0] for key in KEYS}
    GOLDENS_PATH.write_text(json.dumps(table, indent=2) + "\n")
    return table


if __name__ == "__main__":
    for key, value in record().items():
        print(f"{key:16s} {value['reads']:4d} {value['final'][:16]}")
