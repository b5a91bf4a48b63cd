"""The four benchmark workloads.

Each workload builds its inputs in :meth:`Workload.setup` (recording
traces, converting them to columns, deriving configs) and exposes one
*pass* as a list of named items.  An item drives the program through its
public API and returns an :class:`Outcome`: the sha256 of the result's
canonical fingerprint, the emulated (virtual) completion seconds, the
events it processed, and the counters the traced run turns into ratios.

Every input derives from the workload seed.  At :data:`DEFAULT_SEED` the
applications and fault specs keep their stock seeds, which is what the
checked-in goldens were recorded at.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro import analysis
from repro.apps import ALL_APPLICATIONS, Biomer, Dia, JavaNote
from repro.config import EnhancementFlags, VMConfig
from repro.core.policy import OffloadPolicy
from repro.emulator import (
    AllocEvent, ColumnarTrace, FaultSpec, MobilityConfig, TraceReplayer,
    record_application,
)
from repro.experiments import memory_emulator_config
from repro.experiments.common import (
    CHAI_GC, CLIENT_6MB, SURROGATE_SAME_SPEED, cpu_emulator_config,
)
from repro.net.mobility import NAMED_PROFILES
from repro.platform import DistributedPlatform
from repro.rpc.batch import DataPlaneConfig

DEFAULT_SEED = 0

#: The three apps of the paper's memory study (section 5.1).
MEMORY_APPS = (JavaNote, Dia, Biomer)

#: Coalescing plus the remote-read cache.
DATA_PLANE_ON = DataPlaneConfig(coalescing=True, read_cache=True)


def derive_seed(seed: int, label: str, default: int) -> int:
    """A per-input seed: ``default`` at the default workload seed."""
    if seed == DEFAULT_SEED:
        return default
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def seeded_app(cls, seed: int):
    default = cls()
    if seed == DEFAULT_SEED:
        return default
    return cls(seed=derive_seed(seed, default.name, default.seed))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one item produced."""

    fingerprint: str
    virtual_s: float
    events: int
    completed: bool
    counters: Dict[str, float] = field(default_factory=dict)


def replay_outcome(result) -> Outcome:
    counters = {}
    if result.reeval is not None:
        counters["epochs"] = result.reeval.epochs
        counters["cold_epochs"] = result.reeval.cold_runs
    if result.data_plane is not None:
        counters["dp_ops"] = result.data_plane.ops
        counters["dp_batches"] = result.data_plane.batches
        counters["cache_hits"] = result.data_plane.cache.hits
        counters["cache_lookups"] = result.data_plane.cache.lookups
    if result.faults is not None:
        counters["retries"] = result.faults.retries
    return Outcome(
        fingerprint=sha256(result.fingerprint()),
        virtual_s=result.total_time,
        events=result.events_processed,
        completed=result.completed,
        counters=counters,
    )


Item = Tuple[str, Callable[[], Outcome]]


class Workload:
    """One set of inputs and the pass that runs over them."""

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def items(self) -> List[Item]:
        raise NotImplementedError

    def check_pass(self, outcomes: Dict[str, Outcome]) -> List[str]:
        """Cross-item checks; returns the names of the items that fail."""
        return []


def _replay_item(trace, config) -> Callable[[], Outcome]:
    return lambda: replay_outcome(TraceReplayer(trace, config).run())


class Replay(Workload):
    """All five apps replayed row and columnar under the memory config.

    The dispatch loop and graph updates are the work; the partitioner
    runs at most once per item.
    """

    name = "replay"

    def setup(self, seed: int) -> None:
        self.traces = []
        for cls in ALL_APPLICATIONS:
            trace = record_application(seeded_app(cls, seed))
            self.traces.append((trace, ColumnarTrace.from_trace(trace)))
        self.config = memory_emulator_config()

    def items(self) -> List[Item]:
        items = []
        for row, columnar in self.traces:
            items.append((f"{row.app_name}/row",
                          _replay_item(row, self.config)))
            items.append((f"{row.app_name}/columnar",
                          _replay_item(columnar, self.config)))
        return items

    def check_pass(self, outcomes: Dict[str, Outcome]) -> List[str]:
        # Row and columnar replays of one trace must agree byte for byte.
        failed = []
        for row, _ in self.traces:
            a, b = f"{row.app_name}/row", f"{row.app_name}/columnar"
            if (a in outcomes and b in outcomes
                    and outcomes[a].fingerprint != outcomes[b].fingerprint):
                failed.append(b)
        return failed


def offloadable_nodes(trace, top_n: int = 3) -> frozenset:
    """The ``top_n`` unpinned classes by allocated bytes."""
    pinned = set(trace.pinned_classes(stateless_natives_ok=False))
    pinned.add("<main>")
    sizes: Dict[str, int] = {}
    for event in trace.events:
        if isinstance(event, AllocEvent) and event.class_name not in pinned:
            sizes[event.class_name] = sizes.get(event.class_name, 0) + event.size
    return frozenset(sorted(sizes, key=sizes.get, reverse=True)[:top_n])


class FaultyReplay(Workload):
    """Forced offload under loss, loss with the data plane, a crash and a
    roaming handoff: the only workload where the rpc and net layers work.
    """

    name = "faulty-replay"

    def setup(self, seed: int) -> None:
        self.runs = []
        roam = NAMED_PROFILES["wavelan-wan-roam"]
        for cls in MEMORY_APPS:
            trace = record_application(seeded_app(cls, seed))
            columnar = ColumnarTrace.from_trace(trace)
            app = trace.app_name
            offload_at = max(1, len(trace.events) // 10)
            base = replace(cpu_emulator_config(offload_at_event=offload_at),
                           forced_offload_nodes=offloadable_nodes(trace))
            loss = FaultSpec(seed=derive_seed(seed, f"{app}/loss", 1),
                             loss_rate=0.05)
            crash = FaultSpec(seed=derive_seed(seed, f"{app}/crash", 7),
                              crash_at_event=2 * offload_at)
            clean = FaultSpec(seed=derive_seed(seed, f"{app}/roam", 0))
            configs = (
                ("loss", base.with_faults(loss)),
                ("loss-dataplane",
                 replace(base.with_faults(loss), data_plane=DATA_PLANE_ON)),
                ("crash", base.with_faults(crash)),
                ("roam-handoff",
                 replace(base.with_faults(clean), data_plane=DATA_PLANE_ON)
                 .with_profile(roam, MobilityConfig(mode="handoff"))),
            )
            for label, config in configs:
                self.runs.append((f"{app}/{label}", columnar, config))

    def items(self) -> List[Item]:
        return [(name, _replay_item(trace, config))
                for name, trace, config in self.runs]


class Reeval(Workload):
    """Global placement re-evaluated every virtual second: the
    partitioner's warm and cold epochs are a large share of the work.
    """

    name = "reeval"

    def setup(self, seed: int) -> None:
        self.config = replace(
            memory_emulator_config(),
            single_shot=False,
            reevaluate_every=1.0,
            flags=EnhancementFlags(arrays_object_granularity=True),
        )
        self.traces = [
            ColumnarTrace.from_trace(record_application(seeded_app(cls, seed)))
            for cls in MEMORY_APPS
        ]

    def items(self) -> List[Item]:
        return [(trace.app_name, _replay_item(trace, self.config))
                for trace in self.traces]


class Prototype(Workload):
    """Static analysis, then the two-VM platform with a cold-start seed
    and the data plane: the only workload that runs the guest VM.
    """

    name = "prototype"

    def setup(self, seed: int) -> None:
        self.apps = [seeded_app(cls, seed) for cls in MEMORY_APPS]
        self.vm_config = VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                                  monitoring_event_cost=0.0)
        self.surrogate_config = VMConfig(device=SURROGATE_SAME_SPEED,
                                         gc=CHAI_GC, monitoring_event_cost=0.0)

    def _run(self, app) -> Outcome:
        seed = analysis.analyze_app(app.name).analysis.seed
        platform = DistributedPlatform(
            client_config=self.vm_config,
            surrogate_config=self.surrogate_config,
            offload_policy=OffloadPolicy.initial(),
            cold_start=seed,
            data_plane=DATA_PLANE_ON,
        )
        # A fresh copy of the app per run: installing mutates nothing on
        # it, but a pass must not depend on what an earlier pass did.
        report = platform.run(type(app)(seed=app.seed))
        stats = platform.data_plane.stats
        counters = {
            "dp_ops": stats.ops,
            "dp_batches": stats.batches,
            "cache_hits": stats.cache.hits,
            "cache_lookups": stats.cache.lookups,
        }
        return Outcome(
            fingerprint=sha256(json.dumps(asdict(report), sort_keys=True)),
            virtual_s=report.elapsed,
            events=platform.monitor.counters.interaction_events,
            completed=True,
            counters=counters,
        )

    def items(self) -> List[Item]:
        return [(app.name, (lambda app=app: self._run(app)))
                for app in self.apps]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Replay, FaultyReplay, Reeval, Prototype)
}
