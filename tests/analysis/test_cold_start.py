"""Cold-start seeding: engine wiring, hint precedence, and the guard.

`ColdStartSeed` flows through two stacks — the live platform
(`DistributedPlatform(cold_start=...)` → `OffloadingEngine
.apply_cold_start`) and the emulator (`EmulatorConfig.cold_start`).
These tests pin the wiring rules: profiles merge into the monitor,
analyzer hints never override developer hints, and a seeded replay of
Dia's early-trigger scenario must match or beat the unseeded one.
"""

from dataclasses import replace

import pytest

from repro.analysis import analyze_app
from repro.core.graph import ExecutionGraph
from repro.core.hints import ColdStartSeed, PlacementHints
from repro.core.policy import OffloadPolicy, TriggerConfig
from repro.emulator import Emulator
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS

from tests.helpers import make_platform


def toy_profile():
    graph = ExecutionGraph()
    graph.ensure_node("<main>")
    graph.ensure_node("t.Helper")
    graph.add_cpu("t.Helper", 1.5)
    graph.record_interaction("<main>", "t.Helper", 4096, count=8)
    return graph


class TestEngineWiring:
    def test_profile_merges_into_monitor(self):
        platform = make_platform()
        platform.engine.apply_cold_start(
            ColdStartSeed(profile=toy_profile())
        )
        graph = platform.monitor.graph
        assert "t.Helper" in set(graph.nodes())
        assert graph.node("t.Helper").cpu_seconds == pytest.approx(1.5)
        edges = {frozenset(key) for key, _ in graph.edges()}
        assert frozenset(("<main>", "t.Helper")) in edges

    def test_none_and_empty_seeds_are_noops(self):
        platform = make_platform()
        before_nodes = set(platform.monitor.graph.nodes())
        platform.engine.apply_cold_start(None)
        platform.engine.apply_cold_start(ColdStartSeed())
        assert set(platform.monitor.graph.nodes()) == before_nodes
        assert platform.engine.partitioner.hints is None

    def test_seed_hints_installed_when_none_present(self):
        platform = make_platform()
        hints = PlacementHints(pin_local=frozenset({"t.Helper"}))
        platform.engine.apply_cold_start(ColdStartSeed(hints=hints))
        assert platform.engine.partitioner.hints is hints

    def test_developer_hints_always_win(self):
        developer = PlacementHints(pin_local=frozenset({"t.Mine"}))
        platform = make_platform()
        platform.engine.partitioner.hints = developer
        analyzer = PlacementHints(pin_local=frozenset({"t.Theirs"}))
        platform.engine.apply_cold_start(ColdStartSeed(hints=analyzer))
        assert platform.engine.partitioner.hints is developer

    def test_platform_constructor_threads_seed(self):
        from tests.helpers import quiet_gc
        from repro.config import DeviceProfile, VMConfig
        from repro.net.wavelan import WAVELAN_11MBPS
        from repro.platform.platform import DistributedPlatform
        from repro.units import KB

        gc = quiet_gc()
        platform = DistributedPlatform(
            client_config=VMConfig(
                device=DeviceProfile("jornada", cpu_speed=1.0,
                                     heap_capacity=256 * KB),
                gc=gc, monitoring_event_cost=0.0),
            surrogate_config=VMConfig(
                device=DeviceProfile("pc", cpu_speed=3.5,
                                     heap_capacity=4 * 1024 * KB),
                gc=gc, monitoring_event_cost=0.0),
            link=WAVELAN_11MBPS,
            offload_policy=OffloadPolicy(
                TriggerConfig(free_threshold=0.05, tolerance=1), 0.20),
            cold_start=ColdStartSeed(profile=toy_profile()),
        )
        assert "t.Helper" in set(platform.monitor.graph.nodes())


class TestAnalyzerSeed:
    def test_dia_seed_is_nonempty_and_sourced(self):
        seed = analyze_app("dia").analysis.seed
        assert not seed.empty
        assert seed.profile is not None
        assert seed.profile.node_count > 0
        assert seed.source == "static-analysis:dia"

    def test_dia_seed_pins_image_loader(self):
        # The pinned-affinity rule's canonical catch: the chatty,
        # memory-light loader stays with the natives it talks to.
        seed = analyze_app("dia").analysis.seed
        assert seed.hints is not None
        assert "dia.ImageLoader" in seed.hints.pin_local

    def test_seeded_replay_matches_or_beats_unseeded(self):
        # The acceptance guard: on Dia's early-trigger scenario the
        # hint-seeded first partition must not lose to the unseeded one.
        trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
        seed = analyze_app("dia").analysis.seed
        early = OffloadPolicy(
            TriggerConfig(free_threshold=0.50, tolerance=1), 0.20)
        config = memory_emulator_config(policy=early)
        unseeded = Emulator(trace).replay(config)
        seeded = Emulator(trace).replay(replace(config, cold_start=seed))
        assert seeded.completed and unseeded.completed
        assert seeded.total_time <= unseeded.total_time * 1.0001


#: Prints the cold-start profile's node, edge and adjacency order for
#: the memory-study apps.
_PROFILE_ORDER_SCRIPT = """
from repro.analysis import analyze_app
for app in ("javanote", "dia", "biomer"):
    profile = analyze_app(app).analysis.seed.profile
    print(repr((list(profile.nodes()), [key for key, _ in profile.edges()],
                [list(profile.neighbors(n)) for n in profile.nodes()])))
"""


def test_profile_order_does_not_depend_on_the_hash_seed():
    """The predicted graph walks its candidate sets in sorted order, so
    the seed (and every graph seeded from it) is laid out the same way
    whatever ``PYTHONHASHSEED`` the process drew."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _PROFILE_ORDER_SCRIPT], env=env,
            check=True, capture_output=True, text=True).stdout)
    assert outputs[0].count("\n") == 3
    assert outputs[0] == outputs[1]
