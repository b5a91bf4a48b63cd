"""Tests for the emulator facade and prototype/emulator agreement."""

import dataclasses

import pytest

from repro.config import DeviceProfile, EnhancementFlags, GCConfig, VMConfig
from repro.core.policy import OffloadPolicy, TriggerConfig, policy_sweep
from repro.emulator import (
    ColumnarTrace,
    Emulator,
    EmulatorConfig,
    UNCONSTRAINED_HEAP,
    record_application,
)
from repro.errors import ConfigurationError
from repro.platform.platform import DistributedPlatform
from repro.units import KB, MB

from tests.platform.test_platform import HoarderApp, pressure_gc


@pytest.fixture(scope="module")
def hoarder_trace():
    return record_application(HoarderApp(segments=60))


def emulator_config(client_heap=128 * KB, threshold=0.05, tolerance=1,
                    min_free=0.20):
    return EmulatorConfig(
        client=DeviceProfile("jornada", cpu_speed=1.0,
                             heap_capacity=client_heap),
        surrogate=DeviceProfile("pc", cpu_speed=1.0,
                                heap_capacity=64 * MB),
        gc=pressure_gc(),
        policy=OffloadPolicy(
            TriggerConfig(free_threshold=threshold, tolerance=tolerance),
            min_free,
        ),
    )


class TestFacade:
    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            Emulator(ColumnarTrace())

    def test_original_uses_unconstrained_heap(self, hoarder_trace):
        emulator = Emulator(hoarder_trace)
        result = emulator.original(emulator_config())
        assert result.completed
        assert result.offload_count == 0
        assert result.peak_client_bytes < UNCONSTRAINED_HEAP

    def test_overhead_study(self, hoarder_trace):
        emulator = Emulator(hoarder_trace)
        study = emulator.overhead_study(emulator_config())
        assert study.offloaded.completed
        assert study.offloaded.offload_count == 1
        assert study.overhead_seconds > 0
        assert study.overhead_fraction == pytest.approx(
            -study.speedup_fraction
        )

    def test_policy_sweep_returns_all_policies(self, hoarder_trace):
        emulator = Emulator(hoarder_trace)
        policies = policy_sweep(thresholds=(0.05, 0.25),
                                tolerances=(1,),
                                min_free_fractions=(0.10, 0.40))
        outcomes = emulator.policy_sweep(policies, emulator_config())
        assert len(outcomes) == 4
        assert all(isinstance(r.total_time, float) for _, r in outcomes)

    def test_best_policy_prefers_completion(self, hoarder_trace):
        emulator = Emulator(hoarder_trace)
        policies = policy_sweep(thresholds=(0.02, 0.50),
                                tolerances=(1, 3),
                                min_free_fractions=(0.10, 0.20))
        best_policy, best = emulator.best_policy(
            policies, emulator_config()
        )
        assert best is not None
        assert best.completed

    def test_replays_are_independent(self, hoarder_trace):
        emulator = Emulator(hoarder_trace)
        first = emulator.replay(emulator_config())
        second = emulator.replay(emulator_config())
        assert first.total_time == pytest.approx(second.total_time)
        assert first.offload_count == second.offload_count


class TestPrototypeAgreement:
    """The emulator replays what the live prototype executes.

    Both paths share the AIDE modules and the time model, so an
    identical configuration must agree on the offloading decision and
    land within a few percent on total time (small differences come
    from GC pause accounting, which the replayer does not model).
    """

    def make_platform(self):
        gc = pressure_gc()
        client = VMConfig(
            device=DeviceProfile("jornada", cpu_speed=1.0,
                                 heap_capacity=128 * KB),
            gc=gc, monitoring_event_cost=0.0,
        )
        surrogate = VMConfig(
            device=DeviceProfile("pc", cpu_speed=1.0,
                                 heap_capacity=64 * MB),
            gc=gc, monitoring_event_cost=0.0,
        )
        return DistributedPlatform(
            client_config=client, surrogate_config=surrogate,
            offload_policy=OffloadPolicy(
                TriggerConfig(free_threshold=0.05, tolerance=1), 0.20
            ),
        )

    def test_emulator_matches_prototype(self, hoarder_trace):
        platform = self.make_platform()
        report = platform.run(HoarderApp(segments=60))
        emulated = Emulator(hoarder_trace).replay(emulator_config())
        assert emulated.completed
        assert emulated.offload_count == report.offload_count == 1
        # The prototype migrates mid-frame (the triggering allocation
        # sits inside a live method whose remaining accesses then go
        # remote); the replayer applies migration between events.  On a
        # sub-second toy run that divergence is a handful of RPCs, hence
        # the 15% tolerance; at full workload scale it is negligible.
        assert emulated.total_time == pytest.approx(
            report.elapsed, rel=0.15
        )
        assert emulated.remote_invocations == pytest.approx(
            report.remote_invocations, abs=3
        )
        proto_decision = platform.engine.performed_events[0].decision
        emu_decision = emulated.offloads[0].decision
        shared = proto_decision.offload_nodes & emu_decision.offload_nodes
        assert shared, "both paths should offload an overlapping cluster"


@pytest.mark.parametrize("app_name", ["javanote", "dia", "biomer"])
def test_memory_offloads_match_the_prototype(app_name):
    """Section 5.1's memory config: both hosts run one offloading
    engine, so the emulator makes the prototype's decisions."""
    from repro.experiments import cached_trace, memory_emulator_config
    from repro.experiments.common import (
        CHAI_GC, CLIENT_6MB, SURROGATE_SAME_SPEED,
    )
    from repro.experiments.exp_overhead import MEMORY_WORKLOADS

    factory = MEMORY_WORKLOADS[app_name]
    emulated = Emulator(cached_trace(app_name, factory)).replay(
        memory_emulator_config()
    )
    platform = DistributedPlatform(
        client_config=VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                               monitoring_event_cost=0.0),
        surrogate_config=VMConfig(device=SURROGATE_SAME_SPEED, gc=CHAI_GC,
                                  monitoring_event_cost=0.0),
        offload_policy=OffloadPolicy.initial(),
    )
    platform.run(factory())
    prototype = platform.engine.events
    assert len(prototype) == len(emulated.offloads) == 1
    assert prototype[0].performed
    for ours, theirs in zip(prototype, emulated.offloads):
        assert ours.decision.beneficial == theirs.decision.beneficial
        assert ours.decision.offload_nodes == theirs.decision.offload_nodes
