"""Fleet emulator: admission control, DRR fairness, eviction, placement.

The serving-side simulation is exercised directly through hand-built
:class:`ClientDemand` profiles (fast, exact control over service times
and footprints); the end-to-end path — replay, dedup, placement,
fingerprint — runs against the cached dia trace.
"""

import math

import pytest

from repro.emulator import (
    FleetConfig,
    FleetEmulator,
    replicate,
)
from repro.emulator.fleet import (
    ADMISSION_REJECT,
    ClientDemand,
    _FleetSimulation,
    place_fleet_clients,
)
from repro.errors import ConfigurationError
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.units import MB

QUANTUM = FleetConfig().service_quantum_s


def demand(client_id, service=1.0, size=MB, reoffload=0.1, load=1.0):
    return ClientDemand(
        client_id=client_id, events=100, service_s=service,
        partition_bytes=size, reoffload_s=reoffload,
        predicted_load=load, replay_sha=f"sha-{client_id}",
    )


def simulate(demands, config, placement=None):
    if placement is None:
        placement = place_fleet_clients(
            {d.client_id: d.predicted_load for d in demands},
            [f"surrogate-{i:02d}" for i in range(config.surrogates)],
        )
    simulation = _FleetSimulation(demands, placement, config)
    simulation.run()
    return simulation


def outcome_of(simulation, client_id):
    return next(o for o in simulation.outcomes if o.client_id == client_id)


class TestAdmissionControl:
    def test_zero_capacity_queue_policy_serves_serially(self):
        # cap=0 under the queue policy is the degenerate pool: every
        # client is still served, but strictly one at a time.
        config = FleetConfig(surrogates=1, admission_cap=0)
        sim = simulate([demand(c) for c in ("a", "b", "c")], config)
        assert all(o.completed for o in sim.outcomes)
        member = sim.members[0]
        assert member.stats.peak_active == 1
        times = [o.completion_s for o in sim.outcomes]
        # Serial service: completions are distinct and evenly spaced
        # one whole (quantized) demand apart.
        assert times == sorted(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(times[0], rel=1e-9)
        # Everyone after the first waited for admission.
        waits = [o.admission_wait_s for o in sim.outcomes]
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(times[0])
        assert waits[2] == pytest.approx(times[1])

    def test_reject_policy_is_deterministic(self):
        config = FleetConfig(surrogates=1, admission_cap=1,
                             admission_policy=ADMISSION_REJECT)
        demands = [demand(c) for c in ("a", "b", "c")]
        first = simulate(demands, config)
        again = simulate(demands, config)
        # Arrival order is id-sorted, so exactly 'a' wins the one slot.
        assert [o.rejected for o in first.outcomes] == [False, True, True]
        refused = outcome_of(first, "b")
        assert "capacity 1" in refused.reject_reason
        assert math.isnan(refused.completion_s)
        assert first.members[0].stats.rejections == 2
        for one, two in zip(first.outcomes, again.outcomes):
            assert (one.rejected, one.completion_s == two.completion_s or
                    math.isnan(one.completion_s)) == (two.rejected, True)

    def test_zero_capacity_reject_refuses_everyone(self):
        config = FleetConfig(surrogates=1, admission_cap=0,
                             admission_policy=ADMISSION_REJECT)
        sim = simulate([demand(c) for c in ("a", "b")], config)
        assert all(o.rejected for o in sim.outcomes)
        assert sim.makespan_s == 0.0

    def test_freed_slot_admits_the_queue_head(self):
        config = FleetConfig(surrogates=1, admission_cap=1)
        sim = simulate([demand("a", service=2.0), demand("b")], config)
        b = outcome_of(sim, "b")
        a = outcome_of(sim, "a")
        assert b.admission_wait_s == pytest.approx(a.completion_s)
        assert sim.members[0].stats.peak_queue == 1


class TestFairness:
    def test_single_client_runs_at_full_speed(self):
        config = FleetConfig(surrogates=1)
        sim = simulate([demand("solo", service=1.0)], config)
        quanta = math.ceil(1.0 / QUANTUM)
        assert outcome_of(sim, "solo").completion_s == pytest.approx(
            quanta * QUANTUM)
        assert outcome_of(sim, "solo").quanta_served == quanta

    def test_heterogeneous_lengths_share_the_processor(self):
        # GPS (the DRR fluid limit): while both are active each gets
        # half the surrogate, so the light client finishes at ~2x its
        # own demand — not behind the heavy client's tail.
        config = FleetConfig(surrogates=1, admission_cap=4)
        sim = simulate(
            [demand("heavy", service=10.0), demand("light", service=1.0)],
            config)
        light = outcome_of(sim, "light")
        heavy = outcome_of(sim, "heavy")
        assert light.completion_s == pytest.approx(2.0, rel=1e-2)
        # The heavy client still only pays for the sharing it caused.
        assert heavy.completion_s == pytest.approx(11.0, rel=1e-2)
        assert light.completion_s < heavy.completion_s

    def test_quanta_counters_roll_up_per_surrogate(self):
        config = FleetConfig(surrogates=1, admission_cap=4)
        sim = simulate([demand("a"), demand("b")], config)
        assert sim.members[0].stats.quanta_served == sum(
            o.quanta_served for o in sim.outcomes)


class TestEviction:
    def test_idle_partition_evicted_and_readmitted(self):
        # A finishes its first burst and idles resident; B's admission
        # crosses the watermark and repatriates A's cold partition.  A's
        # second burst then pays the re-offload.
        config = FleetConfig(
            surrogates=1, admission_cap=1, heap_capacity=MB,
            eviction_watermark=1.0, bursts_per_client=2,
            think_time_s=5.0,
        )
        demands = [
            demand("a", service=1.0, size=int(0.8 * MB), reoffload=0.5),
            demand("b", service=1.0, size=int(0.8 * MB), reoffload=0.5),
        ]
        sim = simulate(demands, config)
        a = outcome_of(sim, "a")
        b = outcome_of(sim, "b")
        assert a.evictions == 1
        assert a.readmissions == 1
        assert b.evictions + b.readmissions in (0, 1, 2)
        assert sim.members[0].stats.evictions >= 1
        # a's session stretches past its think-time wake by at least
        # the re-offload charge.
        assert a.completion_s > 5.0 + 0.5

    def test_active_partitions_are_never_evicted(self):
        # Both clients are concurrently active and over the watermark:
        # nothing is idle, so nothing repatriates — the breach is
        # recorded instead.
        config = FleetConfig(surrogates=1, admission_cap=2,
                             heap_capacity=MB, eviction_watermark=0.5)
        sim = simulate(
            [demand("a", size=int(0.4 * MB)),
             demand("b", size=int(0.4 * MB))],
            config)
        assert all(o.evictions == 0 for o in sim.outcomes)
        assert sim.members[0].stats.watermark_breaches >= 1
        assert all(o.completed for o in sim.outcomes)

    def test_completion_releases_the_partition(self):
        config = FleetConfig(surrogates=1, admission_cap=1)
        sim = simulate([demand("a", size=MB)], config)
        assert sim.members[0].resident_bytes == 0
        assert sim.members[0].stats.peak_resident_bytes == MB


class TestPlacement:
    def test_equal_loads_split_evenly(self):
        placed = place_fleet_clients(
            {f"c{i}": 1.0 for i in range(4)}, ["s0", "s1"])
        assert sorted(placed.values()).count("s0") == 2
        assert sorted(placed.values()).count("s1") == 2

    def test_heaviest_client_is_isolated(self):
        # LPT: the one heavy client takes a surrogate; the light tail
        # stacks on the other until loads cross.
        placed = place_fleet_clients(
            {"heavy": 10.0, "l1": 1.0, "l2": 1.0, "l3": 1.0},
            ["s0", "s1"])
        assert placed["heavy"] == "s0"
        assert {placed["l1"], placed["l2"], placed["l3"]} == {"s1"}

    def test_ties_break_by_pool_order(self):
        placed = place_fleet_clients({"a": 1.0, "b": 1.0}, ["s1", "s0"])
        assert placed["a"] == "s1"  # first in pool order, not sorted
        assert placed["b"] == "s0"

    def test_capacities_are_respected(self):
        placed = place_fleet_clients(
            {"a": 3.0, "b": 2.0, "c": 1.0}, ["s0", "s1"],
            capacities={"s0": 1, "s1": 2})
        assert sorted(placed.values()) == ["s0", "s1", "s1"]

    def test_empty_pool_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            place_fleet_clients({"a": 1.0}, [])


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"surrogates": 0},
        {"admission_cap": -1},
        {"admission_policy": "drop"},
        {"service_quantum_s": 0.0},
        {"surrogate_speed": 0.0},
        {"eviction_watermark": 0.0},
        {"eviction_watermark": 1.5},
        {"bursts_per_client": 0},
        {"think_time_s": -1.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetConfig(**kwargs)

    def test_emulator_needs_clients(self):
        with pytest.raises(ConfigurationError):
            FleetEmulator([])


@pytest.fixture(scope="module")
def dia_shards():
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    return replicate(trace, memory_emulator_config(), clients=8)


class TestEndToEnd:
    def test_identical_shards_dedupe_into_one_replay(self, dia_shards):
        result = FleetEmulator(dia_shards, FleetConfig(surrogates=2),
                               workers=1).run()
        assert result.distinct_profiles == 1
        # One representative replay on the host; 8 emulated clients.
        assert result.emulated_events == 8 * result.replayed_events
        assert any("deduplicated" in w for w in result.warnings)
        assert result.completed_clients == 8

    def test_fingerprint_invariant_under_drive_workers(self, dia_shards):
        config = FleetConfig(surrogates=2)
        one = FleetEmulator(dia_shards, config, workers=1).run()
        many = FleetEmulator(dia_shards, config, workers=4).run()
        assert one.fingerprint() == many.fingerprint()

    def test_dedupe_off_matches_dedupe_on(self, dia_shards):
        config = FleetConfig(surrogates=2)
        shards = dia_shards[:2]
        deduped = FleetEmulator(shards, config, workers=1).run()
        expanded = FleetEmulator(shards, config, workers=1,
                                 dedupe=False).run()
        assert deduped.fingerprint() == expanded.fingerprint()
        assert expanded.replayed_events == 2 * deduped.replayed_events

    def test_outcomes_are_id_ordered(self, dia_shards):
        result = FleetEmulator(dia_shards, FleetConfig(surrogates=2),
                               workers=1).run()
        ids = [o.client_id for o in result.outcomes]
        assert ids == sorted(ids)
