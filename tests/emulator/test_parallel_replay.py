"""Sharded multi-core replay: determinism, parity, and the merge rules.

The columnar batched loop and the sharded replayer are performance
paths, not semantic ones: replaying dia or javanote serially (event
objects), columnar (batched dispatch), or sharded (process pool) must
produce bit-identical fingerprints, with the data plane on or off and
under injected faults (loss, latency spikes, a crash, and a partition
long enough to kill the surrogate and then rediscover it).
"""

import dataclasses
import os

import pytest

from benchmarks.report import _offloadable_nodes
from repro.emulator.columnar import ColumnarTrace, write_ctrace
from repro.emulator.parallel import (
    AggregateReplayResult,
    ClientReplay,
    ReplayShard,
    ShardedReplayer,
    replicate,
)
from repro.emulator.replay import TraceReplayer
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.common import cpu_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.net.faults import FaultSpec
from repro.rpc.batch import DataPlaneConfig
from repro.rpc.retry import RetryPolicy

APPS = ["dia", "javanote"]


def trace_for(app_name):
    return cached_trace(app_name, MEMORY_WORKLOADS[app_name])


def config_with_plane(label):
    plane = (DataPlaneConfig.enabled() if label == "on"
             else DataPlaneConfig.off())
    return dataclasses.replace(memory_emulator_config(), data_plane=plane)


@pytest.fixture(scope="module")
def fingerprints():
    """Serial / columnar fingerprints per (app, plane) — replays
    dominate test time, so compute each exactly once."""
    table = {}
    for app in APPS:
        trace = trace_for(app)
        columnar = ColumnarTrace.from_trace(trace)
        for label in ("off", "on"):
            config = config_with_plane(label)
            table[(app, label, "serial")] = (
                TraceReplayer(trace, config).run().fingerprint())
            table[(app, label, "columnar")] = (
                TraceReplayer(columnar, config).run().fingerprint())
    return table


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("plane", ["off", "on"])
class TestColumnarParity:
    def test_columnar_replay_matches_serial(self, fingerprints,
                                            app_name, plane):
        assert (fingerprints[(app_name, plane, "columnar")]
                == fingerprints[(app_name, plane, "serial")])


FAULT_CASES = ["loss", "loss-dataplane", "crash", "loss-spikes",
               "partition"]


def forced_offload_config(trace):
    """Offload the three largest unpinned classes a tenth of the way in,
    onto the 3.5x surrogate, so every later event can cross the link."""
    return dataclasses.replace(
        cpu_emulator_config(offload_at_event=max(1, len(trace) // 10)),
        forced_offload_nodes=_offloadable_nodes(trace),
    )


def fault_config(trace, case):
    base = forced_offload_config(trace)
    loss = FaultSpec(seed=1, loss_rate=0.05)
    if case == "loss":
        return base.with_faults(loss)
    if case == "loss-dataplane":
        return dataclasses.replace(
            base.with_faults(loss),
            data_plane=DataPlaneConfig(coalescing=True, read_cache=True),
        )
    if case == "crash":
        return base.with_faults(
            FaultSpec(seed=7, crash_at_event=2 * base.offload_at_event))
    if case == "loss-spikes":
        return base.with_faults(FaultSpec(
            seed=2, loss_rate=0.05, latency_spike_rate=0.1,
            latency_spike_s=0.05))
    # A partition opening half a second after the offload and lasting
    # four times the retry ladder: the surrogate is declared dead, then
    # rediscovered when the window heals.
    offload_time = TraceReplayer(trace, base).run().offloads[0].time
    start = offload_time + 0.5
    end = start + 4 * RetryPolicy().give_up_s
    return base.with_faults(
        FaultSpec(seed=3, partition_windows=((start, end),)))


@pytest.fixture(scope="module")
def fault_replays():
    """Serial and columnar results per (app, fault case), plus the
    config — the serial (per-event) loop is the oracle."""
    table = {}
    for app in APPS:
        trace = trace_for(app)
        columnar = ColumnarTrace.from_trace(trace)
        for case in FAULT_CASES:
            config = fault_config(trace, case)
            table[(app, case)] = (
                TraceReplayer(trace, config).run(),
                TraceReplayer(columnar, config).run(),
                config,
            )
    return table


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("case", FAULT_CASES)
class TestFaultParity:
    def test_columnar_replay_matches_serial(self, fault_replays,
                                            app_name, case):
        serial, columnar, _ = fault_replays[(app_name, case)]
        assert serial.completed
        assert columnar.fingerprint() == serial.fingerprint()

    def test_scenario_exercises_its_fault(self, fault_replays,
                                          app_name, case):
        report = fault_replays[(app_name, case)][0].faults
        if case.startswith("loss"):
            assert report.retries > 0
        if case == "loss-spikes":
            assert report.latency_spikes > 0
        if case == "crash":
            assert report.lost_reason == "crash"
            assert report.recoveries == 1
        if case == "partition":
            assert report.lost_reason == "partition"
            assert report.recoveries == 1
            assert report.rediscoveries == 1

    def test_shards_match_serial(self, fault_replays, app_name, case):
        serial, _, config = fault_replays[(app_name, case)]
        columnar = ColumnarTrace.from_trace(trace_for(app_name))
        aggregate = ShardedReplayer(
            replicate(columnar, config, clients=2), workers=2).run()
        assert [c.result.fingerprint() for c in aggregate.clients] \
            == [serial.fingerprint()] * 2


class TestFaultyColumnarStaysBatched:
    def test_faulty_columnar_replay_builds_no_event_objects(
            self, monkeypatch):
        # A faulty config must not fall back to the per-event loop,
        # which would materialise one object per event.
        trace = trace_for("dia")
        columnar = ColumnarTrace.from_trace(trace)
        config = fault_config(trace, "loss")

        def refuse(self):
            raise AssertionError("faulty replay built event objects")

        monkeypatch.setattr(ColumnarTrace, "iter_events", refuse)
        result = TraceReplayer(columnar, config).run()
        assert result.completed
        assert result.faults.retries > 0
        assert columnar._events_cache is None


@pytest.mark.parametrize("app_name", APPS)
class TestShardedParity:
    def test_shards_match_serial_and_pool_matches_inline(
            self, fingerprints, app_name):
        columnar = ColumnarTrace.from_trace(trace_for(app_name))
        config = config_with_plane("off")
        shards = replicate(columnar, config, clients=2)
        inline = ShardedReplayer(shards, workers=1).run()
        pooled = ShardedReplayer(shards, workers=2).run()
        assert inline.workers == 1
        # Two workers for two shards, unless the host itself is smaller
        # (the clamp then records itself as report metadata).
        assert pooled.workers == min(2, os.cpu_count() or 1)
        assert pooled.requested_workers == 2
        assert inline.fingerprint() == pooled.fingerprint()
        serial_fp = fingerprints[(app_name, "off", "serial")]
        for aggregate in (inline, pooled):
            assert [c.result.fingerprint() for c in aggregate.clients] \
                == [serial_fp] * len(shards)


class TestShardMechanics:
    def test_duplicate_client_ids_rejected(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shard = ReplayShard("twin", trace, config)
        with pytest.raises(ValueError, match="duplicate"):
            ShardedReplayer([shard, shard])

    def test_replicate_ids_are_stable_and_ordered(self):
        shards = replicate(trace_for("dia"), config_with_plane("off"),
                           clients=3)
        assert [s.client_id for s in shards] == [
            "client-0000", "client-0001", "client-0002"]

    def test_path_shards_load_inside_the_worker(self, tmp_path):
        trace = trace_for("dia")
        path = tmp_path / "dia.ctrace"
        write_ctrace(trace, path)
        config = config_with_plane("off")
        by_path = ShardedReplayer(
            [ReplayShard("c0", str(path), config)], workers=1).run()
        in_memory = ShardedReplayer(
            [ReplayShard("c0", trace, config)], workers=1).run()
        assert by_path.fingerprint() == in_memory.fingerprint()
        assert by_path.total_events == len(trace)

    def test_merge_orders_clients_by_id_not_completion(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shards = [ReplayShard(cid, trace, config)
                  for cid in ("client-b", "client-a")]
        aggregate = ShardedReplayer(shards, workers=1).run()
        assert [c.client_id for c in aggregate.clients] == [
            "client-a", "client-b"]

    def test_aggregate_counters_sum_over_clients(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=2), workers=1).run()
        single = TraceReplayer(trace, config).run()
        assert aggregate.total_events == 2 * len(trace)
        assert aggregate.events_processed == 2 * single.events_processed
        assert aggregate.completed_clients == 2
        assert aggregate.oom_clients == 0
        assert aggregate.wall_time_s > 0.0
        assert aggregate.events_per_second > 0.0

    def test_fingerprint_ignores_wall_clock(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=1), workers=1).run()
        twin = AggregateReplayResult(
            clients=[ClientReplay(c.client_id, c.events, c.result)
                     for c in aggregate.clients],
            workers=99, wall_time_s=aggregate.wall_time_s + 123.0)
        assert twin.fingerprint() == aggregate.fingerprint()

    def test_workers_clamped_to_cpu_count_with_warning(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        shards = replicate(trace, config, clients=2)
        cpus = os.cpu_count() or 1
        replayer = ShardedReplayer(shards, workers=cpus + 7)
        assert replayer.workers == min(cpus, len(shards))
        assert replayer.requested_workers == cpus + 7
        assert any("clamped" in w for w in replayer.warnings)

    def test_workers_clamped_to_shard_count_with_warning(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        replayer = ShardedReplayer(
            [ReplayShard("only", trace, config)], workers=1000)
        assert replayer.workers == 1
        assert any("clamped" in w for w in replayer.warnings)
        aggregate = replayer.run()
        assert aggregate.requested_workers == 1000
        assert aggregate.warnings == replayer.warnings

    def test_unclamped_run_carries_no_warnings(self):
        trace = trace_for("dia")
        config = config_with_plane("off")
        aggregate = ShardedReplayer(
            replicate(trace, config, clients=2), workers=1).run()
        assert aggregate.warnings == []
        assert aggregate.requested_workers == 1

    def test_empty_aggregate_rates_are_zero(self):
        empty = AggregateReplayResult()
        assert empty.events_per_second == 0.0
        assert empty.total_events == 0
        assert empty.fingerprint()  # stable digest of nothing
