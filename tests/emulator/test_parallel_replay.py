"""Sharded multi-core replay: determinism, parity, and the merge rules.

Loading and sharding are performance choices, not semantic ones:
replaying dia or javanote as recorded, reloaded from a ``.ctrace`` file,
or sharded across a process pool must reproduce the fingerprint digests
checked into ``replay_goldens.json`` (the "serial" results, recorded
from the original per-event loop), with the data plane on or off and
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
from repro.net import faults
from repro.net.faults import FaultSpec
from repro.rpc.batch import DataPlaneConfig
from repro.rpc.retry import ReliableDelivery, RetryPolicy

from .replay_goldens import digest, golden

APPS = ["dia", "javanote"]


def trace_for(app_name):
    return cached_trace(app_name, MEMORY_WORKLOADS[app_name])


def config_with_plane(label):
    plane = (DataPlaneConfig.enabled() if label == "on"
             else DataPlaneConfig.off())
    return dataclasses.replace(memory_emulator_config(), data_plane=plane)


@pytest.fixture(scope="module")
def fingerprints(tmp_path_factory):
    """Digests per (app, plane) of the recorded trace and of its
    ``.ctrace`` reload — replays dominate test time, so compute each
    exactly once."""
    table = {}
    for app in APPS:
        trace = trace_for(app)
        path = tmp_path_factory.mktemp("ctrace") / f"{app}.ctrace"
        trace.save(path)
        reloaded = ColumnarTrace.load(path)
        for label in ("off", "on"):
            config = config_with_plane(label)
            table[(app, label, "recorded")] = digest(
                TraceReplayer(trace, config).run())
            table[(app, label, "ctrace")] = digest(
                TraceReplayer(reloaded, config).run())
        reloaded.close()
    return table


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("plane", ["off", "on"])
class TestColumnarParity:
    def test_columnar_replay_matches_serial(self, fingerprints,
                                            app_name, plane):
        expected = golden(f"plane/{app_name}/{plane}")
        assert fingerprints[(app_name, plane, "recorded")] == expected
        assert fingerprints[(app_name, plane, "ctrace")] == expected


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
    """The result per (app, fault case), plus the config; the checked-in
    goldens are the oracle."""
    table = {}
    for app in APPS:
        trace = trace_for(app)
        for case in FAULT_CASES:
            config = fault_config(trace, case)
            table[(app, case)] = (TraceReplayer(trace, config).run(), config)
    return table


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("case", FAULT_CASES)
class TestFaultParity:
    def test_columnar_replay_matches_serial(self, fault_replays,
                                            app_name, case):
        result, _ = fault_replays[(app_name, case)]
        assert result.completed
        assert digest(result) == golden(f"fault/{app_name}/{case}")

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
        config = fault_replays[(app_name, case)][1]
        aggregate = ShardedReplayer(
            replicate(trace_for(app_name), config, clients=2),
            workers=2).run()
        assert [digest(c.result) for c in aggregate.clients] \
            == [golden(f"fault/{app_name}/{case}")] * 2


def count_gauntlet_runs(monkeypatch):
    """Count the exchanges that run the whole fault gauntlet."""
    calls = []
    attempt = ReliableDelivery.attempt

    def counted(self):
        calls.append(None)
        return attempt(self)

    monkeypatch.setattr(ReliableDelivery, "attempt", counted)
    return calls


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("case", FAULT_CASES)
class TestInlineExchangeParity:
    def test_gauntlet_for_every_exchange_matches_inline(
            self, fault_replays, monkeypatch, app_name, case):
        # With no credit, no exchange is judged ahead of time, so every
        # one runs the whole gauntlet: the inline path taken for clean
        # exchanges must not move a single fingerprint, at the golden
        # fault seed or at another one.
        config = fault_replays[(app_name, case)][1]
        other = config.with_faults(
            dataclasses.replace(config.faults, seed=config.faults.seed + 1000))
        trace = trace_for(app_name)
        calls = count_gauntlet_runs(monkeypatch)
        inline_other = digest(TraceReplayer(trace, other).run())
        inline_calls = len(calls)
        monkeypatch.setattr(faults, "LOOK_AHEAD_LIMIT", 0)
        assert digest(TraceReplayer(trace, other).run()) == inline_other
        assert len(calls) - inline_calls > inline_calls
        assert (digest(TraceReplayer(trace, config).run())
                == golden(f"fault/{app_name}/{case}"))


class TestFaultyColumnarStaysBatched:
    def test_faulty_columnar_replay_builds_no_event_objects(
            self, monkeypatch):
        # A faulty config must not fall back to the per-event loop,
        # which would materialise one object per event.
        trace = trace_for("dia")
        config = fault_config(trace, "loss")

        def refuse(self, indices=None):
            raise AssertionError("faulty replay built event objects")

        monkeypatch.setattr(ColumnarTrace, "iter_events", refuse)
        result = TraceReplayer(trace, config).run()
        assert result.completed
        assert result.faults.retries > 0


@pytest.mark.parametrize("app_name", APPS)
class TestShardedParity:
    def test_shards_match_serial_and_pool_matches_inline(self, app_name):
        config = config_with_plane("off")
        shards = replicate(trace_for(app_name), config, clients=2)
        inline = ShardedReplayer(shards, workers=1).run()
        pooled = ShardedReplayer(shards, workers=2).run()
        assert inline.workers == 1
        # Two workers for two shards, unless the host itself is smaller
        # (the clamp then records itself as report metadata).
        assert pooled.workers == min(2, os.cpu_count() or 1)
        assert pooled.requested_workers == 2
        assert inline.fingerprint() == pooled.fingerprint()
        expected = golden(f"plane/{app_name}/off")
        for aggregate in (inline, pooled):
            assert [digest(c.result) for c in aggregate.clients] \
                == [expected] * len(shards)


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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs a second worker process")
    def test_a_failing_worker_shard_raises_and_leaves_no_child(
            self, tmp_path):
        import multiprocessing

        config = config_with_plane("off")
        shards = [ReplayShard("a", trace_for("dia"), config),
                  ReplayShard("b", str(tmp_path / "missing.ctrace"), config)]
        with pytest.raises(OSError):
            ShardedReplayer(shards, workers=2).run()
        assert multiprocessing.active_children() == []

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
