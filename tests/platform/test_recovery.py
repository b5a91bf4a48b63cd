"""Surrogate loss and recovery: degradation leaves the heap consistent."""

import pytest

from repro.config import GCConfig
from repro.errors import PlatformError
from repro.net.faults import FaultSpec
from repro.rpc.retry import RetryPolicy
from repro.units import KB

from tests.helpers import make_platform


class HoarderApp:
    """Allocates rooted segments until the client heap forces offload."""

    name = "hoarder"

    def __init__(self, segments=50, segment_chars=2048):
        self.segments = segments
        self.segment_chars = segment_chars

    def install(self, registry):
        if registry.has_class("hoard.Segment"):
            return

        def append(ctx, self_obj, chars):
            buf = ctx.new_array("char", chars)
            ctx.array_write(buf, chars)
            holder = ctx.new("hoard.Segment", buffer=buf)
            ctx.set_field(holder, "next", ctx.get_field(self_obj, "head"))
            ctx.set_field(self_obj, "head", holder)
            count = ctx.get_field(self_obj, "count")
            ctx.set_field(self_obj, "count", count + 1)
            return count + 1

        registry.define("hoard.Segment") \
            .field("buffer") \
            .field("next") \
            .register()
        registry.define("hoard.Document") \
            .field("head") \
            .field("count", "int", default=0) \
            .method("append", func=append, cpu_cost=5e-6) \
            .register()

    def main(self, ctx):
        doc = ctx.new("hoard.Document")
        ctx.set_global("doc", doc)
        for _ in range(self.segments):
            ctx.invoke(doc, "append", self.segment_chars)


def pressure_gc():
    return GCConfig(space_pressure_fraction=0.10,
                    allocations_per_cycle=50,
                    bytes_per_cycle=64 * KB)


def faulty_platform(faults, **kwargs):
    # The workload must fit client-side after repatriation (the whole
    # point of monolithic fallback), so the heap holds the full retained
    # set and a generous trigger threshold still forces an offload
    # mid-run.
    kwargs.setdefault("client_heap", 256 * KB)
    kwargs.setdefault("threshold", 0.5)
    kwargs.setdefault("gc", pressure_gc())
    kwargs.setdefault("tolerance", 1)
    return make_platform(faults=faults, **kwargs)


def run_crashed(crash_at_event=8, segments=50):
    """A run whose surrogate dies after ``crash_at_event`` exchanges."""
    platform = faulty_platform(FaultSpec(seed=5,
                                         crash_at_event=crash_at_event))
    report = platform.run(HoarderApp(segments=segments))
    return platform, report


class TestCrashRecovery:
    def test_run_completes_client_only(self):
        platform, report = run_crashed()
        assert platform.surrogate_lost
        assert report.faults is not None
        assert report.faults["surrogate_lost"]
        assert report.faults["lost_reason"] == "crash"
        assert report.faults["recoveries"] == 1
        # The app ran to completion: every segment exists, client-side.
        doc = platform.ctx.get_global("doc")
        assert platform.ctx.get_field(doc, "count") == 50

    def test_crash_mid_migration_leaves_no_remote_state(self):
        # crash_at_event=1 lands inside the first migration: the opening
        # exchange succeeds, the next one kills the peer mid-placement.
        platform, report = run_crashed(crash_at_event=1)
        assert platform.surrogate.vm.heap.used == 0
        assert platform.surrogate.vm.heap.live_count == 0
        # Nothing points across the dead link any more.
        for site, refmap in platform.channel.exports.items():
            assert len(refmap) == 0, f"dangling exports on {site}"

    @pytest.mark.parametrize("crash_at_event, offloads", [(0, 0), (1, 1)])
    def test_a_placement_dead_on_its_opening_exchange_is_no_offload(
            self, crash_at_event, offloads):
        # crash_at_event=0: the first migration's opening exchange kills
        # the peer, so nothing moves and no offload happened, as the
        # emulator counts it; at 1 the opening exchange got through.
        platform, report = run_crashed(crash_at_event=crash_at_event)
        assert platform.surrogate_lost
        assert report.offload_count == offloads
        assert len(platform.engine.events) == offloads
        assert report.faults["epochs_survived"] == offloads

    def test_repatriated_bytes_are_accounted(self):
        platform, report = run_crashed()
        faults = report.faults
        assert faults["objects_repatriated"] > 0
        assert faults["repatriated_bytes"] > 0
        # Everything repatriated is now client-resident: the client heap
        # holds at least what came back, the surrogate holds nothing.
        assert platform.client.vm.heap.used >= faults["repatriated_bytes"]
        assert platform.surrogate.vm.heap.used == 0

    def test_byte_accounting_matches_clean_run(self):
        # The same workload on a fault-free platform: after a full GC on
        # both, the crashed run's client heap must hold exactly the live
        # bytes the clean run has across *both* sites — nothing leaked,
        # nothing duplicated by repatriation.
        crashed, _ = run_crashed()
        clean = faulty_platform(FaultSpec(seed=5))
        clean.run(HoarderApp())
        for platform in (crashed, clean):
            platform.client.vm.collect_garbage("test")
            platform.surrogate.vm.collect_garbage("test")
        assert crashed.surrogate.vm.heap.used == 0
        assert crashed.client.vm.heap.used == (
            clean.client.vm.heap.used + clean.surrogate.vm.heap.used
        )

    def test_post_crash_operations_resolve_locally(self):
        platform, _ = run_crashed()
        remote_before = platform.monitor.remote.total_remote
        doc = platform.ctx.get_global("doc")
        platform.ctx.invoke(doc, "append", 64)
        assert platform.monitor.remote.total_remote == remote_before
        assert platform.surrogate.vm.heap.used == 0

    def test_engine_is_suspended_while_degraded(self):
        platform, _ = run_crashed()
        assert platform.surrogate_lost

    def test_the_trigger_observes_while_degraded_but_nothing_is_attempted(
            self):
        # One degraded-mode rule in both hosts: while the surrogate is
        # lost the client's GC reports still reach the trigger, and only
        # the attempt refuses, so no partitioning runs and nothing is
        # recorded.
        platform = faulty_platform(FaultSpec(seed=5, crash_at_event=0))
        engine = platform.engine
        observe = engine.trigger.observe
        partition = engine.session.partition
        fired_while_lost = []
        partitioned_while_lost = []

        def observing(report):
            fired = observe(report)
            if platform.surrogate_lost:
                fired_while_lost.append(fired)
            return fired

        def partitioning(*args, **kwargs):
            if platform.surrogate_lost:
                partitioned_while_lost.append(args)
            return partition(*args, **kwargs)

        engine.trigger.observe = observing
        engine.session.partition = partitioning
        platform.run(HoarderApp())
        assert platform.surrogate_lost
        assert any(fired_while_lost)
        assert partitioned_while_lost == []
        assert engine.events == []

    def test_pending_batches_die_with_the_peer(self):
        from repro.rpc.batch import DataPlaneConfig

        platform = faulty_platform(
            FaultSpec(seed=5, crash_at_event=8),
            data_plane=DataPlaneConfig(coalescing=True, read_cache=True),
        )
        report = platform.run(HoarderApp())
        assert platform.surrogate_lost
        # Whatever was buffered when the peer died was dropped
        # un-charged, and the run still completed client-side.
        assert report.faults["dropped_batches"] == (
            platform.data_plane.stats.dropped_batches
        )
        doc = platform.ctx.get_global("doc")
        assert platform.ctx.get_field(doc, "count") == 50


class TestRediscovery:
    def test_rediscover_leaves_degraded_mode(self):
        platform, _ = run_crashed()
        platform.rediscover(attempt_offload=False)
        assert not platform.surrogate_lost
        report = platform.report("hoarder")
        assert report.faults["rediscoveries"] == 1
        assert report.faults["downtime_s"] >= 0.0

    def test_rediscover_without_loss_is_an_error(self):
        platform = faulty_platform(FaultSpec(seed=5))
        platform.run(HoarderApp(segments=10))
        with pytest.raises(PlatformError):
            platform.rediscover()

    def test_replacement_surrogate_does_not_recrash(self):
        platform, _ = run_crashed()
        platform.rediscover(attempt_offload=False)
        # The crash condition described the old surrogate; the delivery
        # layer must exchange freely with the replacement.
        assert platform.delivery.attempt()
        assert not platform.surrogate_lost


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        FaultSpec(seed=3, loss_rate=0.05),
        FaultSpec(seed=5, crash_at_event=8),
    ])
    def test_seeded_faults_replay_bit_identically(self, spec):
        def run():
            platform = faulty_platform(spec)
            report = platform.run(HoarderApp())
            return report.elapsed, report.faults

        first = run()
        second = run()
        assert first == second

    def test_lossy_run_retries_and_completes(self):
        platform = faulty_platform(FaultSpec(seed=3, loss_rate=0.10),
                                   retry=RetryPolicy(max_retries=8))
        report = platform.run(HoarderApp())
        faults = report.faults
        assert faults["retries"] > 0
        assert faults["fault_time_s"] > 0.0
        # Retransmission kept the surrogate alive through 10% loss.
        assert not platform.surrogate_lost
        doc = platform.ctx.get_global("doc")
        assert platform.ctx.get_field(doc, "count") == 50
