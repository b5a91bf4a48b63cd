"""Unit tests for trigger and partitioning policies."""

import pytest

from repro.core.flatgraph import CandidatePartition
from repro.core.policy import (
    BandwidthTrendTrigger,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    MemoryTrigger,
    OffloadPolicy,
    TriggerConfig,
    policy_sweep,
    predict_completion_time,
)
from repro.errors import ConfigurationError, NoBeneficialPartitionError
from repro.net.wavelan import WAVELAN_11MBPS
from repro.units import MB
from repro.vm.gc import GCReport

from .policy_oracle import chain_of


def report(free_fraction, freed_bytes=1, capacity=1000, reason="test"):
    free = int(free_fraction * capacity)
    return GCReport(
        cycle=1, reason=reason, live_objects=0, freed_objects=0,
        freed_bytes=freed_bytes, used_bytes=capacity - free,
        free_bytes=free, capacity=capacity,
    )


def candidate(surrogate_memory, cut_bytes, cut_count=10,
              surrogate_cpu=0.0, client_cpu=0.0, tag="x"):
    return CandidatePartition(
        client_nodes=frozenset({f"client-{tag}"}),
        surrogate_nodes=frozenset({f"surrogate-{tag}"}),
        cut_count=cut_count,
        cut_bytes=cut_bytes,
        surrogate_memory=surrogate_memory,
        surrogate_cpu=surrogate_cpu,
        client_cpu=client_cpu,
    )


class TestMemoryTrigger:
    def test_fires_after_tolerance_consecutive_low_reports(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.05, tolerance=3))
        assert not trigger.observe(report(0.01))
        assert not trigger.observe(report(0.01))
        assert trigger.observe(report(0.01))
        assert trigger.fired_count == 1

    def test_healthy_report_resets_count(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.05, tolerance=2))
        assert not trigger.observe(report(0.01))
        assert not trigger.observe(report(0.50))
        assert not trigger.observe(report(0.01))
        assert trigger.observe(report(0.01))

    def test_zero_freed_counts_as_low_only_under_pressure(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.05, tolerance=1))
        # A periodic cycle freeing nothing on a healthy heap: no signal.
        assert not trigger.observe(report(0.50, freed_bytes=0,
                                          reason="allocation-count"))
        # A pressure-triggered cycle freeing nothing: "cannot free".
        assert trigger.observe(report(0.50, freed_bytes=0,
                                      reason="space-pressure"))

    def test_tolerance_one_fires_immediately(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.10, tolerance=1))
        assert trigger.observe(report(0.05))

    def test_reset(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.05, tolerance=2))
        trigger.observe(report(0.01))
        trigger.reset()
        assert not trigger.observe(report(0.01))

    def test_counter_resets_after_firing(self):
        trigger = MemoryTrigger(TriggerConfig(free_threshold=0.05, tolerance=2))
        trigger.observe(report(0.01))
        assert trigger.observe(report(0.01))
        assert not trigger.observe(report(0.01))
        assert trigger.observe(report(0.01))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TriggerConfig(free_threshold=0.0)
        with pytest.raises(ConfigurationError):
            TriggerConfig(tolerance=0)


class TestMemoryPartitionPolicy:
    def make_ctx(self, capacity=10 * MB, elapsed=100.0):
        return EvaluationContext(heap_capacity=capacity, elapsed=elapsed)

    def test_selects_minimum_cut_among_eligible(self):
        policy = MemoryPartitionPolicy(min_free_fraction=0.20)
        ctx = self.make_ctx(capacity=1000)
        candidates = [
            candidate(900, cut_bytes=5000, tag="all"),
            candidate(500, cut_bytes=100, tag="half"),
            candidate(100, cut_bytes=10, tag="tiny"),   # frees too little
        ]
        decision = policy.evaluate_chain(chain_of(candidates), ctx)
        assert decision.candidate.surrogate_memory == 500

    def test_prefers_more_memory_on_cut_ties(self):
        policy = MemoryPartitionPolicy(min_free_fraction=0.20)
        ctx = self.make_ctx(capacity=1000)
        candidates = [
            candidate(300, cut_bytes=100, tag="a"),
            candidate(900, cut_bytes=100, tag="b"),
        ]
        decision = policy.evaluate_chain(chain_of(candidates), ctx)
        assert decision.candidate.surrogate_memory == 900

    def test_refuses_when_nothing_frees_enough(self):
        policy = MemoryPartitionPolicy(min_free_fraction=0.50)
        ctx = self.make_ctx(capacity=1000)
        with pytest.raises(NoBeneficialPartitionError):
            policy.evaluate_chain(
                chain_of([candidate(100, cut_bytes=1)]), ctx
            )

    def test_refuses_empty_candidate_list(self):
        policy = MemoryPartitionPolicy()
        with pytest.raises(NoBeneficialPartitionError):
            policy.evaluate_chain(chain_of([]), self.make_ctx())

    def test_predicted_bandwidth_uses_history_duration(self):
        policy = MemoryPartitionPolicy(min_free_fraction=0.10)
        ctx = self.make_ctx(capacity=1000, elapsed=50.0)
        decision = policy.evaluate_chain(
            chain_of([candidate(500, cut_bytes=5000)]), ctx
        )
        assert decision.predicted_bandwidth == pytest.approx(100.0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryPartitionPolicy(min_free_fraction=0.0)


class TestCpuPartitionPolicy:
    def make_ctx(self, total_cpu=700.0):
        return EvaluationContext(
            heap_capacity=6 * MB,
            client_speed=1.0,
            surrogate_speed=3.5,
            link=WAVELAN_11MBPS,
            total_cpu=total_cpu,
        )

    def test_offloads_cpu_heavy_partition(self):
        # 600s of CPU moves to a 3.5x surrogate with negligible chatter.
        good = candidate(
            1 * MB, cut_bytes=10_000, cut_count=100,
            surrogate_cpu=600.0, client_cpu=100.0,
        )
        decision = CpuPartitionPolicy().evaluate_chain(
            chain_of([good]), self.make_ctx()
        )
        assert decision.predicted_time < decision.original_time
        assert decision.predicted_time == pytest.approx(
            predict_completion_time(good, self.make_ctx())
        )

    def test_refuses_when_communication_swamps_speedup(self):
        # The Biomer shape: the cut is so chatty that remote execution
        # is predicted to be slower than running locally.
        chatty = candidate(
            1 * MB, cut_bytes=50 * MB, cut_count=200_000,
            surrogate_cpu=600.0, client_cpu=100.0,
        )
        with pytest.raises(NoBeneficialPartitionError):
            CpuPartitionPolicy().evaluate_chain(
                chain_of([chatty]), self.make_ctx()
            )

    def test_min_speedup_margin(self):
        barely = candidate(
            0, cut_bytes=0, cut_count=0,
            surrogate_cpu=10.0, client_cpu=690.0,
        )
        # Beneficial without a margin...
        CpuPartitionPolicy(0.0).evaluate_chain(
            chain_of([barely]), self.make_ctx()
        )
        # ...but not when a 20% improvement is demanded.
        with pytest.raises(NoBeneficialPartitionError):
            CpuPartitionPolicy(0.20).evaluate_chain(
                chain_of([barely]), self.make_ctx()
            )

    def test_prediction_includes_migration_and_rtt(self):
        ctx = self.make_ctx()
        c = candidate(
            11 * MB // 8, cut_bytes=0, cut_count=1000,
            surrogate_cpu=0.0, client_cpu=0.0,
        )
        predicted = predict_completion_time(c, ctx)
        assert predicted == pytest.approx(
            1000 * WAVELAN_11MBPS.rtt
            + WAVELAN_11MBPS.bulk_transfer(11 * MB // 8)
        )


class TestCombinedPolicy:
    def test_memory_constraint_still_applies(self):
        policy = CombinedPartitionPolicy(min_free_fraction=0.50)
        ctx = EvaluationContext(heap_capacity=1000, total_cpu=100.0)
        with pytest.raises(NoBeneficialPartitionError):
            policy.evaluate_chain(
                chain_of([candidate(100, cut_bytes=1)]), ctx
            )

    def test_selects_fastest_eligible(self):
        policy = CombinedPartitionPolicy(min_free_fraction=0.10)
        ctx = EvaluationContext(
            heap_capacity=1000, client_speed=1.0, surrogate_speed=3.5,
            total_cpu=100.0,
        )
        slow = candidate(500, cut_bytes=10**7, cut_count=10**5,
                         surrogate_cpu=50.0, client_cpu=50.0, tag="slow")
        fast = candidate(500, cut_bytes=100, cut_count=10,
                         surrogate_cpu=50.0, client_cpu=50.0, tag="fast")
        decision = policy.evaluate_chain(chain_of([slow, fast]), ctx)
        assert decision.candidate is fast


class TestBandwidthTrendTrigger:
    def trigger(self, **kwargs):
        kwargs.setdefault("threshold_bps", 2e6)
        kwargs.setdefault("restore_bps", 6e6)
        return BandwidthTrendTrigger(**kwargs)

    def test_healthy_link_never_fires(self):
        trigger = self.trigger()
        assert trigger.observe(0.0, 11e6) is None
        assert trigger.observe(1.0, 11e6) is None
        assert trigger.observe(2.0, 11e6) is None
        assert trigger.fired_count == 0

    def test_current_sample_below_threshold_fires(self):
        trigger = self.trigger()
        assert trigger.observe(0.0, 384e3) == "fire"

    def test_projection_fires_before_the_link_dies(self):
        # 11 -> 8 -> 5 Mb/s: every sample is above threshold, but the
        # least-squares slope projects ~ -1 Mb/s at now+2s horizon.
        trigger = self.trigger(horizon_s=2.0, window=3)
        assert trigger.observe(0.0, 11e6) is None
        assert trigger.observe(1.0, 8e6) is None
        assert trigger.observe(2.0, 5e6) == "fire"

    def test_projection_needs_two_distinct_times(self):
        trigger = self.trigger()
        assert trigger.projected_bps(0.0) is None
        trigger.observe(1.0, 11e6)
        trigger.observe(1.0, 11e6)
        assert trigger.projected_bps(1.0) is None

    def test_latches_until_restore_level(self):
        trigger = self.trigger()
        assert trigger.observe(0.0, 384e3) == "fire"
        # Still degraded, and above-threshold-but-below-restore samples
        # do not bounce it back and forth.
        assert trigger.observe(1.0, 384e3) is None
        assert trigger.observe(2.0, 3e6) is None
        assert trigger.observe(3.0, 11e6) == "recover"
        assert (trigger.fired_count, trigger.recovered_count) == (1, 1)

    def test_recovery_discards_stale_decay_samples(self):
        trigger = self.trigger(window=3)
        trigger.observe(0.0, 11e6)
        trigger.observe(1.0, 384e3)
        assert trigger.fired_count == 1
        trigger.observe(2.0, 11e6)
        # A fresh window: the old cell's downward slope must not make
        # the healthy new attachment instantly re-fire.
        assert trigger.observe(3.0, 11e6) is None

    def test_reset_rearms(self):
        trigger = self.trigger()
        trigger.observe(0.0, 384e3)
        trigger.reset()
        assert trigger.observe(5.0, 384e3) == "fire"
        assert trigger.fired_count == 2

    @pytest.mark.parametrize("kwargs", [
        {"threshold_bps": 0.0},
        {"threshold_bps": -1.0},
        {"threshold_bps": 1e6, "horizon_s": -0.1},
        {"threshold_bps": 1e6, "window": 1},
        {"threshold_bps": 2e6, "restore_bps": 1e6},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BandwidthTrendTrigger(**kwargs)


class TestOffloadPolicy:
    def test_initial_matches_paper(self):
        initial = OffloadPolicy.initial()
        assert initial.trigger.free_threshold == 0.05
        assert initial.trigger.tolerance == 3
        assert initial.min_free_fraction == 0.20

    def test_factories(self):
        policy = OffloadPolicy.initial()
        assert isinstance(policy.make_trigger(), MemoryTrigger)
        assert policy.make_partition_policy().min_free_fraction == 0.20
        assert "5%" in policy.label()

    def test_sweep_covers_paper_ranges(self):
        grid = policy_sweep()
        assert len(grid) == 5 * 3 * 5
        thresholds = {p.trigger.free_threshold for p in grid}
        assert min(thresholds) == 0.02 and max(thresholds) == 0.50
        tolerances = {p.trigger.tolerance for p in grid}
        assert tolerances == {1, 2, 3}
        fractions = {p.min_free_fraction for p in grid}
        assert min(fractions) == 0.10 and max(fractions) == 0.80
