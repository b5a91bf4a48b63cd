"""Unit tests for EmulationResult's derived quantities."""

import pytest

from repro.core.engine import OffloadEvent
from repro.emulator.replay import EmulationResult
from repro.core.partitioner import PartitionDecision
from repro.errors import ConfigurationError


def result(**overrides):
    fields = dict(app_name="x", completed=True, total_time=100.0)
    fields.update(overrides)
    return EmulationResult(**fields)


class TestDerivedQuantities:
    def test_remote_interactions_sum(self):
        r = result()
        r.remote_invocations = 3
        r.remote_accesses = 4
        assert r.remote_interactions == 7

    def test_overhead_time_is_migration_plus_comm(self):
        r = result(comm_time=8.0, migration_time=2.0)
        assert r.overhead_time == 10.0

    def test_overhead_fraction(self):
        r = result(total_time=110.0)
        assert r.overhead_fraction(100.0) == pytest.approx(0.10)
        assert result(total_time=90.0).overhead_fraction(100.0) == (
            pytest.approx(-0.10)
        )

    def test_overhead_fraction_requires_positive_baseline(self):
        with pytest.raises(ConfigurationError):
            result().overhead_fraction(0.0)

    def test_offload_count_ignores_refusals(self):
        refusal = PartitionDecision.refusal("no", 3, 0.0, "p")
        performed = PartitionDecision(
            beneficial=True, offload_nodes=frozenset({"a"}),
            client_nodes=frozenset(), cut_bytes=0, cut_count=0,
            freed_bytes=10, predicted_bandwidth=0.0,
            candidates_evaluated=1, compute_seconds=0.0, policy_name="p",
        )
        r = result()
        r.offloads = [
            OffloadEvent(time=1.0, decision=refusal),
            OffloadEvent(time=2.0, decision=performed),
        ]
        assert r.offload_count == 1
