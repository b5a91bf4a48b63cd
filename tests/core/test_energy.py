"""Tests for the energy model and battery-saving policy."""

import pytest

from repro.core.energy import (
    EnergyPartitionPolicy,
    JORNADA_POWER,
    PowerProfile,
    local_energy,
    predict_client_energy,
    realized_client_energy,
)
from repro.core.flatgraph import CandidatePartition
from repro.core.policy import EvaluationContext
from repro.errors import ConfigurationError, NoBeneficialPartitionError
from repro.net.wavelan import WAVELAN_11MBPS
from repro.units import MB

from .policy_oracle import chain_of


def candidate(surrogate_cpu, client_cpu, cut_count=0, cut_bytes=0,
              surrogate_memory=0):
    return CandidatePartition(
        client_nodes=frozenset({"c"}),
        surrogate_nodes=frozenset({"s"}),
        cut_count=cut_count, cut_bytes=cut_bytes,
        surrogate_memory=surrogate_memory,
        surrogate_cpu=surrogate_cpu, client_cpu=client_cpu,
    )


def ctx(total_cpu=1000.0):
    return EvaluationContext(
        heap_capacity=6 * MB, client_speed=1.0, surrogate_speed=3.5,
        link=WAVELAN_11MBPS, total_cpu=total_cpu,
    )


class TestPowerProfile:
    def test_defaults_ordering(self):
        # Active draw dominates idle: that asymmetry is what makes
        # slower-but-offloaded runs battery-positive.
        assert JORNADA_POWER.cpu_active_watts > 5 * JORNADA_POWER.idle_watts

    def test_accounting(self):
        power = PowerProfile(cpu_active_watts=2.0, idle_watts=0.5,
                             radio_j_per_byte=1e-6,
                             radio_j_per_message=1e-3)
        assert power.compute_energy(10) == 20
        assert power.idle_energy(10) == 5
        assert power.radio_energy(1_000_000, 10) == pytest.approx(1.01)
        assert power.run_energy(10, 10, 1_000_000, 10) == pytest.approx(26.01)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerProfile(cpu_active_watts=-1)


class TestPrediction:
    def test_pure_local_candidate_matches_local_energy(self):
        # A candidate keeping all CPU on the client predicts at least
        # the local compute energy.
        all_local = candidate(surrogate_cpu=0.0, client_cpu=1000.0)
        context = ctx()
        assert predict_client_energy(
            all_local, context, JORNADA_POWER
        ) >= local_energy(context, JORNADA_POWER)

    def test_offloading_compute_saves_energy_when_quiet(self):
        # 900s of CPU moves off-device; waiting burns idle, not active.
        quiet = candidate(surrogate_cpu=900.0, client_cpu=100.0,
                          cut_count=100, cut_bytes=100_000,
                          surrogate_memory=1 * MB)
        context = ctx()
        assert predict_client_energy(
            quiet, context, JORNADA_POWER
        ) < local_energy(context, JORNADA_POWER)

    def test_chatty_offload_burns_more_than_local(self):
        chatty = candidate(surrogate_cpu=50.0, client_cpu=950.0,
                           cut_count=2_000_000, cut_bytes=200 * MB,
                           surrogate_memory=1 * MB)
        context = ctx()
        assert predict_client_energy(
            chatty, context, JORNADA_POWER
        ) > local_energy(context, JORNADA_POWER)


class TestEnergyPolicy:
    def test_selects_energy_minimal_candidate(self):
        quiet = candidate(surrogate_cpu=900.0, client_cpu=100.0,
                          cut_count=100, cut_bytes=100_000)
        chatty = candidate(surrogate_cpu=900.0, client_cpu=100.0,
                           cut_count=10**6, cut_bytes=100 * MB)
        decision = EnergyPartitionPolicy().evaluate_chain(
            chain_of([chatty, quiet]), ctx()
        )
        assert decision.candidate is quiet
        assert decision.policy_name == "energy-min-client-joules"

    def test_refuses_when_radio_exceeds_savings(self):
        chatty = candidate(surrogate_cpu=100.0, client_cpu=900.0,
                           cut_count=2_000_000, cut_bytes=200 * MB)
        with pytest.raises(NoBeneficialPartitionError):
            EnergyPartitionPolicy().evaluate_chain(chain_of([chatty]), ctx())

    def test_min_saving_margin(self):
        marginal = candidate(surrogate_cpu=100.0, client_cpu=900.0,
                             cut_count=10, cut_bytes=10_000)
        EnergyPartitionPolicy(min_saving_fraction=0.0).evaluate_chain(
            chain_of([marginal]), ctx()
        )
        with pytest.raises(NoBeneficialPartitionError):
            EnergyPartitionPolicy(min_saving_fraction=0.5).evaluate_chain(
                chain_of([marginal]), ctx()
            )

    def test_no_compute_movers_refused(self):
        inert = candidate(surrogate_cpu=0.0, client_cpu=1000.0)
        with pytest.raises(NoBeneficialPartitionError):
            EnergyPartitionPolicy().evaluate_chain(chain_of([inert]), ctx())

    def test_battery_can_beat_wall_clock(self):
        """The airplane-flight trade: slower wall clock, longer battery.

        A candidate whose predicted completion time is WORSE than local
        can still be the energy policy's choice.
        """
        from repro.core.policy import predict_completion_time

        slow_but_thrifty = candidate(
            surrogate_cpu=990.0, client_cpu=10.0,
            cut_count=300_000, cut_bytes=2 * MB,
        )
        context = ctx()
        predicted_time = predict_completion_time(slow_but_thrifty, context)
        assert predicted_time > context.total_cpu / context.client_speed
        decision = EnergyPartitionPolicy().evaluate_chain(
            chain_of([slow_but_thrifty]), context
        )
        assert decision.candidate is slow_but_thrifty


class TestRealizedEnergy:
    def test_realized_energy_from_emulation_result(self):
        from repro.emulator.replay import EmulationResult

        result = EmulationResult(
            app_name="x", completed=True, total_time=100.0,
            cpu_time_client=40.0, cpu_time_surrogate=50.0,
            comm_time=8.0, migration_time=2.0,
            remote_bytes=1_000_000,
        )
        result.remote_invocations = 500
        power = PowerProfile(cpu_active_watts=2.0, idle_watts=0.5,
                             radio_j_per_byte=1e-6,
                             radio_j_per_message=1e-3)
        joules = realized_client_energy(result, power)
        # active 40*2 + idle 60*0.5 + radio 1.0 + messages 1000*1e-3
        assert joules == pytest.approx(80 + 30 + 1.0 + 1.0)
