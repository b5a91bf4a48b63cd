"""Energy accounting and the battery-saving policy.

The paper defines offloading as beneficial when "it improves the
performance of the application (e.g., its speed or battery life)" and
gives the motivating example of a user who chooses "to extend battery
life at the cost of slower execution in order to allow the device to
continue functioning during a long airplane flight" (section 2); its
future work adds "constraints on other resources such as network
bandwidth and power" (section 8).

This module supplies the two pieces that vision needs:

* :class:`PowerProfile` — a simple device power model (active CPU
  wattage, radio transmit/receive energy per byte, per-message radio
  wake cost, idle draw), of early-2000s magnitude by default;
* :class:`EnergyPartitionPolicy` — selects the candidate partitioning
  that minimises predicted *client* energy, refusing when no candidate
  beats local execution.  Note the trade the paper describes: remote
  execution may be slower in wall-clock terms yet still win on battery,
  because idle draw is far below active draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, NoBeneficialPartitionError
from .flatgraph import CandidatePartition
from .policy import (
    EvaluationContext,
    PartitionPolicy,
    PolicyDecision,
    predict_completion_time,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .flatgraph import FlatChain


@dataclass(frozen=True)
class PowerProfile:
    """Client-device power model (2001 PDA magnitudes by default)."""

    #: Draw while the CPU executes guest work.
    cpu_active_watts: float = 2.4
    #: Draw while the device waits on remote execution or idles.
    idle_watts: float = 0.25
    #: Radio energy per byte moved (either direction, WaveLAN-era).
    radio_j_per_byte: float = 2.0e-6
    #: Radio wake/transaction cost per message exchange.
    radio_j_per_message: float = 1.5e-3

    def __post_init__(self) -> None:
        for name in ("cpu_active_watts", "idle_watts", "radio_j_per_byte",
                     "radio_j_per_message"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} cannot be negative")

    # -- accounting -------------------------------------------------------------

    def compute_energy(self, cpu_seconds: float) -> float:
        return self.cpu_active_watts * cpu_seconds

    def idle_energy(self, seconds: float) -> float:
        return self.idle_watts * seconds

    def radio_energy(self, nbytes: int, messages: int) -> float:
        return (self.radio_j_per_byte * nbytes
                + self.radio_j_per_message * messages)

    def run_energy(self, client_cpu_seconds: float, waiting_seconds: float,
                   radio_bytes: int, radio_messages: int) -> float:
        """Total client joules for one (partial) run."""
        return (
            self.compute_energy(client_cpu_seconds)
            + self.idle_energy(waiting_seconds)
            + self.radio_energy(radio_bytes, radio_messages)
        )


#: A 2001-era PDA battery-friendly reference profile.
JORNADA_POWER = PowerProfile()


def predict_client_energy(
    candidate: CandidatePartition,
    ctx: EvaluationContext,
    power: PowerProfile,
) -> float:
    """Predicted client joules if history repeated under this placement.

    Client CPU burns at active draw; time spent waiting for the
    surrogate (its compute plus the link time) burns idle draw; every
    historical cut interaction costs radio energy for two messages plus
    its bytes; the migration streams its bytes once.
    """
    client_cpu = candidate.client_cpu / ctx.client_speed
    waiting = (
        candidate.surrogate_cpu / ctx.surrogate_speed
        + candidate.cut_count * ctx.link.rtt
        + (candidate.cut_bytes * 8) / ctx.link.bandwidth_bps
        + ctx.link.bulk_transfer(candidate.surrogate_memory)
    )
    radio_bytes = candidate.cut_bytes + candidate.surrogate_memory
    radio_messages = 2 * candidate.cut_count + 1
    return power.run_energy(client_cpu, waiting, radio_bytes, radio_messages)


def local_energy(ctx: EvaluationContext, power: PowerProfile) -> float:
    """Client joules for executing the whole history locally."""
    return power.compute_energy(ctx.total_cpu / ctx.client_speed)


def realized_client_energy(result, power: PowerProfile) -> float:
    """Client joules actually spent in an emulated run.

    ``result`` is an :class:`~repro.emulator.replay.EmulationResult`.
    Client CPU, GC pauses and monitoring burn at active draw; the rest
    of the wall clock (surrogate compute, link waits, migration) burns
    idle draw; the radio pays for every remote byte plus two messages
    per remote interaction and one per migration batch.
    """
    active = (result.cpu_time_client + result.gc_pause_time
              + result.monitoring_time)
    waiting = max(result.total_time - active, 0.0)
    radio_bytes = result.remote_bytes + result.migration_bytes
    radio_messages = 2 * result.remote_interactions + len(result.offloads)
    return power.run_energy(active, waiting, radio_bytes, radio_messages)


class EnergyPartitionPolicy(PartitionPolicy):
    """Minimise predicted client energy (the airplane-flight policy).

    ``min_saving_fraction`` demands at least that fractional battery
    saving before offloading is considered beneficial.
    """

    name = "energy-min-client-joules"

    def __init__(self, power: PowerProfile = JORNADA_POWER,
                 min_saving_fraction: float = 0.0) -> None:
        if not 0.0 <= min_saving_fraction < 1.0:
            raise ConfigurationError(
                "min_saving_fraction must be in [0, 1)"
            )
        self.power = power
        self.min_saving_fraction = min_saving_fraction

    def evaluate_chain(
        self, chain: "FlatChain", ctx: EvaluationContext
    ) -> PolicyDecision:
        surrogate_cpu = chain.surrogate_cpu
        client_cpu = chain.client_cpu
        cut_count = chain.cut_count
        cut_bytes = chain.cut_bytes
        memory = chain.surrogate_memory
        client_speed = ctx.client_speed
        surrogate_speed = ctx.surrogate_speed
        link = ctx.link
        rtt = link.rtt
        bandwidth_bps = link.bandwidth_bps
        bulk_transfer = link.bulk_transfer
        run_energy = self.power.run_energy
        best = -1
        predicted = 0.0
        for i in range(chain.k):
            if surrogate_cpu[i] > 0:
                # Term-for-term the same expression as
                # predict_client_energy, so the scan ranks candidates
                # by bit-identical floats.
                waiting = (
                    surrogate_cpu[i] / surrogate_speed
                    + cut_count[i] * rtt
                    + (cut_bytes[i] * 8) / bandwidth_bps
                    + bulk_transfer(memory[i])
                )
                joules = run_energy(
                    client_cpu[i] / client_speed, waiting,
                    cut_bytes[i] + memory[i], 2 * cut_count[i] + 1,
                )
                if best < 0 or joules < predicted:
                    best = i
                    predicted = joules
        if best < 0:
            raise NoBeneficialPartitionError(
                "no candidate moves any computation"
            )
        baseline = local_energy(ctx, self.power)
        if predicted >= baseline * (1.0 - self.min_saving_fraction):
            raise NoBeneficialPartitionError(
                f"best candidate predicts {predicted:.1f}J vs "
                f"{baseline:.1f}J locally"
            )
        return self.decision_for(chain.candidate(best), ctx)

    def decision_for(
        self, candidate: CandidatePartition, ctx: EvaluationContext
    ) -> PolicyDecision:
        bandwidth = (
            candidate.cut_bytes / ctx.elapsed if ctx.elapsed > 0 else 0.0
        )
        return PolicyDecision(
            candidate=candidate,
            policy_name=self.name,
            predicted_bandwidth=bandwidth,
            predicted_time=predict_completion_time(candidate, ctx),
            original_time=ctx.total_cpu / ctx.client_speed,
        )
