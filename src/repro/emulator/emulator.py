"""Emulator facade: repeatable experiments over a recorded trace.

The paper's emulator "allows full-featured repeatable experimentation"
and "is able to repeatedly repartition an application" — this facade
offers exactly that: replay the same trace under arbitrary heap sizes,
device speeds, links, policies, and enhancement flags, and compare each
run against the unconstrained original.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from ..core.policy import OffloadPolicy
from ..errors import ConfigurationError
from ..units import MB
from .columnar import ColumnarTrace
from .replay import EmulationResult, EmulatorConfig, TraceReplayer

#: Heap used for "Original" baseline replays: large enough that the
#: application never feels its memory constraint.
UNCONSTRAINED_HEAP = 64 * MB


@dataclass(frozen=True)
class OverheadStudy:
    """An offloaded run compared against its unconstrained original."""

    original: EmulationResult
    offloaded: EmulationResult

    @property
    def overhead_seconds(self) -> float:
        return self.offloaded.total_time - self.original.total_time

    @property
    def overhead_fraction(self) -> float:
        return self.offloaded.overhead_fraction(self.original.total_time)

    @property
    def speedup_fraction(self) -> float:
        """Positive when the offloaded run beat the original."""
        return -self.overhead_fraction


class Emulator:
    """Replay engine bound to one recorded trace; every replay of a
    sweep reuses the trace's decoded columns."""

    def __init__(self, trace: ColumnarTrace) -> None:
        if len(trace) == 0:
            raise ConfigurationError("cannot emulate an empty trace")
        self.trace = trace

    def replay(self, config: EmulatorConfig) -> EmulationResult:
        return TraceReplayer(self.trace, config).run()

    def original(self, config: EmulatorConfig) -> EmulationResult:
        """Baseline: same devices, offloading off, unconstrained heap."""
        baseline = replace(
            config,
            client=config.client.with_heap(UNCONSTRAINED_HEAP),
            offload_enabled=False,
        )
        return self.replay(baseline)

    def overhead_study(self, config: EmulatorConfig) -> OverheadStudy:
        """Run the offloaded configuration and its original baseline."""
        return OverheadStudy(
            original=self.original(config),
            offloaded=self.replay(config),
        )

    def policy_sweep(
        self,
        policies: Iterable[OffloadPolicy],
        base_config: EmulatorConfig,
    ) -> List[Tuple[OffloadPolicy, EmulationResult]]:
        """Repartition the same trace under each policy (Figure 7)."""
        outcomes = []
        for policy in policies:
            config = replace(base_config, policy=policy,
                             partition_policy=None)
            outcomes.append((policy, self.replay(config)))
        return outcomes

    def best_policy(
        self,
        policies: Iterable[OffloadPolicy],
        base_config: EmulatorConfig,
        require_completion: bool = True,
    ) -> Tuple[Optional[OffloadPolicy], Optional[EmulationResult]]:
        """The policy with the lowest completed total time."""
        best: Tuple[Optional[OffloadPolicy], Optional[EmulationResult]] = (
            None, None
        )
        for policy, result in self.policy_sweep(policies, base_config):
            if require_completion and not result.completed:
                continue
            if best[1] is None or result.total_time < best[1].total_time:
                best = (policy, result)
        return best
