"""Trigger and partitioning policies.

Two policy families drive offloading:

* the **trigger policy** decides *when* to attempt a partitioning, from
  the garbage collector's free-memory reports.  The paper's initial
  policy triggers when three successive GC cycles report either that no
  additional memory could be freed or that less than 5% of the heap is
  available (section 5.1);
* the **partitioning policy** decides *which* candidate partitioning (if
  any) to adopt.  The paper's memory policy requires a candidate to free
  at least 20% of the heap and then minimises the historical interaction
  bytes across the cut; the processing policy (section 5.2) minimises the
  predicted completion time and refuses to offload when no candidate
  beats local execution — the Biomer outcome.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import ConfigurationError, NoBeneficialPartitionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .flatgraph import FlatChain
from ..net.link import LinkModel
from ..net.wavelan import WAVELAN_11MBPS
from ..vm.gc import GCReport
from .flatgraph import CandidatePartition

# --------------------------------------------------------------------------
# Triggering
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerConfig:
    """Parameters of the memory trigger.

    ``free_threshold`` is the free-heap fraction below which a GC report
    counts as "low"; ``tolerance`` is how many consecutive low reports
    are required before a partitioning is attempted.  The paper sweeps
    the threshold over 2%–50% and the tolerance over 1–3 (Figure 7).
    """

    free_threshold: float = 0.05
    tolerance: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.free_threshold < 1.0:
            raise ConfigurationError(
                f"free_threshold must be in (0, 1), got {self.free_threshold}"
            )
        if self.tolerance < 1:
            raise ConfigurationError("tolerance must be at least 1")


class MemoryTrigger:
    """Counts consecutive low-memory GC reports."""

    def __init__(self, config: TriggerConfig = TriggerConfig()) -> None:
        self.config = config
        self._consecutive = 0
        self.fired_count = 0

    def observe(self, report: GCReport) -> bool:
        """Feed one GC report; returns True when the trigger fires.

        A report is "low" when free heap is under the threshold, or when
        a *pressure-triggered* cycle failed to free anything ("additional
        memory cannot be freed").  A zero-freed cycle on an otherwise
        healthy heap — e.g. a periodic allocation-count cycle early in a
        run — is not a pressure signal.
        """
        pressured = report.reason in ("space-pressure", "space-exhausted",
                                      "migration-pressure")
        low = (
            report.free_fraction < self.config.free_threshold
            or (report.freed_bytes == 0 and pressured)
        )
        if not low:
            self._consecutive = 0
            return False
        self._consecutive += 1
        if self._consecutive >= self.config.tolerance:
            self._consecutive = 0
            self.fired_count += 1
            return True
        return False

    def reset(self) -> None:
        self._consecutive = 0


class BandwidthTrendTrigger:
    """Fires when the windowed link-bandwidth estimate trends below a
    threshold — the roaming client's early-warning system.

    ``observe`` keeps the last ``window`` (time, bandwidth) samples,
    fits a least-squares slope, and projects the bandwidth at ``now +
    horizon_s``.  When either the projection or the current sample sits
    below ``threshold_bps``, it returns ``"fire"`` — the platform
    should repatriate or hand off *before* the link becomes useless.
    The trigger then latches (no repeated fires while degraded) until a
    sample at or above ``restore_bps`` returns ``"recover"``, at which
    point re-offloading through the warm-start repair path is safe.
    Returns ``None`` when nothing changed.
    """

    def __init__(
        self,
        threshold_bps: float,
        horizon_s: float = 2.0,
        window: int = 3,
        restore_bps: Optional[float] = None,
    ) -> None:
        if threshold_bps <= 0:
            raise ConfigurationError("threshold must be positive")
        if horizon_s < 0:
            raise ConfigurationError("horizon cannot be negative")
        if window < 2:
            raise ConfigurationError("trend window needs >= 2 samples")
        self.threshold_bps = threshold_bps
        self.horizon_s = horizon_s
        self.window = window
        self.restore_bps = (
            threshold_bps if restore_bps is None else restore_bps
        )
        if self.restore_bps < threshold_bps:
            raise ConfigurationError(
                "restore level cannot sit below the fire threshold"
            )
        self._samples: List[Tuple[float, float]] = []
        self._degraded = False
        self.fired_count = 0
        self.recovered_count = 0

    def projected_bps(self, now: float) -> Optional[float]:
        """Least-squares projection at ``now + horizon_s`` (None until
        the window holds two distinct-time samples)."""
        samples = self._samples
        if len(samples) < 2:
            return None
        n = len(samples)
        mean_t = sum(t for t, _ in samples) / n
        mean_b = sum(b for _, b in samples) / n
        var_t = sum((t - mean_t) ** 2 for t, _ in samples)
        if var_t == 0.0:
            return None
        slope = sum(
            (t - mean_t) * (b - mean_b) for t, b in samples
        ) / var_t
        return mean_b + slope * (now + self.horizon_s - mean_t)

    def observe(self, now: float, bandwidth_bps: float) -> Optional[str]:
        self._samples.append((now, bandwidth_bps))
        if len(self._samples) > self.window:
            del self._samples[: len(self._samples) - self.window]
        if self._degraded:
            if bandwidth_bps >= self.restore_bps:
                self._degraded = False
                self._samples = [(now, bandwidth_bps)]
                self.recovered_count += 1
                return "recover"
            return None
        projected = self.projected_bps(now)
        below_now = bandwidth_bps < self.threshold_bps
        below_soon = projected is not None and projected < self.threshold_bps
        if below_now or below_soon:
            self._degraded = True
            self.fired_count += 1
            return "fire"
        return None

    def reset(self) -> None:
        self._samples.clear()
        self._degraded = False


# --------------------------------------------------------------------------
# Partition evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a partitioning policy may consult.

    ``elapsed`` is the execution-history duration behind the graph; it
    turns historical cut bytes into a predicted bandwidth.  ``total_cpu``
    is the total reference CPU time recorded in the graph.
    """

    heap_capacity: int
    client_speed: float = 1.0
    surrogate_speed: float = 1.0
    link: LinkModel = WAVELAN_11MBPS
    total_cpu: float = 0.0
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.heap_capacity <= 0:
            raise ConfigurationError("heap_capacity must be positive")
        if self.client_speed <= 0 or self.surrogate_speed <= 0:
            raise ConfigurationError("device speeds must be positive")


@dataclass(frozen=True)
class PolicyDecision:
    """A selected candidate plus the policy's predictions about it."""

    candidate: CandidatePartition
    policy_name: str
    predicted_bandwidth: float = 0.0
    predicted_time: Optional[float] = None
    original_time: Optional[float] = None

    @property
    def offload_nodes(self):
        return self.candidate.surrogate_nodes

    @property
    def freed_bytes(self) -> int:
        return self.candidate.surrogate_memory


class PartitionPolicy(ABC):
    """Base partitioning policy: one scan over the candidate chain.

    A policy implements exactly two methods.  :meth:`evaluate_chain`
    scans the chain's statistics columns (see ``core.flatgraph``),
    picks the winner — the first candidate with the best key, like
    ``min()`` — and returns ``decision_for(chain.candidate(i), ctx)``,
    or raises :class:`NoBeneficialPartitionError` with the refusal
    reason.  :meth:`decision_for` builds the decision for the winner.
    Every epoch of a partitioning session runs :meth:`evaluate_chain`
    afresh, a reuse epoch too (see :func:`context_key`).
    """

    name = "abstract"

    @abstractmethod
    def evaluate_chain(
        self, chain: "FlatChain", ctx: EvaluationContext
    ) -> PolicyDecision:
        """Select a winner from ``chain``, or refuse every candidate."""

    @abstractmethod
    def decision_for(
        self, candidate: CandidatePartition, ctx: EvaluationContext
    ) -> PolicyDecision:
        """The full decision for the selected winner.

        The *selection* (which candidate wins, or that every candidate
        is refused) is a pure function of the candidates' scalar
        statistics and the :func:`context_key` fields; the derived
        predictions (bandwidth, completion times) are computed here
        against the whole context, ``elapsed`` included.
        """


def context_key(ctx: EvaluationContext) -> Tuple:
    """The context fields a policy selection can depend on.

    ``elapsed`` is excluded — it only scales the predicted bandwidth,
    which :meth:`PartitionPolicy.decision_for` computes afresh.
    ``total_cpu`` is rounded (it is a float accumulation) so equivalent
    histories key identically.  A session's reuse epoch (same chain)
    under the previous epoch's key repeats that epoch's selection, and
    the session reports it as ``policy_cache_hit``.
    """
    return (
        ctx.heap_capacity,
        ctx.client_speed,
        ctx.surrogate_speed,
        ctx.link,
        round(ctx.total_cpu, 9),
    )


class MemoryPartitionPolicy(PartitionPolicy):
    """Free enough memory at minimum network bandwidth (section 5.1).

    Any acceptable candidate must move at least ``min_free_fraction`` of
    the heap off the client; among those, the candidate with the lowest
    historical cut bytes wins (ties broken towards freeing more, then
    towards the earliest).  This is why the paper's JavaNote run
    offloaded ~90% of the heap when only 20% was required: the
    bandwidth minimum happened to be there.

    The scan runs at C speed.  Moving a node to the client never adds
    surrogate memory (node memory is never negative), so along a chain
    the memory column never increases and the acceptable candidates
    are a prefix, found by bisection.  Within that prefix an earlier
    candidate frees at least as much as a later one, so the first
    candidate with the least cut bytes is the one the tie-breaks pick.
    One C-speed sort confirms the column never increases; a hand-built
    chain whose memory column does increase is scanned the plain way.
    """

    name = "memory-min-bandwidth"

    def __init__(self, min_free_fraction: float = 0.20) -> None:
        if not 0.0 < min_free_fraction <= 1.0:
            raise ConfigurationError(
                f"min_free_fraction must be in (0, 1], got {min_free_fraction}"
            )
        self.min_free_fraction = min_free_fraction

    def evaluate_chain(
        self, chain: "FlatChain", ctx: EvaluationContext
    ) -> PolicyDecision:
        required = self.min_free_fraction * ctx.heap_capacity
        memory = chain.surrogate_memory
        cut_bytes = chain.cut_bytes
        k = chain.k
        if memory == sorted(memory, reverse=True):
            # The candidates freeing ``required`` are ``memory[:end]``.
            end = k - bisect_left(memory[::-1], required)
            best = cut_bytes.index(min(cut_bytes[:end])) if end else -1
        else:
            # A hand-built chain whose memory column increases somewhere.
            best = min((i for i in range(k) if memory[i] >= required),
                       key=lambda i: (cut_bytes[i], -memory[i]),
                       default=-1)
        if best < 0:
            raise NoBeneficialPartitionError(
                f"no candidate frees the required {required:.0f} bytes"
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
        )


def predict_completion_time(
    candidate: CandidatePartition, ctx: EvaluationContext
) -> float:
    """Predicted run time if history repeated under this placement.

    Client-side CPU runs at the client's speed, surrogate-side CPU at
    the surrogate's, every historical cut interaction pays a round trip,
    the cut bytes ride the link, and the offloaded state must first be
    migrated.
    """
    compute = (
        candidate.client_cpu / ctx.client_speed
        + candidate.surrogate_cpu / ctx.surrogate_speed
    )
    communication = (
        candidate.cut_count * ctx.link.rtt
        + (candidate.cut_bytes * 8) / ctx.link.bandwidth_bps
    )
    migration = ctx.link.bulk_transfer(candidate.surrogate_memory)
    return compute + communication + migration


class CpuPartitionPolicy(PartitionPolicy):
    """Minimise predicted completion time; refuse when not beneficial.

    ``min_speedup_fraction`` demands that the predicted time beat local
    execution by at least that margin — the paper's platform, with the
    margin at zero, correctly declined to offload Biomer because its
    best candidate predicted 790 s against 750 s locally.
    """

    name = "cpu-min-completion"

    def __init__(self, min_speedup_fraction: float = 0.0) -> None:
        if min_speedup_fraction < 0 or min_speedup_fraction >= 1:
            raise ConfigurationError(
                "min_speedup_fraction must be in [0, 1)"
            )
        self.min_speedup_fraction = min_speedup_fraction

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
        best = -1
        predicted = 0.0
        for i in range(chain.k):
            if surrogate_cpu[i] > 0:
                # Term-for-term the same expression as
                # predict_completion_time, so the floats agree bit for
                # bit with the prediction ``decision_for`` reports.
                compute = (
                    client_cpu[i] / client_speed
                    + surrogate_cpu[i] / surrogate_speed
                )
                communication = (
                    cut_count[i] * rtt
                    + (cut_bytes[i] * 8) / bandwidth_bps
                )
                total = compute + communication + bulk_transfer(memory[i])
                if best < 0 or total < predicted:
                    best = i
                    predicted = total
        if best < 0:
            raise NoBeneficialPartitionError(
                "no candidate moves any computation"
            )
        original_time = ctx.total_cpu / ctx.client_speed
        if predicted >= original_time * (1.0 - self.min_speedup_fraction):
            raise NoBeneficialPartitionError(
                f"best candidate predicts {predicted:.1f}s vs "
                f"{original_time:.1f}s locally"
            )
        return self.decision_for(chain.candidate(best), ctx)

    def decision_for(
        self, candidate: CandidatePartition, ctx: EvaluationContext
    ) -> PolicyDecision:
        predicted = predict_completion_time(candidate, ctx)
        bandwidth = (
            candidate.cut_bytes / ctx.elapsed if ctx.elapsed > 0 else 0.0
        )
        return PolicyDecision(
            candidate=candidate,
            policy_name=self.name,
            predicted_bandwidth=bandwidth,
            predicted_time=predicted,
            original_time=ctx.total_cpu / ctx.client_speed,
        )


class BestEffortCpuPolicy(CpuPartitionPolicy):
    """CPU policy that always offloads its *optimistically* best candidate.

    Used to reproduce the paper's "Initial" bars in Figure 10: the
    system offloads the partition with the greatest apparent compute
    gain, blind to the remote-interaction cost it will realise — which
    is exactly why the unenhanced prototype's offloads came out worse
    than local execution.  It also serves as the "manual partitioning"
    probe for Biomer: forcing the compute partition the refusal policy
    declined shows what that partition actually realises.
    """

    name = "cpu-best-effort"

    def evaluate_chain(
        self, chain: "FlatChain", ctx: EvaluationContext
    ) -> PolicyDecision:
        surrogate_cpu = chain.surrogate_cpu
        cut_bytes = chain.cut_bytes
        cut_count = chain.cut_count
        max_cpu = 0.0
        any_offloading = False
        for i in range(chain.k):
            cpu = surrogate_cpu[i]
            if cpu > 0:
                any_offloading = True
                if cpu > max_cpu:
                    max_cpu = cpu
        if not any_offloading:
            raise NoBeneficialPartitionError(
                "no candidate moves any computation"
            )
        floor = 0.95 * max_cpu
        best = -1
        best_bytes = 0
        best_count = 0
        for i in range(chain.k):
            if surrogate_cpu[i] > 0 and surrogate_cpu[i] >= floor:
                nbytes = cut_bytes[i]
                count = cut_count[i]
                if (best < 0 or nbytes < best_bytes
                        or (nbytes == best_bytes and count < best_count)):
                    best = i
                    best_bytes = nbytes
                    best_count = count
        return self.decision_for(chain.candidate(best), ctx)


class CombinedPartitionPolicy(MemoryPartitionPolicy):
    """Memory constraint plus completion-time objective (paper section 8).

    The paper lists "simultaneously consider multiple constraints" as
    future work; this policy implements the natural combination — free
    the required memory (the memory policy's ``min_free_fraction``),
    then minimise predicted completion time among the eligible
    candidates.
    """

    name = "combined-memory-cpu"

    def evaluate_chain(
        self, chain: "FlatChain", ctx: EvaluationContext
    ) -> PolicyDecision:
        required = self.min_free_fraction * ctx.heap_capacity
        memory = chain.surrogate_memory
        surrogate_cpu = chain.surrogate_cpu
        client_cpu = chain.client_cpu
        cut_count = chain.cut_count
        cut_bytes = chain.cut_bytes
        client_speed = ctx.client_speed
        surrogate_speed = ctx.surrogate_speed
        link = ctx.link
        rtt = link.rtt
        bandwidth_bps = link.bandwidth_bps
        bulk_transfer = link.bulk_transfer
        best = -1
        best_time = 0.0
        for i in range(chain.k):
            if memory[i] >= required:
                compute = (
                    client_cpu[i] / client_speed
                    + surrogate_cpu[i] / surrogate_speed
                )
                communication = (
                    cut_count[i] * rtt
                    + (cut_bytes[i] * 8) / bandwidth_bps
                )
                total = compute + communication + bulk_transfer(memory[i])
                if best < 0 or total < best_time:
                    best = i
                    best_time = total
        if best < 0:
            raise NoBeneficialPartitionError(
                f"no candidate frees the required {required:.0f} bytes"
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


@dataclass(frozen=True)
class OffloadPolicy:
    """A complete policy point: trigger parameters + partition parameters.

    This is the unit the Figure 7 sweep iterates over: the triggering
    threshold (2%–50% free), the tolerance to low-memory signals (1–3
    events), and the minimum memory to free (10%–80%).
    """

    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    min_free_fraction: float = 0.20

    @classmethod
    def initial(cls) -> "OffloadPolicy":
        """The paper's initial policy: 5% threshold, 3 reports, free 20%."""
        return cls(TriggerConfig(free_threshold=0.05, tolerance=3), 0.20)

    def make_trigger(self) -> MemoryTrigger:
        return MemoryTrigger(self.trigger)

    def make_partition_policy(self) -> MemoryPartitionPolicy:
        return MemoryPartitionPolicy(self.min_free_fraction)

    def label(self) -> str:
        return (
            f"trigger<{self.trigger.free_threshold:.0%}"
            f" x{self.trigger.tolerance}, free>={self.min_free_fraction:.0%}"
        )


def policy_sweep(
    thresholds=(0.02, 0.05, 0.10, 0.25, 0.50),
    tolerances=(1, 2, 3),
    min_free_fractions=(0.10, 0.20, 0.40, 0.60, 0.80),
) -> List[OffloadPolicy]:
    """The Figure 7 policy grid (defaults follow the paper's ranges)."""
    grid = []
    for threshold in thresholds:
        for tolerance in tolerances:
            for min_free in min_free_fractions:
                grid.append(
                    OffloadPolicy(
                        TriggerConfig(free_threshold=threshold,
                                      tolerance=tolerance),
                        min_free,
                    )
                )
    return grid
