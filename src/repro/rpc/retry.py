"""Timeouts, bounded backoff, and idempotent retransmission.

The recovery half of the fault-injection story
(:mod:`repro.net.faults`).  :class:`ReliableDelivery` fronts every
cross-site exchange with the classic RPC discipline:

* a retransmission **timeout** bounds how long the sender waits for a
  response before trying again;
* retries back off **exponentially with jitter**, the jitter drawn from
  the fault schedule's seeded RNG so a retried run replays identically;
* retransmissions of one exchange are the same request, and the apply
  callback runs **exactly once** per exchange — a retransmission whose
  original *request* got through (only the acknowledgement was lost) is
  recognised as a duplicate and acknowledged without re-applying;
  ``exchanges`` counts the delivered exchanges, and is the sequence
  number a migration stream records;
* after ``max_retries`` consecutive losses the peer is **declared
  dead** and the ``on_peer_lost`` callback runs (the platform's cue to
  drain in-flight batches and fall back to client-only execution).

All waiting is charged to the emulated clock through the ``charge``
callback; nothing here sleeps or reads wall time.

A hot caller need not run the gauntlet for every exchange:
:meth:`ReliableDelivery.look_ahead` has the schedule judge upcoming
exchanges ahead, and while the schedule holds credit and the caller is
inside its horizon, the caller spends one unit of credit and counts
the exchange itself (see :mod:`repro.emulator.replay`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..errors import ConfigurationError
from ..net.faults import FaultReport, FaultSchedule


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for cross-site exchanges.

    Attempt *i* (0-based) that times out charges ``timeout_s`` plus
    ``backoff(i)`` before the next try; after ``max_retries`` failed
    retries the peer is declared dead.  ``give_up_s`` is the worst-case
    time spent before declaring death — callers use it as the patience
    budget for link partitions too (a partition that will outlast the
    full retry ladder is treated as a dead peer immediately, after
    charging the ladder).
    """

    timeout_s: float = 0.025
    max_retries: int = 4
    backoff_base_s: float = 0.010
    backoff_cap_s: float = 0.160
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError("backoff bounds are inconsistent")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (0-based), jittered."""
        base = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
        if self.jitter:
            # Uniform in [1 - jitter/2, 1 + jitter/2]: full backoff on
            # average, spread enough to break retry synchronisation.
            base *= 1.0 + self.jitter * (rng.random() - 0.5)
        return base

    @property
    def give_up_s(self) -> float:
        """Worst-case charged time before declaring the peer dead."""
        total = 0.0
        for attempt in range(self.max_retries):
            base = min(self.backoff_cap_s,
                       self.backoff_base_s * (2 ** attempt))
            total += self.timeout_s + base * (1.0 + self.jitter / 2)
        return total + self.timeout_s


class ReliableDelivery:
    """Exactly-once application of exchanges over a faulty link.

    ``charge(seconds)`` advances the emulated clock; ``counters``, the
    run's :class:`~repro.net.faults.FaultReport` (a fresh one when
    omitted), receives the bookkeeping.  ``events`` supplies the
    caller's event index for ``crash_at_event`` checks; it defaults to
    this delivery's own exchange counter.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        schedule: Optional[FaultSchedule] = None,
        charge: Optional[Callable[[float], None]] = None,
        counters: Optional[FaultReport] = None,
        now: Optional[Callable[[], float]] = None,
        events: Optional[Callable[[], int]] = None,
        on_peer_lost: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.policy = policy
        self.schedule = schedule
        self._charge = charge if charge is not None else (lambda s: None)
        self.counters = counters if counters is not None else FaultReport()
        self._now = now if now is not None else (lambda: 0.0)
        self._events = events if events is not None else (lambda: self.exchanges)
        self._on_peer_lost = on_peer_lost
        self.exchanges = 0
        self.peer_dead = False
        self.duplicates_suppressed = 0

    # -- bookkeeping helpers -----------------------------------------------

    def _charge_fault(self, seconds: float) -> None:
        self._charge(seconds)
        self.counters.fault_time_s += seconds

    def _suppress_duplicate(self) -> None:
        # The retransmitted request was already applied: acknowledge,
        # don't re-apply.
        self.duplicates_suppressed += 1
        self.counters.duplicates_suppressed += 1

    def _declare_dead(self, reason: str) -> None:
        if self.peer_dead:
            return
        self.peer_dead = True
        self.counters.surrogate_lost = True
        self.counters.lost_reason = reason
        if self._on_peer_lost is not None:
            self._on_peer_lost(reason)

    def revive(self) -> None:
        """A (replacement) peer was discovered; exchanges may resume."""
        self.peer_dead = False
        if self.schedule is not None:
            self.schedule.revive()

    def look_ahead(self) -> None:
        """Re-arm a hot caller's inline path (see the module docstring).

        The schedule judges upcoming exchanges and bounds them by its
        horizon; a dead peer gets no horizon, so nothing skips the
        gauntlet until the next exchange after a revive.
        """
        schedule = self.schedule
        if self.peer_dead:
            schedule.clear_horizon()
        else:
            schedule.look_ahead(self._now())

    # -- the exchange ------------------------------------------------------

    def exchange(
        self, apply: Optional[Callable[[], Any]] = None,
    ) -> Tuple[bool, Any]:
        """Run one request/response exchange through the fault gauntlet.

        Returns ``(delivered, result)``.  ``apply`` is the exchange's
        effect (charging the wire, running the serving-side operation);
        it runs exactly once per exchange even when the exchange is
        retransmitted, and not at all when the peer is declared dead
        before the *request* ever arrives.
        """
        if self.peer_dead:
            return False, None
        applied = False
        result = None
        schedule = self.schedule
        if schedule is not None:
            policy = self.policy
            if schedule.crashed(self._events(), self._now()):
                # The peer is gone; the sender only learns that by
                # running the full retry ladder against silence.
                self._charge_fault(policy.give_up_s)
                self.counters.timeouts += policy.max_retries + 1
                self.counters.retries += policy.max_retries
                self._declare_dead("crash")
                return False, None

            until = schedule.partition_until(self._now())
            if until is not None:
                wait = until - self._now()
                if wait > policy.give_up_s:
                    # The outage will outlast every retry: the sender
                    # exhausts its ladder and declares the peer dead.
                    self._charge_fault(policy.give_up_s)
                    self.counters.timeouts += policy.max_retries + 1
                    self.counters.retries += policy.max_retries
                    self.counters.partition_waits += 1
                    self._declare_dead("partition")
                    return False, None
                # Short outage: the first retransmission after the
                # window heals gets through; the sender just waits.
                self._charge_fault(wait)
                self.counters.partition_waits += 1

            attempt = 0
            while schedule.drops_message():
                if schedule.lost_leg_is_ack():
                    # The request arrived and was applied; only the
                    # acknowledgement vanished.  The retransmission
                    # below must be deduplicated, not re-applied.
                    if applied:
                        self._suppress_duplicate()
                    else:
                        applied = True
                        if apply is not None:
                            result = apply()
                if attempt >= policy.max_retries:
                    self._declare_dead("loss")
                    return False, None
                self._charge_fault(
                    policy.timeout_s + policy.backoff(attempt, schedule.rng)
                )
                self.counters.retries += 1
                self.counters.timeouts += 1
                attempt += 1

            spike = schedule.latency_spike()
            if spike:
                self._charge_fault(spike)
                self.counters.latency_spikes += 1
        self.exchanges += 1
        if applied:
            self._suppress_duplicate()
        elif apply is not None:
            result = apply()
        return True, result

    def attempt(self) -> bool:
        """An exchange with no payload effect; True when delivered."""
        delivered, _ = self.exchange(None)
        return delivered


__all__ = ["ReliableDelivery", "RetryPolicy"]
