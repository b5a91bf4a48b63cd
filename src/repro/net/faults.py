"""Deterministic fault injection for the emulated wireless link.

The paper assumes the surrogate stays reachable for the lifetime of the
offload; its monolithic-fallback framing (run everything on the client
when no surrogate is usable) is exactly the degradation path a platform
needs when the WaveLAN link drops mid-partition.  This module supplies
the *fault model* half of that story:

* :class:`FaultSpec` — a frozen, seedable description of what goes
  wrong: independent message loss, latency spikes, link partitions of a
  given duration, and a hard surrogate crash at event/time N.  Specs
  parse from and render to a compact string (``"seed=42,loss=0.05"``)
  so a failing CI scenario can be reproduced locally from its printed
  form.
* :class:`FaultSchedule` — the stateful overlay that sits in front of a
  :class:`~repro.net.link.LinkModel`: every delivery attempt consults
  it, and every verdict is drawn from a ``random.Random(seed)`` stream,
  so identical seed + schedule means bit-identical behaviour.  All cost
  it induces is charged to the *emulated* clock by its callers — the
  schedule itself never touches wall time.  A caller on a hot path may
  have it judge upcoming exchanges ahead (:meth:`FaultSchedule.look_ahead`)
  and take the clean ones without consulting it at all.
* :class:`FaultReport` — the counters a faulty run surfaces (retries,
  timeouts, dropped batches, downtime, objects repatriated).

The recovery half — timeouts, bounded backoff, idempotent
retransmission, and the client-only fallback — lives in
:mod:`repro.rpc.retry` and the platform/emulator layers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from ..errors import ConfigurationError


def _fnum(x: float) -> str:
    """Shortest decimal form that parses back to exactly ``x``.

    ``%g`` is compact but lossy past six significant digits; falling
    back to ``repr`` keeps :meth:`FaultSpec.canonical` an exact inverse
    of :meth:`FaultSpec.parse` for every float, which the round-trip
    property test relies on.
    """
    compact = f"{x:g}"
    return compact if float(compact) == x else repr(x)


#: Extra one-way delay of a latency spike unless a spec says otherwise.
DEFAULT_SPIKE_S = 0.050


@dataclass(frozen=True)
class FaultSpec:
    """A deterministic description of link and surrogate failures.

    ``partition_windows`` are ``(start_s, end_s)`` intervals of virtual
    time during which no message crosses the link in either direction.
    ``crash_at_event`` counts the *caller's* events (trace events in the
    emulator, delivery exchanges on the live platform); once reached,
    the surrogate never responds again.
    """

    seed: int = 0
    loss_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = DEFAULT_SPIKE_S
    partition_windows: Tuple[Tuple[float, float], ...] = ()
    crash_at_event: Optional[int] = None
    crash_at_time: Optional[float] = None

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it (every comparison
        # with NaN is False): outside inputs must fail loudly.
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if not 0.0 <= self.latency_spike_rate < 1.0:
            raise ConfigurationError(
                f"latency_spike_rate must be in [0, 1), got "
                f"{self.latency_spike_rate}"
            )
        if not 0.0 <= self.latency_spike_s < math.inf:
            raise ConfigurationError(
                f"latency_spike_s must be finite and non-negative, got "
                f"{self.latency_spike_s}"
            )
        windows = tuple(sorted(tuple(w) for w in self.partition_windows))
        last_end = None
        for start, end in windows:
            if not 0 <= start < end:
                raise ConfigurationError(
                    f"malformed partition window {start}:{end}"
                )
            if last_end is not None and start < last_end:
                raise ConfigurationError("partition windows overlap")
            last_end = end
        object.__setattr__(self, "partition_windows", windows)
        if self.crash_at_event is not None and self.crash_at_event < 0:
            raise ConfigurationError("crash_at_event cannot be negative")
        if self.crash_at_time is not None and not self.crash_at_time >= 0:
            raise ConfigurationError(
                f"crash_at_time must be non-negative, got {self.crash_at_time}"
            )

    @property
    def any_faults(self) -> bool:
        return bool(
            self.loss_rate
            or self.latency_spike_rate
            or self.partition_windows
            or self.crash_at_event is not None
            or self.crash_at_time is not None
        )

    # -- the printable form -------------------------------------------------

    def canonical(self) -> str:
        """Compact spec string; :meth:`parse` round-trips it exactly."""
        parts = [f"seed={self.seed}"]
        if self.loss_rate:
            parts.append(f"loss={_fnum(self.loss_rate)}")
        if self.latency_spike_rate or self.latency_spike_s != DEFAULT_SPIKE_S:
            parts.append(
                f"spike={_fnum(self.latency_spike_rate)}"
                f":{_fnum(self.latency_spike_s)}"
            )
        for start, end in self.partition_windows:
            parts.append(f"partition={_fnum(start)}:{_fnum(end)}")
        if self.crash_at_event is not None:
            parts.append(f"crash_at_event={self.crash_at_event}")
        if self.crash_at_time is not None:
            parts.append(f"crash_at_time={_fnum(self.crash_at_time)}")
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a ``key=value,...`` spec (the ``--faults`` CLI syntax).

        Keys: ``seed``, ``loss``, ``spike=RATE:SECONDS``,
        ``partition=START:END`` (repeatable), ``crash_at_event``,
        ``crash_at_time``.
        """
        kwargs: dict = {}
        windows = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigurationError(
                    f"fault spec entry {chunk!r} is not key=value"
                )
            key, value = chunk.split("=", 1)
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "loss":
                    kwargs["loss_rate"] = float(value)
                elif key == "spike":
                    rate, _, seconds = value.partition(":")
                    kwargs["latency_spike_rate"] = float(rate)
                    if seconds:
                        kwargs["latency_spike_s"] = float(seconds)
                elif key == "partition":
                    start, _, end = value.partition(":")
                    windows.append((float(start), float(end)))
                elif key == "crash_at_event":
                    kwargs["crash_at_event"] = int(value)
                elif key == "crash_at_time":
                    kwargs["crash_at_time"] = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown fault spec key {key!r}"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault spec value {chunk!r}: {exc}"
                ) from None
        if windows:
            kwargs["partition_windows"] = tuple(windows)
        return cls(**kwargs)


@dataclass
class FaultReport:
    """What the faults cost one run, and how recovery went.

    ``fault_time_s`` is every second the fault machinery charged to the
    emulated clock (timeouts, backoff, partition waits, latency
    spikes); subtracting it from a faulty run's total recovers the
    useful-work time the degradation guards compare against the
    all-local baseline.
    """

    spec: str = ""
    retries: int = 0
    timeouts: int = 0
    dropped_batches: int = 0
    duplicates_suppressed: int = 0
    latency_spikes: int = 0
    partition_waits: int = 0
    fault_time_s: float = 0.0
    surrogate_lost: bool = False
    lost_reason: str = ""
    recoveries: int = 0
    rediscoveries: int = 0
    objects_repatriated: int = 0
    repatriated_bytes: int = 0
    downtime_s: float = 0.0
    epochs_survived: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Most clean exchanges one :meth:`FaultSchedule.look_ahead` judges: it
#: bounds the draws taken ahead at tiny fault rates, and is the whole
#: credit when no rate is set (every exchange is clean, nothing is drawn).
LOOK_AHEAD_LIMIT = 4096


class FaultSchedule:
    """Seeded, stateful fault verdicts for one run.

    One schedule instance serves one run: every consult draws from the
    same seeded stream, in caller order, so two runs that replay the
    same operation sequence under equal specs see identical faults.
    Construct a fresh schedule (or call :meth:`reset`) per run.

    **Looking ahead.**  An exchange consults :meth:`drops_message` until
    it is delivered (a lost one draws :meth:`lost_leg_is_ack` and its
    backoff jitter in between) and then :meth:`latency_spike`.  A
    *clean* exchange, delivered first time with no spike, therefore
    consumes exactly its loss draw and its spike draw.
    :meth:`look_ahead` takes those draws early, in the same order: it
    counts the clean exchanges ahead as :attr:`credit` and stashes the
    leading draws of the first exchange that is not clean.  The
    verdict methods serve the credit and then the stash before drawing
    again, so the verdicts every caller sees are unchanged.  A caller
    may instead spend a unit of credit itself, for an exchange it knows
    is clean, while it stays inside the :attr:`horizon_event` /
    :attr:`horizon_time` bounds the same call reported.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.reset()

    def reset(self) -> None:
        """Rewind to the start of the fault stream (a fresh run)."""
        self.rng = random.Random(self.spec.seed)
        self._crashed = False
        self._crash_armed = True
        #: Clean exchanges already judged (their draws are taken).
        self.credit = 0
        #: Leading draws of the first exchange past the credit.
        self._stash: List[float] = []
        self.clear_horizon()

    # -- hard crash ---------------------------------------------------------

    def crashed(self, events: int, now: float) -> bool:
        """Has the surrogate hard-crashed by event ``events`` / ``now``?

        Sticky: once the crash condition has been observed the surrogate
        never comes back (short of :meth:`revive`, which models a
        replacement surrogate being discovered).
        """
        if self._crashed:
            return True
        if not self._crash_armed:
            return False
        spec = self.spec
        if spec.crash_at_event is not None and events >= spec.crash_at_event:
            self._crashed = True
        if spec.crash_at_time is not None and now >= spec.crash_at_time:
            self._crashed = True
        return self._crashed

    def revive(self) -> None:
        """A replacement surrogate appeared: clear the crash latch.

        Disarms the crash condition too — the spec describes the *old*
        surrogate's death, and ``events >= crash_at_event`` stays true
        forever, so the replacement must not immediately re-crash.
        (Credit and stash stay valid: reviving draws nothing.)
        """
        self._crashed = False
        self._crash_armed = False

    # -- link verdicts ------------------------------------------------------

    def partition_until(self, now: float) -> Optional[float]:
        """End of the partition window covering ``now``, if any."""
        for start, end in self.spec.partition_windows:
            if start <= now < end:
                return end
        return None

    def _draw(self) -> float:
        stash = self._stash
        return stash.pop(0) if stash else self.rng.random()

    def drops_message(self) -> bool:
        """One delivery attempt: lost?  (One draw per call.)"""
        if self.credit:
            return False
        if not self.spec.loss_rate:
            return False
        return self._draw() < self.spec.loss_rate

    def lost_leg_is_ack(self) -> bool:
        """A lost exchange: did the *response* leg vanish?

        When the acknowledgement (not the request) was lost, the
        receiver already applied the operation — the retransmission must
        be recognised as a duplicate, not applied again.  (One draw per
        call; only drawn for exchanges already judged lost.)
        """
        return self._draw() < 0.5

    def latency_spike(self) -> float:
        """Extra one-way delay for this delivery (0.0 when no spike).

        The last verdict of every delivered exchange, so a clean
        exchange's unit of credit is spent here.
        """
        if self.credit:
            self.credit -= 1
            return 0.0
        if not self.spec.latency_spike_rate:
            return 0.0
        if self._draw() < self.spec.latency_spike_rate:
            return self.spec.latency_spike_s
        return 0.0

    # -- looking ahead ------------------------------------------------------

    def look_ahead(self, now: float) -> None:
        """Judge upcoming exchanges once credit and stash are spent (at
        most :data:`LOOK_AHEAD_LIMIT` clean ones), then recompute the
        horizon from ``now`` (see :meth:`clear_horizon`).  A crashed
        schedule has no horizon and judges nothing."""
        if self._crashed:
            self.clear_horizon()
            return
        if not self.credit and not self._stash:
            self._judge_ahead()
        spec = self.spec
        horizon_time = math.inf
        horizon_event = math.inf
        if self._crash_armed:
            if spec.crash_at_time is not None:
                horizon_time = spec.crash_at_time
            if spec.crash_at_event is not None:
                horizon_event = spec.crash_at_event
        for start, end in spec.partition_windows:
            if end > now:
                horizon_time = min(horizon_time, start)
                break
        self.horizon_time = horizon_time
        self.horizon_event = horizon_event

    def _judge_ahead(self) -> None:
        loss = self.spec.loss_rate
        spike = self.spec.latency_spike_rate
        if not loss and not spike:
            self.credit = LOOK_AHEAD_LIMIT
            return
        draw = self.rng.random
        credit = 0
        while credit < LOOK_AHEAD_LIMIT:
            if loss:
                first = draw()
                if first < loss:
                    self._stash = [first]
                    break
            if spike:
                second = draw()
                if second < spike:
                    self._stash = [first, second] if loss else [second]
                    break
            credit += 1
        self.credit = credit

    def clear_horizon(self) -> None:
        """Nothing may skip the gauntlet until the next :meth:`look_ahead`.

        The horizon is the earliest event index (:attr:`horizon_event`)
        and virtual time (:attr:`horizon_time`) at which a crash or a
        partition window could apply; -1 for both means "already", as
        once the schedule has crashed.
        """
        self.horizon_event = -1
        self.horizon_time = -1.0


#: A ready-made lossy-link scenario used by docs and smoke tests.
LOSSY_5PCT = FaultSpec(seed=1, loss_rate=0.05)

__all__ = [
    "FaultReport",
    "FaultSchedule",
    "FaultSpec",
    "LOOK_AHEAD_LIMIT",
    "LOSSY_5PCT",
]
