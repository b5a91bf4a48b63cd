"""Scheduled link profiles: the roaming client's time-varying network.

The paper's target user carries a resource-constrained device *between*
coverage areas: the WaveLAN link that made offloading attractive decays
to a WAN-grade link near the edge of a cell and can drop entirely in
the gap before the next one.  Every other module in :mod:`repro.net`
models a link frozen in time; this one supplies the schedule that moves
it:

* :class:`LinkProfile` — a piecewise description of link quality over
  virtual time: ``step`` changes (WaveLAN -> WAN handoff between radio
  technologies), ``ramp`` segments (gradual decay while walking away
  from an access point, quantised into discrete change points so
  replay stays exactly memoisable), and ``down`` windows (complete
  disconnection).  Profiles parse from and render to a compact
  ``key=value,...`` string, mirroring :class:`~repro.net.faults.FaultSpec`,
  so a failing CI scenario is reproducible from its printed form.
* composition with the fault layer: a profile's ``down`` windows are
  *partitions* as far as delivery is concerned, so
  :meth:`LinkProfile.fault_spec` folds them into a
  :class:`~repro.net.faults.FaultSpec` and the existing retry /
  degraded-mode / reattach machinery handles the outage unchanged.
* :class:`MobilityConfig` — what the platform *does* about a decaying
  link: nothing, proactively repatriate before the outage, or hand the
  offloaded partition to a better-placed surrogate over an
  infrastructure backhaul.
* :class:`MobilityReport` — the counters a roaming run surfaces.

Bandwidth/latency segments are resolved **relative to the current
attachment epoch**: a surrogate handoff resets the epoch, modelling the
client becoming adjacent to the new surrogate's access point, after
which the profile's decay schedule restarts.  ``down`` windows are
**absolute** virtual-time intervals — they describe the client's radio
environment, which no handoff can fix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from .faults import FaultSpec
from .link import LinkModel, MIN_BANDWIDTH_BPS
from .wavelan import (
    BLUETOOTH_1MBPS,
    ETHERNET_100MBPS,
    GPRS_50KBPS,
    WAN_384KBPS,
    WAVELAN_11MBPS,
)

#: Short names accepted by the profile spec grammar (``step=5:wan``).
LINK_SHORTHAND: Dict[str, LinkModel] = {
    "wavelan": WAVELAN_11MBPS,
    "wan": WAN_384KBPS,
    "bluetooth": BLUETOOTH_1MBPS,
    "ethernet": ETHERNET_100MBPS,
    "gprs": GPRS_50KBPS,
}

#: Number of discrete change points a ``ramp`` segment quantises into
#: when the spec does not say.  Discrete points keep the replayer's
#: wire-cost memoisation exact: between points the link is constant.
DEFAULT_RAMP_STEPS = 8


def _fnum(x: float) -> str:
    """Compact float rendering that parses back to exactly ``x``.

    ``:g`` keeps specs short for the common round values; interpolated
    ramp products fall back to ``repr`` (shortest exact form) so
    ``parse(canonical(p))`` reproduces the profile bit for bit.
    """
    compact = f"{x:g}"
    return compact if float(compact) == x else repr(x)


def _link_for(name: str) -> LinkModel:
    try:
        return LINK_SHORTHAND[name]
    except KeyError:
        for link in LINK_SHORTHAND.values():
            if link.name == name:
                return link
        raise ConfigurationError(
            f"unknown link name {name!r}; one of "
            f"{', '.join(sorted(LINK_SHORTHAND))}"
        ) from None


def _shorthand(link: LinkModel) -> str:
    for short, known in LINK_SHORTHAND.items():
        if known == link:
            return short
    return link.name


def ramp_points(
    start_s: float,
    end_s: float,
    from_link: LinkModel,
    to_link: LinkModel,
    steps: int = DEFAULT_RAMP_STEPS,
) -> Tuple[Tuple[float, LinkModel], ...]:
    """Quantise a linear bandwidth/latency ramp into change points.

    Returns ``steps`` points over ``(start_s, end_s]``; the last point
    is exactly ``to_link`` at ``end_s``.  Interpolated bandwidth is
    clamped to :data:`~repro.net.link.MIN_BANDWIDTH_BPS` so a ramp that
    crosses a disconnection boundary can never construct an invalid
    :class:`LinkModel` (the disconnection itself belongs in a ``down``
    window, not in a zero-bandwidth segment).
    """
    if end_s <= start_s:
        raise ConfigurationError(
            f"ramp must run forward in time, got {start_s}:{end_s}"
        )
    if steps < 1:
        raise ConfigurationError("a ramp needs at least 1 step")
    points = []
    span = end_s - start_s
    for k in range(1, steps + 1):
        frac = k / steps
        if k == steps:
            link = to_link
        else:
            bandwidth = (
                from_link.bandwidth_bps
                + (to_link.bandwidth_bps - from_link.bandwidth_bps) * frac
            )
            latency = (
                from_link.latency_s
                + (to_link.latency_s - from_link.latency_s) * frac
            )
            link = LinkModel(
                name=(f"{_shorthand(from_link)}~{_shorthand(to_link)}"
                      f"@{k}of{steps}"),
                bandwidth_bps=max(bandwidth, MIN_BANDWIDTH_BPS),
                latency_s=max(latency, 0.0),
            )
        points.append((start_s + span * frac, link))
    return tuple(points)


@dataclass(frozen=True)
class LinkProfile:
    """A schedule of link quality over virtual time.

    ``points`` are ``(start_s, link)`` pairs, sorted, first at 0.0; the
    link at time ``t`` is the last point at or before ``t``.
    ``disconnections`` are absolute ``(start_s, end_s)`` windows during
    which the link is down entirely (enforced through the fault layer,
    see :meth:`fault_spec`).
    """

    name: str
    points: Tuple[Tuple[float, LinkModel], ...]
    disconnections: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("a profile needs at least one point")
        for start, _ in self.points:
            # Written so NaN fails it, as it would fail to sort.
            if not start >= 0.0:
                raise ConfigurationError(
                    f"profile point times must be non-negative, got {start}"
                )
        points = tuple(sorted(self.points, key=lambda p: p[0]))
        if points[0][0] != 0.0:
            raise ConfigurationError(
                f"the first profile point must start at 0.0, "
                f"got {points[0][0]}"
            )
        times = [t for t, _ in points]
        if len(set(times)) != len(times):
            raise ConfigurationError("profile points collide in time")
        object.__setattr__(self, "points", points)
        windows = tuple(sorted(tuple(w) for w in self.disconnections))
        last_end = None
        for start, end in windows:
            if not 0 <= start < end:
                raise ConfigurationError(
                    f"malformed disconnection window {start}:{end}"
                )
            if last_end is not None and start < last_end:
                raise ConfigurationError("disconnection windows overlap")
            last_end = end
        object.__setattr__(self, "disconnections", windows)

    # -- resolution against the (epoch-relative) virtual clock ---------------

    def link_at(self, t: float) -> LinkModel:
        """The link in force at epoch-relative time ``t``."""
        if t <= 0.0:
            return self.points[0][1]
        times = [p[0] for p in self.points]
        return self.points[bisect_right(times, t) - 1][1]

    def next_change_after(self, t: float) -> float:
        """Epoch-relative time of the next change point after ``t``.

        ``math.inf`` when the profile has settled — the replayer's
        per-event check reduces to one always-false float comparison.
        """
        for start, _ in self.points:
            if start > t:
                return start
        return math.inf

    @property
    def is_static(self) -> bool:
        return len(self.points) == 1 and not self.disconnections

    # -- composition with the fault layer ------------------------------------

    def fault_spec(self, base: Optional[FaultSpec] = None) -> FaultSpec:
        """Fold the disconnection windows into a fault spec.

        The profile's ``down`` windows become link partitions (merged
        with any windows ``base`` already carries); everything else in
        ``base`` rides through unchanged.  Overlapping windows raise,
        exactly as hand-written specs do.
        """
        if base is None:
            base = FaultSpec()
        if not self.disconnections:
            return base
        windows = tuple(base.partition_windows) + self.disconnections
        return replace(base, partition_windows=windows)

    # -- the printable form --------------------------------------------------

    def canonical(self) -> str:
        """Compact spec string; :meth:`parse` round-trips it.

        Known links render as ``step=T:shorthand``; anything else (ramp
        interpolation products included) as the fully explicit
        ``link=T:NAME:BPS:LAT`` form, so every profile — hand-written or
        derived — reproduces from its printed spec.
        """
        parts = []
        for start, link in self.points:
            if link in LINK_SHORTHAND.values():
                parts.append(f"step={_fnum(start)}:{_shorthand(link)}")
            else:
                parts.append(
                    f"link={_fnum(start)}:{link.name}"
                    f":{_fnum(link.bandwidth_bps)}:{_fnum(link.latency_s)}"
                )
        for start, end in self.disconnections:
            parts.append(f"down={_fnum(start)}:{_fnum(end)}")
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str) -> "LinkProfile":
        """Parse a profile: a registered name, or a ``key=value,...`` spec.

        Keys: ``step=T:LINK`` (repeatable; the link from time T on),
        ``ramp=T0:T1:FROM:TO[:STEPS]`` (linear decay quantised into
        STEPS points, default 8), ``link=T:NAME:BPS:LAT`` (an explicit
        link, as :meth:`canonical` renders interpolated ones), and
        ``down=T0:T1`` (repeatable; disconnection window).  Link names
        are the shorthands in :data:`LINK_SHORTHAND`.  A spec with no
        point at time 0 starts on WaveLAN.
        """
        named = NAMED_PROFILES.get(text.strip())
        if named is not None:
            return named
        points = []
        windows = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigurationError(
                    f"profile spec entry {chunk!r} is not key=value"
                )
            key, value = chunk.split("=", 1)
            key = key.strip()
            value = value.strip()
            try:
                if key == "step":
                    at, _, link_name = value.partition(":")
                    points.append((float(at), _link_for(link_name)))
                elif key == "ramp":
                    bits = value.split(":")
                    if len(bits) not in (4, 5):
                        raise ConfigurationError(
                            f"ramp wants T0:T1:FROM:TO[:STEPS], "
                            f"got {value!r}"
                        )
                    steps = (int(bits[4]) if len(bits) == 5
                             else DEFAULT_RAMP_STEPS)
                    points.extend(ramp_points(
                        float(bits[0]), float(bits[1]),
                        _link_for(bits[2]), _link_for(bits[3]),
                        steps=steps,
                    ))
                elif key == "link":
                    bits = value.split(":")
                    if len(bits) != 4:
                        raise ConfigurationError(
                            f"link wants T:NAME:BPS:LAT, got {value!r}"
                        )
                    points.append((float(bits[0]), LinkModel(
                        name=bits[1],
                        bandwidth_bps=float(bits[2]),
                        latency_s=float(bits[3]),
                    )))
                elif key == "down":
                    start, _, end = value.partition(":")
                    windows.append((float(start), float(end)))
                else:
                    raise ConfigurationError(
                        f"unknown profile spec key {key!r}"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad profile spec value {chunk!r}: {exc}"
                ) from None
        if not any(t == 0.0 for t, _ in points):
            points.insert(0, (0.0, WAVELAN_11MBPS))
        return cls(name=text.strip(), points=tuple(points),
                   disconnections=tuple(windows))


@dataclass(frozen=True)
class MobilityConfig:
    """What the platform does when the link trend turns bad.

    ``mode`` is ``"repatriate"`` (pull the offloaded partition home
    over the still-working link before the outage, re-offloading when
    the link recovers past ``restore_bps``) or ``"handoff"`` (migrate
    the partition surrogate-to-surrogate over ``backhaul`` and restart
    the attachment epoch).  The trend parameters feed
    :class:`repro.core.policy.BandwidthTrendTrigger`.
    """

    mode: str = "handoff"
    threshold_bps: float = 2e6
    horizon_s: float = 2.0
    window: int = 3
    restore_bps: float = 6e6
    backhaul: LinkModel = ETHERNET_100MBPS

    def __post_init__(self) -> None:
        if self.mode not in ("repatriate", "handoff"):
            raise ConfigurationError(
                f"mobility mode must be 'repatriate' or 'handoff', "
                f"got {self.mode!r}"
            )
        if self.threshold_bps <= 0 or self.restore_bps <= 0:
            raise ConfigurationError("trend thresholds must be positive")
        if self.horizon_s < 0:
            raise ConfigurationError("horizon cannot be negative")
        if self.window < 2:
            raise ConfigurationError("trend window needs >= 2 samples")


@dataclass
class MobilityReport:
    """What roaming cost one run, and what the platform did about it."""

    profile: str = ""
    link_changes: int = 0
    trend_fires: int = 0
    handoffs: int = 0
    handoff_bytes: int = 0
    handoff_time_s: float = 0.0
    proactive_repatriations: int = 0
    proactively_repatriated_bytes: int = 0
    reoffloads: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The README's quickstart scenario: a WaveLAN cell decaying to WAN
#: while the user walks, a short dead zone, then fresh coverage.
WAVELAN_WAN_ROAM = LinkProfile(
    name="wavelan-wan-roam",
    points=(
        ((0.0, WAVELAN_11MBPS),)
        + ramp_points(4.0, 8.0, WAVELAN_11MBPS, WAN_384KBPS)
        + ((16.0, WAVELAN_11MBPS),)
    ),
    disconnections=((10.0, 12.0),),
)

#: Registered profiles, addressable by name from ``--link-profile``.
NAMED_PROFILES: Dict[str, LinkProfile] = {
    WAVELAN_WAN_ROAM.name: WAVELAN_WAN_ROAM,
}

__all__ = [
    "DEFAULT_RAMP_STEPS",
    "LINK_SHORTHAND",
    "LinkProfile",
    "MobilityConfig",
    "MobilityReport",
    "NAMED_PROFILES",
    "WAVELAN_WAN_ROAM",
    "ramp_points",
]
