"""The control plane: surrogate loss, rediscovery and roaming.

The prototype (:class:`~repro.platform.platform.DistributedPlatform`)
and the emulator (:class:`~repro.emulator.replay.TraceReplayer`) drive
this one :class:`ControlPlane`, so both react to a dead surrogate, a
rediscovery, a link change or a bandwidth trend in the same way.  Each
passes itself in as the *host* and supplies the mechanics through
duck-typed ports:

* ``now()``: the host's virtual clock;
* ``drop_traffic() -> ops``: drop in-flight coalesced traffic and the
  read cache, both of which died with the surrogate, returning how
  many buffered ops were dropped;
* ``repatriate_unreachable() -> (objects, bytes)``: rebuild the remote
  state client-side, uncharged (the host's ``surrogate_lost`` now
  holds, which parks offloading);
* ``flush_traffic()`` and ``set_link(link)``: charge buffered traffic;
  re-point every link-cost consumer;
* ``placement()``: the offloaded graph nodes;
* ``migrate(nodes) -> (bytes, objects)`` moved; raises
  :class:`~repro.errors.MigrationError` when infeasible (the port the
  offloading engine migrates through);
* ``roam()``: hand off, ``None`` with no target; a completed handoff
  reports back through :meth:`ControlPlane.handed_off`;
* ``resume_offloading(attempt)``: start a fresh offload epoch when
  ``attempt``.

None of it is on the replay loop's per-event path: the loop reads
:attr:`~ControlPlane.reattach_at` and :attr:`~ControlPlane.next_change`
only after a cold call.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, FrozenSet, Optional

from ..errors import MigrationError, PlatformError
from ..net.faults import FaultReport, FaultSpec
from ..net.link import LinkModel
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from .policy import BandwidthTrendTrigger


class ControlPlane:
    """Recovery and roaming decisions for one host.

    The host builds its delivery layer with :attr:`faults` as counters
    and :meth:`lose_surrogate` as the peer-lost callback, then assigns
    it to :attr:`delivery`.  ``link_profile`` schedules the link,
    ``mobility`` adds the trend reaction; either one enables the
    :attr:`mobility` report.
    """

    def __init__(
        self,
        host: Any,
        link: LinkModel,
        faults: Optional[FaultSpec] = None,
        link_profile: Optional[LinkProfile] = None,
        mobility: Optional[MobilityConfig] = None,
    ) -> None:
        # Weak: the host owns this machine, and a strong back-reference
        # would leave a finished replayer (a whole trace's state) to the
        # cyclic collector instead of freeing it on its last reference.
        self.host = weakref.proxy(host)
        self.link = link
        self.delivery = None
        self.faults = FaultReport(spec=faults.canonical() if faults else "")
        #: Start of the open downtime window (``None`` while attached).
        self.lost_at: Optional[float] = None
        #: When the partition that killed the surrogate heals.
        self.reattach_at: Optional[float] = None
        self.profile = link_profile
        self.config = mobility
        self.mobility: Optional[MobilityReport] = None
        if link_profile is not None or mobility is not None:
            name = link_profile.name if link_profile is not None else ""
            self.mobility = MobilityReport(profile=name)
        #: Start of the attachment epoch the profile resolves against.
        self.epoch_start = 0.0
        #: Virtual time of the profile's next change point.
        self.next_change = (
            link_profile.next_change_after(0.0)
            if link_profile is not None else math.inf
        )
        self.trend: Optional[BandwidthTrendTrigger] = None
        if link_profile is not None and mobility is not None:
            self.trend = BandwidthTrendTrigger(
                mobility.threshold_bps,
                horizon_s=mobility.horizon_s,
                window=mobility.window,
                restore_bps=mobility.restore_bps,
            )
        #: The placement a proactive repatriation pulled home, pending
        #: re-offload when the trend recovers.
        self.remembered: Optional[FrozenSet[str]] = None

    # -- surrogate loss and rediscovery -------------------------------------

    @property
    def surrogate_lost(self) -> bool:
        return self.delivery is not None and self.delivery.peer_dead

    def lose_surrogate(self, reason: str) -> None:
        """The delivery layer declared the surrogate dead: degrade.

        Runs inside the failed exchange.  In-flight traffic and the
        read cache go first (nothing may flush them), then the host
        rebuilds the unreachable state client-side.  A partition-caused
        death heals when its window ends; :attr:`reattach_at` says when.
        """
        report = self.faults
        report.recoveries += 1
        self.lost_at = self.host.now()
        if self.host.drop_traffic():
            report.dropped_batches += 1
        objects, nbytes = self.host.repatriate_unreachable()
        report.objects_repatriated += objects
        report.repatriated_bytes += nbytes
        if reason == "partition":
            until = self.delivery.schedule.partition_until(self.host.now())
            if until is not None:
                self.reattach_at = until

    def close_downtime(self) -> None:
        """Charge the open downtime window, once, and close it."""
        if self.lost_at is not None:
            self.faults.downtime_s += self.host.now() - self.lost_at
            self.lost_at = None

    def downtime_s(self) -> float:
        """Downtime so far, an open window charged up to now but left
        open (reports must stay idempotent)."""
        if self.lost_at is None:
            return self.faults.downtime_s
        return self.faults.downtime_s + (self.host.now() - self.lost_at)

    def rediscover(self, attempt_offload: bool = True):
        """A (replacement) surrogate is reachable: leave degraded mode.

        Closes the downtime window, revives the delivery layer (the
        crash latch disarms: the spec described the *old* surrogate's
        death) and lets the host resume offloading, warm-starting a
        fresh partitioning epoch when ``attempt_offload``.
        """
        if not self.surrogate_lost:
            raise PlatformError("no lost surrogate to rediscover")
        self.close_downtime()
        self.reattach_at = None
        self.delivery.revive()
        self.faults.rediscoveries += 1
        return self.host.resume_offloading(attempt_offload)

    # -- mobility ------------------------------------------------------------

    def _resolve_link(self) -> None:
        """Re-resolve the profile at the attachment epoch's offset.

        Buffered traffic was produced under the old link, so it is
        charged at old-link prices before the switch.
        """
        profile = self.profile
        offset = self.host.now() - self.epoch_start
        link = profile.link_at(offset)
        if link != self.link:
            self.host.flush_traffic()
            self.host.set_link(link)
            self.link = link
            self.mobility.link_changes += 1
        self.next_change = self.epoch_start + profile.next_change_after(offset)

    def poll_mobility(self) -> Optional[str]:
        """Resolve the link profile against the clock and react.

        Returns the trend's action: ``"fire"`` (hand off, else
        repatriate), ``"recover"`` (re-offload the remembered
        placement), or ``None``.  Disconnection windows are absolute
        and belong to the fault layer, not here.
        """
        if self.profile is None:
            return None
        self._resolve_link()
        if self.trend is None:
            return None
        action = self.trend.observe(self.host.now(), self.link.bandwidth_bps)
        if action == "fire":
            self.mobility.trend_fires += 1
            if self.config.mode != "handoff" or self.host.roam() is None:
                # Repatriation mode, or nowhere to hand off to.
                self._repatriate()
        elif action == "recover":
            self._reoffload()
        return action

    def handed_off(self, moved_bytes: int, seconds: float,
                   link: LinkModel) -> None:
        """The host completed a handoff and now talks over ``link``.

        The attachment epoch restarts (the client is adjacent to the
        new surrogate, so the profile resolves from its t=0 link again)
        and the trend starts clean: the old cell's slope must not be
        projected onto the new one.
        """
        report = self.mobility
        if report is not None:
            report.handoffs += 1
            report.handoff_bytes += moved_bytes
            report.handoff_time_s += seconds
        self.link = link
        self.epoch_start = self.host.now()
        if self.profile is not None:
            self._resolve_link()
        if self.trend is not None:
            self.trend.reset()

    def _repatriate(self) -> None:
        """Pull the offloaded partition home while the link still works,
        remembering it for re-offload.  Best effort: an infeasible
        repatriation stays remote and rides the degraded link."""
        placement = self.host.placement()
        if not placement:
            return
        try:
            moved = self.host.migrate(frozenset())
        except MigrationError:
            return
        self.remembered = placement
        self.mobility.proactive_repatriations += 1
        self.mobility.proactively_repatriated_bytes += moved[0]

    def _reoffload(self) -> None:
        """The link came back: re-apply the remembered placement.

        The policy already chose it once, so recovery is placement
        repair, not a fresh evaluation.  While the surrogate is dead
        the placement stays pending.
        """
        placement = self.remembered
        if placement is None or self.surrogate_lost:
            return
        self.remembered = None
        try:
            self.host.migrate(placement)
        except MigrationError:
            return
        self.mobility.reoffloads += 1


__all__ = ["ControlPlane"]
