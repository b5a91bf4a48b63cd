"""The shared control plane, driven through a fake host.

Each rule the prototype and the replayer rely on is one row of a
table: the host's port answers go in, the port calls and the report
counters come out.
"""

import pytest

from repro.core.control import ControlPlane
from repro.errors import MigrationError, PlatformError
from repro.net.mobility import LinkProfile, MobilityConfig

PROFILE = LinkProfile.parse("step=0:wavelan,step=5:wan,step=10:wavelan")
OFFLOADED = frozenset({"a.Big", "a.Node"})


class FakeDelivery:
    def __init__(self, partition_until=None):
        self.peer_dead = False
        self.schedule = self
        self._until = partition_until

    def partition_until(self, now):
        return self._until

    def revive(self):
        self.peer_dead = False


class FakeHost:
    """Records every port call; answers from its constructor arguments.

    ``roam`` is ``"done"`` (a completed handoff, reported back to the
    control plane like a real host does), ``"none"`` (no target) or
    ``"abort"`` (the surrogate died under the stream).
    """

    def __init__(self, placement=frozenset(), applied=0, roam="done",
                 partition_until=None, mode="repatriate", dropped=0):
        self.clock = 0.0
        self.calls = []
        self._dropped = dropped
        self._placement = placement
        self._applied = applied
        self._roam = roam
        self.control = ControlPlane(
            self, PROFILE.link_at(0.0),
            link_profile=PROFILE,
            mobility=MobilityConfig(mode=mode, window=2),
        )
        self.delivery = self.control.delivery = FakeDelivery(partition_until)

    def now(self):
        return self.clock

    def drop_traffic(self):
        self.calls.append("drop")
        return self._dropped

    def repatriate_unreachable(self):
        self.calls.append("repatriate")
        return 3, 300

    def flush_traffic(self):
        self.calls.append("flush")

    def set_link(self, link):
        self.calls.append(("link", link.name))

    def placement(self):
        return self._placement

    def migrate(self, nodes):
        self.calls.append(("apply", nodes))
        if self._applied is None:
            raise MigrationError("the client cannot host it")
        return self._applied, 1

    def roam(self):
        self.calls.append("roam")
        if self._roam == "none":
            return None
        if self._roam == "abort":
            self.delivery.peer_dead = True
            return False
        self.control.handed_off(100, 0.5, self.control.link)
        return True

    def resume_offloading(self, attempt):
        self.calls.append(("resume", attempt))
        return "epoch" if attempt else None

    def poll(self, at):
        self.clock = at
        self.calls.clear()
        return self.control.poll_mobility()


HOME = ("apply", frozenset())

#: (case, host arguments, port calls after the fire, expected counters,
#: remembered placement)
FIRE_RULES = [
    ("hand-off", dict(mode="handoff", placement=OFFLOADED, roam="done"),
     ["roam"], dict(handoffs=1, proactive_repatriations=0), None),
    ("no-offer-falls-back-to-repatriation",
     dict(mode="handoff", placement=OFFLOADED, applied=50, roam="none"),
     ["roam", HOME],
     dict(handoffs=0, proactive_repatriations=1,
          proactively_repatriated_bytes=50), OFFLOADED),
    ("aborted-handoff-does-not-fall-back",
     dict(mode="handoff", placement=OFFLOADED, applied=50, roam="abort"),
     ["roam"], dict(handoffs=0, proactive_repatriations=0), None),
    ("repatriate", dict(placement=OFFLOADED, applied=50), [HOME],
     dict(proactive_repatriations=1, proactively_repatriated_bytes=50),
     OFFLOADED),
    ("nothing-offloaded-is-a-no-op", dict(applied=50), [],
     dict(proactive_repatriations=0), None),
    ("infeasible-repatriation-stays-remote",
     dict(placement=OFFLOADED, applied=None), [HOME],
     dict(proactive_repatriations=0, proactively_repatriated_bytes=0),
     None),
]


@pytest.mark.parametrize("case,kwargs,calls,counters,remembered",
                         FIRE_RULES, ids=[row[0] for row in FIRE_RULES])
def test_trend_fire_dispatch(case, kwargs, calls, counters, remembered):
    host = FakeHost(**kwargs)
    assert host.poll(6.0) == "fire"
    fired = [call for call in host.calls
             if call != "flush" and call[0] != "link"]
    assert fired == calls
    report = host.control.mobility
    assert report.trend_fires == 1
    for name, value in counters.items():
        assert getattr(report, name) == value, name
    assert host.control.remembered == remembered


def test_trend_resets_after_a_handoff():
    host = FakeHost(mode="handoff", placement=OFFLOADED)
    assert host.poll(6.0) == "fire"
    # The handoff restarts the epoch: the profile re-resolves at its
    # t=0 link right away, flushing before the switch.
    assert host.calls[-2:] == ["flush", ("link", "wavelan-11mbps")]
    assert host.control.epoch_start == 6.0
    assert host.control.mobility.link_changes == 2
    # The fresh attachment has no decay history: no "recover" ...
    assert host.poll(7.0) is None
    # ... and the next decay fires afresh.
    assert host.poll(12.0) == "fire"
    assert host.control.mobility.trend_fires == 2
    assert host.control.mobility.handoffs == 2


@pytest.mark.parametrize("dead,calls,reoffloads,remembered", [
    (False, [("apply", OFFLOADED)], 1, None),
    (True, [], 0, OFFLOADED),
], ids=["reoffloads", "dead-surrogate-keeps-it-pending"])
def test_recover_reapplies_the_remembered_placement(dead, calls, reoffloads,
                                                    remembered):
    host = FakeHost(placement=OFFLOADED, applied=50)
    assert host.poll(6.0) == "fire"
    host.delivery.peer_dead = dead
    assert host.poll(11.0) == "recover"
    assert [c for c in host.calls if c[0] == "apply"] == calls
    assert host.control.mobility.reoffloads == reoffloads
    assert host.control.remembered == remembered


@pytest.mark.parametrize("reason,until,reattach_at", [
    ("partition", 12.0, 12.0),
    ("partition", None, None),
    ("crash", 12.0, None),
    ("loss", None, None),
])
def test_surrogate_loss(reason, until, reattach_at):
    host = FakeHost(partition_until=until)
    host.clock = 1.0
    host.delivery.peer_dead = True
    host.control.lose_surrogate(reason)
    assert host.calls == ["drop", "repatriate"]
    report = host.control.faults
    assert (report.recoveries, report.objects_repatriated,
            report.repatriated_bytes) == (1, 3, 300)
    assert host.control.lost_at == 1.0
    assert host.control.reattach_at == reattach_at


@pytest.mark.parametrize("dropped,batches", [(0, 0), (3, 1)])
def test_a_loss_counts_the_batch_it_dropped(dropped, batches):
    # The ops buffered when the surrogate died are one batch that never
    # lands: both hosts count it here, not from their own stats.
    host = FakeHost(dropped=dropped)
    host.delivery.peer_dead = True
    host.control.lose_surrogate("crash")
    assert host.control.faults.dropped_batches == batches


def test_downtime_window_closes_once():
    host = FakeHost(partition_until=12.0)
    control = host.control
    host.clock = 1.0
    host.delivery.peer_dead = True
    control.lose_surrogate("partition")
    host.clock = 4.0
    # A report charges the open window without closing it.
    assert control.downtime_s() == 3.0
    assert control.faults.downtime_s == 0.0
    assert control.rediscover(attempt_offload=True) == "epoch"
    assert host.calls[-1] == ("resume", True)
    assert not control.surrogate_lost
    assert control.reattach_at is None
    assert control.faults.rediscoveries == 1
    host.clock = 10.0
    control.close_downtime()
    assert control.faults.downtime_s == 3.0
    assert control.downtime_s() == 3.0
    with pytest.raises(PlatformError):
        control.rediscover()
