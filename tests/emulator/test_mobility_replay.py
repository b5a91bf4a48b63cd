"""Mobility in the trace replayer: profiles, handoff, repatriation."""

import pytest

from repro.emulator import ColumnarTrace, ShardedReplayer, replicate
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.emulator.replay import EmulatorConfig, TraceReplayer
from repro.net.faults import FaultSpec
from repro.net.mobility import (
    WAVELAN_WAN_ROAM,
    LinkProfile,
    MobilityConfig,
)

from .replay_goldens import digest, golden

ROAM = "step=0:wavelan,ramp=4:8:wavelan:wan,step=16:wavelan"
DECAY = "step=0:wavelan,step=4:wan"
# Recovery at t=7: repatriation slows the tail to client speed, so the
# run still ends around t=7.7 — any later and the clock never gets there.
DECAY_AND_RECOVER = "step=0:wavelan,step=4:wan,step=7:wavelan"


def roaming_trace(widgets=12, sweeps=40, paint_s=0.03):
    """Compute-heavy UI sweeps: remote-on-WaveLAN < local < remote-on-WAN.

    Sized so the replay's virtual clock runs well past the profile's
    ramp (t=4..8) and recovery (t=9..16) — a shorter trace finishes
    before the link ever changes.
    """
    main = "<main>"
    trace = ColumnarTrace(app_name="roaming-mini",
                          class_traits={"gui.Widget": {}, "gui.Style": {}})
    oid = 1
    widget_oids = []
    for _ in range(widgets):
        trace.append(AllocEvent(oid, "gui.Widget", 256, main, None))
        widget_oids.append(oid)
        oid += 1
    style_oid = oid
    trace.append(AllocEvent(style_oid, "gui.Style", 512, main, None))
    for _ in range(sweeps):
        for w in widget_oids:
            trace.append(InvokeEvent(main, None, "gui.Widget", w, "paint",
                                     "instance", False, 16, 8))
            trace.append(WorkEvent("gui.Widget", w, paint_s))
            trace.append(AccessEvent(main, None, "gui.Style", style_oid,
                                     32, False, False))
    return trace


def base_config(trace):
    return EmulatorConfig(
        offload_at_event=len(trace.events) // 120,
        forced_offload_nodes=frozenset({"gui.Widget", "gui.Style"}),
    )


def roam_replay(spec=ROAM, mode="handoff", trace=None):
    trace = trace or roaming_trace()
    profile = (spec if isinstance(spec, LinkProfile)
               else LinkProfile.parse(spec))
    mobility = MobilityConfig(mode=mode) if mode else None
    config = base_config(trace).with_profile(profile, mobility)
    return TraceReplayer(trace, config).run()


def roam_config(trace, mode):
    return base_config(trace).with_profile(LinkProfile.parse(ROAM),
                                           MobilityConfig(mode=mode))


def lossy_roam_config(trace, mode):
    return base_config(trace).with_faults(
        FaultSpec(seed=4, loss_rate=0.05)
    ).with_profile(WAVELAN_WAN_ROAM, MobilityConfig(mode=mode))


def assert_matches_golden(key, trace, config):
    """A replay and three sharded clients all reproduce the checked-in
    fingerprint digest for ``key``."""
    row = TraceReplayer(trace, config).run()
    assert row.completed
    shards = replicate(trace, config, clients=3)
    sharded = ShardedReplayer(shards, workers=2).run()
    expected = golden(key)
    assert digest(row) == expected
    assert [digest(c.result) for c in sharded.clients] == [expected] * 3
    return row


class TestConfigSurface:
    def test_with_profile_is_non_destructive(self):
        base = base_config(roaming_trace())
        profiled = base.with_profile(LinkProfile.parse(ROAM))
        assert base.link_profile is None
        assert profiled.link_profile is not None
        assert profiled.link is profiled.link_profile.link_at(0.0)

    def test_with_profile_folds_disconnections_into_faults(self):
        base = base_config(roaming_trace())
        profiled = base.with_profile(WAVELAN_WAN_ROAM)
        assert base.faults is None
        assert profiled.faults is not None
        assert profiled.faults.partition_windows == \
            WAVELAN_WAN_ROAM.disconnections

    def test_no_profile_means_no_mobility_report(self):
        trace = roaming_trace()
        result = TraceReplayer(trace, base_config(trace)).run()
        assert result.mobility is None


class TestHandoff:
    def test_trend_fires_and_hands_off(self):
        result = roam_replay()
        assert result.completed
        report = result.mobility
        assert report is not None
        assert report.link_changes > 0
        assert report.trend_fires >= 1
        assert report.handoffs == 1
        assert report.handoff_bytes > 0

    def test_handoff_beats_riding_the_decay_out(self):
        no_action = roam_replay(mode=None)
        handoff = roam_replay(mode="handoff")
        assert no_action.mobility.handoffs == 0
        assert handoff.total_time < no_action.total_time


class TestRepatriation:
    def test_trend_pulls_state_home_then_reoffloads(self):
        result = roam_replay(DECAY_AND_RECOVER, mode="repatriate")
        assert result.completed
        report = result.mobility
        assert report.proactive_repatriations >= 1
        assert report.proactively_repatriated_bytes > 0
        assert report.reoffloads >= 1

    def test_decay_without_recovery_stays_home(self):
        result = roam_replay(DECAY, mode="repatriate")
        assert result.completed
        report = result.mobility
        assert report.proactive_repatriations >= 1
        assert report.reoffloads == 0


class TestDisconnection:
    def test_named_roam_profile_recovers_gracefully(self):
        result = roam_replay(WAVELAN_WAN_ROAM, mode="handoff")
        assert result.completed
        fr = result.faults
        assert fr is not None
        assert not fr.surrogate_lost or fr.recoveries > 0


class TestDeterminism:
    def test_rerun_fingerprints_identically(self):
        assert roam_replay().fingerprint() == roam_replay().fingerprint()

    @pytest.mark.parametrize("mode", ["handoff", "repatriate"])
    def test_serial_columnar_sharded_parity(self, mode):
        trace = roaming_trace()
        assert_matches_golden(f"mobility/{mode}/roam", trace,
                              roam_config(trace, mode))

    @pytest.mark.parametrize("mode", ["handoff", "repatriate"])
    def test_lossy_roam_serial_columnar_sharded_parity(self, mode):
        # A lossy link under a profile with a disconnection window: the
        # replay runs the fault gauntlet and the mobility reactions
        # together, and every input form must still hit the golden.
        trace = roaming_trace()
        result = assert_matches_golden(f"mobility/{mode}/lossy-roam", trace,
                                       lossy_roam_config(trace, mode))
        assert result.faults.retries > 0
        assert result.mobility.trend_fires >= 1

    def test_mobility_report_feeds_the_fingerprint(self):
        handoff = roam_replay(mode="handoff")
        passive = roam_replay(mode=None)
        assert handoff.fingerprint() != passive.fingerprint()
