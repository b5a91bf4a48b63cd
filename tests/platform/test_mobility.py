"""Platform-level mobility: trend-triggered handoff and repatriation."""

import pytest

from repro.config import DeviceProfile, EnhancementFlags
from repro.core.graph import object_node_id
from repro.net.mobility import LinkProfile, MobilityConfig
from repro.net.wavelan import ETHERNET_100MBPS, WAVELAN_11MBPS
from repro.platform.discovery import SurrogateDirectory, SurrogateOffer
from repro.units import KB, MB

from tests.helpers import make_platform
from tests.platform.test_platform import HoarderApp, pressure_gc

DECAY = "step=0:wavelan,step=5:wan"
DECAY_AND_RECOVER = "step=0:wavelan,step=5:wan,step=10:wavelan"


def fresh_offer(name="fresh", speed=3.5):
    return SurrogateOffer(
        name=name,
        device=DeviceProfile(f"{name}-pc", cpu_speed=speed,
                             heap_capacity=64 * MB),
        link=WAVELAN_11MBPS,
    )


def roaming_platform(profile_spec, mode, directory=None,
                     client_heap=128 * KB, **kwargs):
    return make_platform(
        client_heap=client_heap,
        gc=pressure_gc(),
        link_profile=LinkProfile.parse(profile_spec),
        mobility=MobilityConfig(mode=mode, window=2),
        directory=directory,
        **kwargs,
    )


class TestPollMobility:
    def test_static_profile_changes_nothing(self):
        platform = roaming_platform("step=0:wavelan", mode="handoff")
        platform.run(HoarderApp(segments=60))
        assert platform.poll_mobility() is None
        assert platform.mobility_report.link_changes == 0
        assert platform.link is WAVELAN_11MBPS

    def test_link_change_repoints_every_consumer(self):
        platform = roaming_platform(DECAY, mode="repatriate")
        platform.run(HoarderApp(segments=60))
        platform.clock.advance(6.0)
        platform.poll_mobility()
        assert platform.mobility_report.link_changes == 1
        assert platform.link.name == "wan-384kbps"
        primary = platform.surrogate.vm.name
        assert platform.runtime.links[primary] is platform.link
        assert platform.migrator.links is platform.runtime.links


class TestTrendHandoff:
    def test_decaying_link_hands_off_to_a_fresh_surrogate(self):
        directory = SurrogateDirectory()
        directory.advertise(fresh_offer())
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=directory)
        report = platform.run(HoarderApp(segments=60))
        assert report.offload_count == 1
        old_surrogate = platform.surrogate.vm
        moved = len(list(old_surrogate.heap.objects()))
        assert moved > 0

        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"

        new_surrogate = platform.surrogate.vm
        assert new_surrogate is not old_surrogate
        assert len(list(old_surrogate.heap.objects())) == 0
        assert len(list(new_surrogate.heap.objects())) == moved
        assert platform.mobility_report.handoffs == 1
        assert platform.mobility_report.handoff_bytes > 0
        # The handoff restarts the attachment epoch: the client is
        # adjacent to the new surrogate, so the profile resolves from
        # zero again.  The trend starts clean on the fresh attachment:
        # nothing to report, and the next decay fires afresh.
        assert platform.link is WAVELAN_11MBPS
        assert platform.poll_mobility() is None
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.trend_fires == 2

    def test_execution_continues_on_the_new_surrogate(self):
        directory = SurrogateDirectory()
        directory.advertise(fresh_offer())
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=directory)
        platform.run(HoarderApp(segments=60))
        platform.clock.advance(6.0)
        platform.poll_mobility()
        doc = platform.ctx.get_global("doc")
        assert doc.home == platform.surrogate.vm.name

    def test_empty_directory_falls_back_to_best_effort_repatriation(self):
        # No surrogate to hand off to, and (memory-driven offload) the
        # 128 KB client cannot host the partition back: the platform
        # stays remote and rides the degraded link rather than crash.
        platform = roaming_platform(DECAY, mode="handoff",
                                    directory=SurrogateDirectory())
        platform.run(HoarderApp(segments=60))
        remote = len(list(platform.surrogate.vm.heap.objects()))
        assert remote > 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.handoffs == 0
        assert platform.mobility_report.proactive_repatriations == 0
        assert len(list(platform.surrogate.vm.heap.objects())) == remote


class TestTrendRepatriation:
    def offloaded_platform(self, profile_spec):
        """A hand-placed partition small enough to repatriate.

        Memory-*pressure* offloads are exactly the ones home cannot
        take back, so the feasible-repatriation cycle uses the paper's
        manual-partitioning framing: a 50 KB partition on a 128 KB
        client.
        """
        platform = roaming_platform(profile_spec, mode="repatriate")
        platform.run(HoarderApp(segments=12))
        outcome = platform._migrate(frozenset({"hoard.Segment", "char[]"}))
        assert outcome.moved_objects > 0
        return platform

    def test_decaying_link_pulls_state_home(self):
        platform = self.offloaded_platform(DECAY)
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 1
        assert platform.mobility_report.proactively_repatriated_bytes > 0
        assert len(list(platform.surrogate.vm.heap.objects())) == 0

    def test_recovered_link_restores_the_placement(self):
        platform = self.offloaded_platform(DECAY_AND_RECOVER)
        offloaded = len(list(platform.surrogate.vm.heap.objects()))
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        platform.clock.advance(5.0)
        assert platform.poll_mobility() == "recover"
        assert platform.mobility_report.reoffloads == 1
        assert len(list(platform.surrogate.vm.heap.objects())) == offloaded

    def test_reoffload_restores_arrays_tracked_per_object(self):
        # At object granularity the placement names ``int[]#<oid>``
        # nodes, so the remembered partition must be node ids, not the
        # class names found on the surrogate heap.
        platform = roaming_platform(
            DECAY_AND_RECOVER, mode="repatriate",
            flags=EnhancementFlags(arrays_object_granularity=True),
        )
        arrays = [platform.ctx.new_array("int", 100) for _ in range(4)]
        for arr in arrays:
            platform.client.vm.set_root(f"a{arr.oid}", arr)
        platform._migrate(frozenset(
            object_node_id("int[]", arr.oid) for arr in arrays
        ))
        surrogate = platform.surrogate.vm.name
        assert all(arr.home == surrogate for arr in arrays)
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert all(arr.home == "client" for arr in arrays)
        platform.clock.advance(5.0)
        assert platform.poll_mobility() == "recover"
        assert platform.mobility_report.reoffloads == 1
        assert all(arr.home == surrogate for arr in arrays)

    def test_nothing_offloaded_counts_no_repatriation(self):
        platform = roaming_platform(DECAY, mode="repatriate",
                                    client_heap=4 * MB)
        report = platform.run(HoarderApp(segments=2))
        assert report.offload_count == 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 0
        assert platform.mobility_report.proactively_repatriated_bytes == 0

    def test_infeasible_repatriation_stays_remote(self):
        platform = roaming_platform(DECAY, mode="repatriate")
        platform.run(HoarderApp(segments=60))
        remote = len(list(platform.surrogate.vm.heap.objects()))
        assert remote > 0
        platform.clock.advance(6.0)
        assert platform.poll_mobility() == "fire"
        assert platform.mobility_report.proactive_repatriations == 0
        assert len(list(platform.surrogate.vm.heap.objects())) == remote
