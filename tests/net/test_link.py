"""Unit tests for the link model and profiles."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.net.link import MIN_BANDWIDTH_BPS, LinkModel
from repro.net.mobility import LinkProfile
from repro.net.wavelan import (
    ALL_PROFILES,
    ETHERNET_100MBPS,
    GPRS_50KBPS,
    WAVELAN_11MBPS,
)


class TestLinkModel:
    def test_wavelan_matches_paper_constants(self):
        assert WAVELAN_11MBPS.bandwidth_bps == 11_000_000
        assert WAVELAN_11MBPS.rtt == pytest.approx(2.4e-3)

    def test_null_rpc_costs_one_round_trip(self):
        assert WAVELAN_11MBPS.round_trip(0, 0) == pytest.approx(
            WAVELAN_11MBPS.rtt
        )

    def test_one_way_includes_serialisation_time(self):
        link = LinkModel("t", bandwidth_bps=8_000_000, latency_s=0.001)
        # 1000 bytes at 8 Mbps = 1 ms on the wire + 1 ms latency.
        assert link.one_way(1000) == pytest.approx(0.002)

    def test_bulk_transfer_charges_single_latency(self):
        link = LinkModel("t", bandwidth_bps=8_000_000, latency_s=0.001)
        assert link.bulk_transfer(1_000_000) == pytest.approx(1.001)

    def test_round_trip_asymmetric_payloads(self):
        link = LinkModel("t", bandwidth_bps=8_000_000, latency_s=0.0)
        assert link.round_trip(1000, 500) == pytest.approx(0.0015)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkModel("t", bandwidth_bps=0, latency_s=0.1)
        with pytest.raises(ConfigurationError):
            LinkModel("t", bandwidth_bps=-1.0, latency_s=0.1)
        with pytest.raises(ConfigurationError):
            LinkModel("t", bandwidth_bps=1, latency_s=-0.1)
        with pytest.raises(ConfigurationError):
            WAVELAN_11MBPS.one_way(-1)

    @pytest.mark.parametrize("bandwidth, latency", [
        (math.nan, 0.001),
        (8_000_000, math.nan),
        (8_000_000, math.inf),
        (8_000_000, -math.inf),
    ])
    def test_non_finite_parameters_rejected(self, bandwidth, latency):
        # NaN fails no ``<=`` check, so both fields reject it
        # explicitly; every cost is computed from them.
        with pytest.raises(ConfigurationError):
            LinkModel("t", bandwidth_bps=bandwidth, latency_s=latency)

    @pytest.mark.parametrize("text", [
        "link=0:x:nan:0.001",
        "link=0:x:1000000:nan",
        "link=0:x:1000000:inf",
    ])
    def test_profile_with_non_finite_link_rejected(self, text):
        with pytest.raises(ConfigurationError):
            LinkProfile.parse(text)

    def test_zero_bandwidth_is_a_disconnection_not_a_link(self):
        # The documented floor: interpolating ramps clamp here instead
        # of ever constructing a zero-bandwidth (division-exploding)
        # link — outages belong in the fault layer.
        assert MIN_BANDWIDTH_BPS > 0
        floor = LinkModel("floor", bandwidth_bps=MIN_BANDWIDTH_BPS,
                          latency_s=0.0)
        assert floor.one_way(1000) == pytest.approx(8.0)

    def test_pipelined_transfer_exposes_one_latency(self):
        link = LinkModel("t", bandwidth_bps=8_000_000, latency_s=0.001)
        pipelined = link.pipelined_transfer(1_000_000, chunks=10)
        assert pipelined == pytest.approx(1.001)
        separate = 10 * link.one_way(100_000)
        assert separate - pipelined == pytest.approx(9 * link.latency_s)

    def test_pipelined_transfer_rejects_bad_arguments(self):
        link = LinkModel("t", bandwidth_bps=8_000_000, latency_s=0.001)
        with pytest.raises(ConfigurationError):
            link.pipelined_transfer(1000, chunks=0)
        with pytest.raises(ConfigurationError):
            link.pipelined_transfer(-1, chunks=1)

    def test_profiles_ordering(self):
        # Sanity: the wired LAN beats WaveLAN beats GPRS for any message.
        for nbytes in (0, 100, 100_000):
            assert (
                ETHERNET_100MBPS.one_way(nbytes)
                < WAVELAN_11MBPS.one_way(nbytes)
                < GPRS_50KBPS.one_way(nbytes)
            )

    def test_all_profiles_listed(self):
        assert WAVELAN_11MBPS in ALL_PROFILES
        assert len({p.name for p in ALL_PROFILES}) == len(ALL_PROFILES)
