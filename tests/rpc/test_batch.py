"""Unit tests for the coalescing RPC layer and the DataPlane bundle."""

import pytest

from repro.net.link import LinkModel
from repro.net.wavelan import WAVELAN_11MBPS
from repro.rpc.batch import (
    FLUSH_DIRECTION,
    FLUSH_GC,
    FLUSH_MIGRATION,
    FLUSH_RESULT,
    DataPlane,
    DataPlaneConfig,
    RpcCoalescer,
)
from repro.rpc.marshal import MESSAGE_HEADER_BYTES


@pytest.fixture
def link():
    return WAVELAN_11MBPS


@pytest.fixture
def wire(link):
    """A coalescer whose transfers are recorded instead of charged."""
    transfers = []
    coalescer = RpcCoalescer(
        link, lambda src, dst, n: transfers.append((src, dst, n)))
    return coalescer, transfers


class TestCoalescing:
    def test_writes_buffer_without_touching_the_wire(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 16)
        coalescer.write("client", "surrogate", 16)
        assert transfers == []
        assert coalescer.pending_ops == 2
        assert coalescer.stats.batches == 0

    def test_read_closes_the_batch_including_itself(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 16)
        coalescer.read("client", "surrogate", 24)
        # One exchange: request leg carries the write payload, response
        # leg carries the read value.
        assert transfers == [
            ("client", "surrogate", MESSAGE_HEADER_BYTES + 16),
            ("surrogate", "client", MESSAGE_HEADER_BYTES + 24),
        ]
        assert coalescer.pending_ops == 0
        assert coalescer.stats.ops == 2
        assert coalescer.stats.batches == 1
        assert coalescer.stats.flushes == {FLUSH_RESULT: 1}

    def test_invoke_closes_with_both_payload_legs(self, wire):
        coalescer, transfers = wire
        coalescer.invoke("client", "surrogate", arg_bytes=40, ret_bytes=8)
        assert transfers == [
            ("client", "surrogate", MESSAGE_HEADER_BYTES + 40),
            ("surrogate", "client", MESSAGE_HEADER_BYTES + 8),
        ]

    def test_direction_change_flushes_buffered_writes(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 16)
        coalescer.write("surrogate", "client", 4)
        # The client's buffered write had to go out before the surrogate
        # could initiate its own operation.
        assert transfers == [
            ("client", "surrogate", MESSAGE_HEADER_BYTES + 16),
            ("surrogate", "client", MESSAGE_HEADER_BYTES),
        ]
        assert coalescer.pending_ops == 1
        assert coalescer.stats.flushes == {FLUSH_DIRECTION: 1}

    def test_barriers_flush_pending_traffic(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 8)
        coalescer.gc_barrier()
        assert len(transfers) == 2
        coalescer.write("client", "surrogate", 8)
        coalescer.migration_barrier()
        assert len(transfers) == 4
        assert coalescer.stats.flushes == {FLUSH_GC: 1, FLUSH_MIGRATION: 1}

    def test_append_buffers_same_direction_ops(self, wire):
        coalescer, transfers = wire
        assert coalescer.append("client", "surrogate", 16, 0)
        assert coalescer.append("client", "surrogate", 8, 4)
        assert transfers == []
        assert coalescer.pending_ops == 2
        assert coalescer.stats.ops == 2

    def test_refused_append_changes_nothing(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 16)
        stats_before = coalescer.stats.as_dict()
        naive_seconds = coalescer.stats.naive_seconds
        assert not coalescer.append("surrogate", "client", 4, 0)
        assert transfers == []
        assert coalescer.pending_ops == 1
        assert coalescer.stats.as_dict() == stats_before
        assert coalescer.stats.naive_seconds == naive_seconds
        # The pending batch still runs client -> surrogate: a same-way
        # op joins it, and its flush goes out that way.
        assert coalescer.append("client", "surrogate", 8, 0)
        coalescer.flush()
        assert transfers[0] == ("client", "surrogate",
                                MESSAGE_HEADER_BYTES + 24)

    def test_a_lent_batch_flushes_as_if_never_lent(self, wire):
        coalescer, transfers = wire
        coalescer.write("client", "surrogate", 16)
        coalescer.write("client", "surrogate", 8)
        batch = coalescer.release()
        assert batch == (("client", "surrogate"), 2, 24, 0)
        assert coalescer.pending_ops == 0
        coalescer.flush()
        assert transfers == []
        assert coalescer.release() == (None, 0, 0, 0)
        coalescer.adopt(*batch)
        coalescer.gc_barrier()
        assert transfers == [
            ("client", "surrogate", MESSAGE_HEADER_BYTES + 24),
            ("surrogate", "client", MESSAGE_HEADER_BYTES),
        ]
        assert coalescer.stats.flushes == {FLUSH_GC: 1}

    def test_exchange_costs_price_on_first_read(self, wire, link):
        coalescer, _ = wire
        costs = coalescer.exchange_costs
        assert costs[(16, 4)] == (link.one_way(MESSAGE_HEADER_BYTES + 16)
                                  + link.one_way(MESSAGE_HEADER_BYTES + 4))
        assert (16, 4) in costs
        coalescer.link = LinkModel("slow", 1e6, 0.01)
        assert coalescer.exchange_costs is not costs
        assert not coalescer.exchange_costs

    def test_leg_costs_price_on_first_read(self, wire, link):
        coalescer, _ = wire
        legs = coalescer.leg_costs
        assert legs.get(70) is None
        assert legs[70] == link.one_way(70)
        assert legs.get(70) == link.one_way(70)
        slow = LinkModel("slow", 1e6, 0.01)
        coalescer.link = slow
        assert coalescer.leg_costs is not legs
        assert coalescer.leg_costs.link is slow
        assert not coalescer.leg_costs

    def test_empty_flush_is_a_no_op(self, wire):
        coalescer, transfers = wire
        coalescer.flush()
        coalescer.gc_barrier()
        assert transfers == []
        assert coalescer.stats.batches == 0
        assert coalescer.stats.flushes == {}


class TestAccounting:
    def test_single_op_batch_matches_naive_accounting(self, wire):
        # A batch of one is the degenerate case: the optimised plane
        # must charge exactly what the unbatched path would have.
        coalescer, _ = wire
        coalescer.read("client", "surrogate", 100)
        stats = coalescer.stats
        assert stats.wire_bytes == stats.naive_bytes
        assert stats.wire_messages == stats.naive_messages
        assert stats.actual_seconds == pytest.approx(stats.naive_seconds)
        assert stats.rtts_saved == 0
        assert stats.bytes_saved == 0

    def test_batched_run_saves_headers_and_rtts(self, wire):
        coalescer, _ = wire
        for _ in range(9):
            coalescer.write("client", "surrogate", 4)
        coalescer.read("client", "surrogate", 4)
        stats = coalescer.stats
        assert stats.ops == 10
        assert stats.batches == 1
        assert stats.rtts_saved == 9
        # 9 ops' worth of per-message headers never hit the wire.
        assert stats.bytes_saved == 9 * 2 * MESSAGE_HEADER_BYTES
        assert stats.seconds_saved > 0

    def test_new_link_reprices_the_next_batch(self, wire, link):
        # The exchange costs are memoised per link: assigning a slower
        # link must drop the memo, or the old prices leak through.
        coalescer, _ = wire
        coalescer.read("client", "surrogate", 100)
        fast = coalescer.stats.actual_seconds
        assert fast == link.round_trip(MESSAGE_HEADER_BYTES,
                                       MESSAGE_HEADER_BYTES + 100)
        slower = LinkModel("slower", bandwidth_bps=link.bandwidth_bps / 10,
                           latency_s=link.latency_s * 10)
        coalescer.link = slower
        coalescer.read("client", "surrogate", 100)
        expected = slower.round_trip(MESSAGE_HEADER_BYTES,
                                     MESSAGE_HEADER_BYTES + 100)
        assert coalescer.stats.actual_seconds - fast == pytest.approx(expected)
        assert coalescer.stats.naive_seconds - fast == pytest.approx(expected)

    def test_as_dict_is_json_shaped(self, wire):
        coalescer, _ = wire
        coalescer.read("client", "surrogate", 4)
        summary = coalescer.stats.as_dict()
        assert summary["ops"] == 1
        assert summary["batches"] == 1
        assert summary["flushes"] == {FLUSH_RESULT: 1}
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0


class TestDataPlaneConfig:
    def test_defaults_are_all_off(self):
        config = DataPlaneConfig()
        assert not config.any_enabled
        assert config == DataPlaneConfig.off()
        assert config.label() == "naive"

    def test_enabled_turns_everything_on(self):
        config = DataPlaneConfig.enabled()
        assert config.coalescing and config.read_cache
        assert config.pipelined_migration
        assert config.label() == "coalesce+cache+pipeline"

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            DataPlaneConfig().coalescing = True


class TestDataPlaneBundle:
    def make(self, config, link):
        transfers = []
        plane = DataPlane(config, link,
                          lambda src, dst, n: transfers.append((src, dst, n)))
        return plane, transfers

    def test_members_follow_the_config(self, link):
        plane, _ = self.make(DataPlaneConfig(coalescing=True), link)
        assert plane.coalescer is not None and plane.cache is None
        plane, _ = self.make(DataPlaneConfig(read_cache=True), link)
        assert plane.coalescer is None and plane.cache is not None

    def test_cache_stats_share_the_plane_stats(self, link):
        plane, _ = self.make(DataPlaneConfig.enabled(), link)
        plane.cache.note_read(1)
        plane.cache.note_read(1)
        assert plane.stats.cache.hits == 1
        assert plane.stats.rtts_saved == 1

    def test_barriers_tolerate_missing_members(self, link):
        plane, transfers = self.make(DataPlaneConfig(read_cache=True), link)
        plane.flush()
        plane.gc_barrier()
        plane.migration_barrier()
        assert transfers == []

    def test_migration_drops_the_cache(self, link):
        plane, _ = self.make(DataPlaneConfig.enabled(), link)
        plane.cache.note_read(1)
        plane.cache.note_read(2)
        plane.note_migration()
        assert len(plane.cache) == 0

    def test_free_drops_one_entry(self, link):
        plane, _ = self.make(DataPlaneConfig.enabled(), link)
        plane.cache.note_read(1)
        plane.cache.note_read(2)
        plane.note_free(1)
        assert not plane.cache.holds(1)
        assert plane.cache.holds(2)
