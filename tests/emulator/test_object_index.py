"""The trace's dense object indices and the replayer's object tables.

``ColumnarTrace.column_lists`` derives ``a_ix``/``b_ix``/``oid_of``
from the oid columns; the replay loop keeps each object's site, size
and node in lists indexed by them.  These tests hold the derivation to
its columns on every way a trace comes in, and the replayer's liveness
rules (an object is live from its allocation until a collection or a
surrogate-side free reclaims it) to the messages the CLI prints.
"""

import dataclasses

import pytest

from repro.config import DeviceProfile, GCConfig
from repro.core.policy import OffloadPolicy, TriggerConfig
from repro.emulator.columnar import ColumnarTrace
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.emulator.replay import CLIENT, EmulatorConfig, TraceReplayer
from repro.errors import TraceFormatError
from repro.experiments import cached_trace
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.units import KB
from tests.helpers import trace_of


def assert_indices_match(trace):
    cols = trace.column_lists()
    oid_of = cols["oid_of"]
    assert oid_of[0] == -1
    assert len(set(oid_of)) == len(oid_of)
    for side in ("a", "b"):
        oids, indices = cols[f"{side}_oid"], cols[f"{side}_ix"]
        assert len(indices) == len(oids) == len(trace)
        assert [oid_of[ix] for ix in indices] == oids
        assert all((ix == 0) == (oid == -1)
                   for ix, oid in zip(indices, oids))
    # Every oid the trace names has an index, and nothing else does.
    assert set(oid_of) == {-1, *cols["a_oid"], *cols["b_oid"]}


class TestDerivedIndices:
    def test_recorded_jsonl_and_mmapped_traces(self, tmp_path):
        recorded = cached_trace("dia", MEMORY_WORKLOADS["dia"])
        assert_indices_match(recorded)
        jsonl = tmp_path / "dia.jsonl"
        ctrace = tmp_path / "dia.ctrace"
        recorded.save(jsonl)
        recorded.save(ctrace)
        assert_indices_match(ColumnarTrace.load(jsonl))
        mapped = ColumnarTrace.load(ctrace, use_mmap=True)
        try:
            assert mapped._mmap is not None
            assert_indices_match(mapped)
            assert (mapped.column_lists()["oid_of"]
                    == recorded.column_lists()["oid_of"])
        finally:
            mapped.close()

    def test_appending_after_a_replay_derives_them_again(self):
        trace = trace_of([
            AllocEvent(7, "app.A", 64, "<main>", None),
            AccessEvent("<main>", None, "app.A", 7, 8, False, False),
        ])
        TraceReplayer(trace, config()).run()
        before = trace.column_lists()
        trace.append(AllocEvent(2**41, "app.B", 64, "app.A", 7))
        trace.append(FreeEvent(7))
        after = trace.column_lists()
        assert after is not before
        assert_indices_match(trace)
        assert 2**41 in after["oid_of"]

    def test_unchanged_trace_keeps_its_cached_indices(self):
        trace = trace_of([AllocEvent(3, "app.A", 64, "<main>", None)])
        assert trace.column_lists() is trace.column_lists()


def config(**changes):
    base = EmulatorConfig(
        client=DeviceProfile("c", cpu_speed=1.0, heap_capacity=1024 * KB),
        surrogate=DeviceProfile("s", cpu_speed=2.0, heap_capacity=1024 * KB),
        gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
        policy=OffloadPolicy(TriggerConfig(0.01, 1), 0.10),
    )
    return dataclasses.replace(base, **changes)


#: Collects after every second allocation.
EVERY_SECOND = GCConfig(allocations_per_cycle=2, bytes_per_cycle=10**9)


def alloc(oid, class_name="app.A"):
    return AllocEvent(oid, class_name, 64, "<main>", None)


class TestLiveness:
    def test_alloc_of_a_live_oid_is_rejected(self):
        trace = trace_of([alloc(1), alloc(1)])
        with pytest.raises(TraceFormatError,
                           match="event 1: ALLOC of oid 1, which is still "
                                 "live"):
            TraceReplayer(trace, config()).run()

    def test_free_of_an_oid_that_is_not_live_is_rejected(self):
        for events, at in (([alloc(1), FreeEvent(1), FreeEvent(1)], 2),
                           ([FreeEvent(5)], 0)):
            oid = events[-1].oid
            with pytest.raises(TraceFormatError,
                               match=f"event {at}: FREE of oid {oid}, which "
                                     f"is not live"):
                TraceReplayer(trace_of(events), config()).run()

    def test_freed_and_collected_oid_may_be_allocated_again(self):
        # The second allocation triggers a collection, which reclaims 1.
        trace = trace_of([alloc(1), FreeEvent(1), alloc(2), alloc(1)])
        replayer = TraceReplayer(trace, config(gc=EVERY_SECOND))
        result = replayer.run()
        assert result.completed and result.gc_cycles == 1
        assert replayer.residency() == {2: CLIENT, 1: CLIENT}

    def test_freed_but_uncollected_oid_may_not(self):
        trace = trace_of([alloc(1), FreeEvent(1), alloc(1)])
        with pytest.raises(TraceFormatError,
                           match="event 2: ALLOC of oid 1, which is still "
                                 "live"):
            TraceReplayer(trace, config()).run()

    @pytest.mark.parametrize("collected", [True, False])
    def test_interaction_naming_a_reclaimed_oid_uses_its_class_site(
            self, collected):
        # Object 5 (app.A) is allocated on the client and freed; app.A
        # is then offloaded.  Garbage never migrates, so while 5 awaits
        # a collection its accesses run on the client, next to object 6.
        # Once collected, 5 is resolved by its class: the surrogate.
        trace = trace_of([
            alloc(5), FreeEvent(5), alloc(6, "app.B"),
            AccessEvent("app.A", 5, "app.B", 6, 8, False, False),
        ])
        cfg = config(gc=EVERY_SECOND if collected else config().gc,
                     offload_at_event=3,
                     forced_offload_nodes=frozenset({"app.A"}))
        replayer = TraceReplayer(trace, cfg)
        result = replayer.run()
        assert result.offload_count == 1
        assert result.remote_accesses == (1 if collected else 0)
        assert (5 in replayer.residency()) is not collected

    def test_residency_follows_a_forced_offload(self):
        trace = trace_of([
            alloc(1), alloc(2, "app.B"),
            InvokeEvent("<main>", None, "app.A", 1, "m", "instance", False,
                        8, 8),
            WorkEvent("app.A", 1, 0.5),
        ])
        cfg = config(offload_at_event=2,
                     forced_offload_nodes=frozenset({"app.A"}))
        replayer = TraceReplayer(trace, cfg)
        result = replayer.run()
        assert replayer.residency() == {1: "surrogate", 2: CLIENT}
        assert result.remote_invocations == 1
        assert result.cpu_time_surrogate == 0.25
