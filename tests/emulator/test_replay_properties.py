"""Property and consistency tests for the replayer."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.emulator.replay import (
    EmulatorConfig,
    TraceReplayer,
    post_event_threshold,
)
from repro.net.faults import FaultSpec
from repro.rpc.batch import DROP_RECOVERY, DataPlaneConfig
from repro.rpc.marshal import MESSAGE_HEADER_BYTES
from repro.units import KB
from tests.helpers import trace_of

CLASSES = ("app.A", "app.B", "app.C", "ui.Pinned")


@st.composite
def random_traces(draw, object_refs=False):
    """Random but structurally valid traces.

    With ``object_refs``, either end of an interaction may name a live
    object (its class and oid), as object-granular replays see them.
    """
    trace = ColumnarTrace(app_name="random")
    trace.class_traits = {
        name: {"native": name.startswith("ui."),
               "stateful_native": name.startswith("ui.")}
        for name in CLASSES
    }
    trace.class_traits["java.lang.Math"] = {
        "native": True, "stateful_native": False
    }
    live = []
    class_of = {}
    next_oid = [1]

    def end(classes):
        if object_refs and live and draw(st.booleans()):
            oid = draw(st.sampled_from(live))
            return class_of[oid], oid
        return draw(st.sampled_from(classes)), None

    for _ in range(draw(st.integers(5, 60))):
        kind = draw(st.sampled_from(
            ("alloc", "free", "invoke", "access", "work")
        ))
        if kind == "alloc":
            oid = next_oid[0]
            next_oid[0] += 1
            class_of[oid] = draw(st.sampled_from(CLASSES[:3]))
            trace.append(AllocEvent(
                oid, class_of[oid],
                draw(st.integers(16, 4 * KB)),
                draw(st.sampled_from(CLASSES + ("<main>",))), None,
            ))
            live.append(oid)
        elif kind == "free" and live:
            trace.append(FreeEvent(live.pop(0)))
        elif kind == "invoke":
            trace.append(InvokeEvent(
                *end(CLASSES + ("<main>",)), *end(CLASSES), "m",
                draw(st.sampled_from(("instance", "static", "native"))),
                False, draw(st.integers(0, 256)), draw(st.integers(0, 256)),
            ))
        elif kind == "access":
            trace.append(AccessEvent(
                *end(CLASSES + ("<main>",)), *end(CLASSES),
                draw(st.integers(1, 1024)), draw(st.booleans()),
                draw(st.booleans()),
            ))
        else:
            trace.append(WorkEvent(
                draw(st.sampled_from(CLASSES)), None,
                draw(st.floats(0.0, 0.5)),
            ))
    return trace


def config(heap=64 * KB):
    return EmulatorConfig(
        client=DeviceProfile("c", cpu_speed=1.0, heap_capacity=heap),
        surrogate=DeviceProfile("s", cpu_speed=2.0, heap_capacity=1024 * KB),
        gc=GCConfig(allocations_per_cycle=8, bytes_per_cycle=16 * KB),
        policy=OffloadPolicy(TriggerConfig(0.25, 1), 0.10),
        monitoring_event_cost=1e-6,
    )


#: No faults, a lossy link (heavy loss may exhaust the retries and lose
#: the surrogate) or a crash after a few exchanges.
fault_specs = st.one_of(
    st.none(),
    st.builds(lambda seed, rate: FaultSpec(seed=seed, loss_rate=rate),
              st.integers(0, 99), st.floats(0.05, 0.6)),
    st.builds(lambda seed, at: FaultSpec(seed=seed, crash_at_event=at),
              st.integers(0, 99), st.integers(0, 6)),
)


def remap_oids(trace, rename):
    """``trace`` with every oid renamed by ``rename`` (``None`` stays)."""
    def new(oid):
        return None if oid is None else rename[oid]

    events = []
    for event in trace.events:
        if isinstance(event, AllocEvent):
            event = event._replace(oid=new(event.oid),
                                   creator_oid=new(event.creator_oid))
        elif isinstance(event, FreeEvent):
            event = event._replace(oid=new(event.oid))
        elif isinstance(event, InvokeEvent):
            event = event._replace(caller_oid=new(event.caller_oid),
                                   callee_oid=new(event.callee_oid))
        elif isinstance(event, AccessEvent):
            event = event._replace(accessor_oid=new(event.accessor_oid),
                                   owner_oid=new(event.owner_oid))
        else:
            event = event._replace(oid=new(event.oid))
        events.append(event)
    return trace_of(events, app_name=trace.app_name,
                    class_traits=trace.class_traits)


# Invokes with kind 'native' on classes whose traits say otherwise are
# routed by the event's own mkind field, which is what the recorder
# writes; the trait table only drives pinning.


class TestReplayProperties:
    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_replay_is_deterministic(self, trace):
        first = TraceReplayer(trace, config()).run()
        second = TraceReplayer(trace, config()).run()
        assert first.total_time == second.total_time
        assert first.offload_count == second.offload_count
        assert first.remote_interactions == second.remote_interactions
        assert first.oom == second.oom

    @given(random_traces(), st.integers(1, 10), fault_specs, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_total_time_decomposes(self, trace, offload_at, faults, plane):
        # Two of the three allocating classes are offloaded early, so
        # remote traffic crosses the faulty link and a lost surrogate is
        # recovered from.
        cfg = dataclasses.replace(
            config(), offload_at_event=offload_at,
            forced_offload_nodes=frozenset({"app.A", "app.B"}),
            faults=faults,
            data_plane=(DataPlaneConfig.enabled() if plane
                        else DataPlaneConfig.off()),
        )
        result = TraceReplayer(trace, cfg).run()
        parts = (
            result.cpu_time_client
            + result.cpu_time_surrogate
            + result.comm_time
            + result.migration_time
            + result.gc_pause_time
            + result.monitoring_time
            + result.fault_time
        )
        assert result.total_time == pytest.approx(parts)

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_offload_disabled_has_no_remote_activity(self, trace):
        cfg = dataclasses.replace(config(heap=1024 * KB),
                                  offload_enabled=False)
        result = TraceReplayer(trace, cfg).run()
        assert result.remote_interactions == 0
        assert result.comm_time == 0.0
        assert result.migration_bytes == 0
        assert result.offload_count == 0

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_bigger_heap_never_increases_gc_cycles(self, trace):
        small = TraceReplayer(trace, config(heap=32 * KB)).run()
        large = TraceReplayer(trace, config(heap=1024 * KB)).run()
        if small.completed and large.completed:
            assert large.gc_cycles <= small.gc_cycles

    @given(random_traces())
    @settings(max_examples=40, deadline=None)
    def test_events_processed_counts_to_failure_point(self, trace):
        result = TraceReplayer(trace, config()).run()
        if result.completed:
            assert result.events_processed == len(trace)
        else:
            assert result.events_processed <= len(trace)

    @given(random_traces(), st.integers(1, 10), st.booleans(), st.booleans(),
           fault_specs)
    @settings(max_examples=60, deadline=None)
    def test_data_plane_accounting(self, trace, offload_at, cache, pipelined,
                                   faults):
        # Offload two of the three allocating classes early, so remote
        # reads, writes and invokes run both ways through the coalescer,
        # across GC and migration barriers; under faults each leg of a
        # closing batch runs the gauntlet, and may lose the surrogate.
        cfg = dataclasses.replace(
            config(), offload_at_event=offload_at,
            forced_offload_nodes=frozenset({"app.A", "app.B"}),
            faults=faults,
            data_plane=DataPlaneConfig(coalescing=True, read_cache=cache,
                                       pipelined_migration=pipelined),
        )
        result = TraceReplayer(trace, cfg).run()
        dp = result.data_plane
        assert dp.wire_messages == 2 * dp.batches
        assert dp.naive_messages == 2 * dp.ops
        assert dp.ops == result.remote_accesses + result.remote_invocations
        assert (dp.naive_bytes - dp.wire_bytes
                == 2 * MESSAGE_HEADER_BYTES * (dp.ops - dp.batches))
        assert sum(count for reason, count in dp.flushes.items()
                   if reason != DROP_RECOVERY) == dp.batches
        assert all(dp.flushes.values())
        assert dp.actual_seconds <= dp.naive_seconds
        parts = (
            result.cpu_time_client
            + result.cpu_time_surrogate
            + result.comm_time
            + result.migration_time
            + result.gc_pause_time
            + result.monitoring_time
            + result.fault_time
        )
        assert result.total_time == pytest.approx(parts)

    @given(st.data(), st.integers(1, 10), fault_specs, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_replay_does_not_depend_on_oid_numbering(self, data, offload_at,
                                                     faults, plane):
        # The replayer's object tables are indexed by the trace's own
        # dense indices, so renaming every oid through an injective,
        # order-scrambling map to values past 2**40 changes nothing at
        # class granularity.
        trace = data.draw(random_traces(object_refs=True))
        cols = trace.column_lists()
        oids = sorted({*cols["a_oid"], *cols["b_oid"]} - {-1})
        targets = data.draw(st.lists(st.integers(2**40, 2**62), unique=True,
                                     min_size=len(oids), max_size=len(oids)))
        targets = data.draw(st.permutations(sorted(targets, reverse=True)))
        renamed = remap_oids(trace, dict(zip(oids, targets)))
        cfg = dataclasses.replace(
            config(), offload_at_event=offload_at,
            forced_offload_nodes=frozenset({"app.A", "app.B"}),
            faults=faults,
            data_plane=(DataPlaneConfig.enabled() if plane
                        else DataPlaneConfig.off()),
        )
        assert (TraceReplayer(renamed, cfg).run().fingerprint()
                == TraceReplayer(trace, cfg).run().fingerprint())


#: Clock readings and periods: non-negative, subnormals included.
TIMES = st.floats(0.0, 1e9)


def checks_due(now, next_change, reattach_at, lost, last, every, offloads):
    """The replay loop's exact post-event clock tests."""
    return (now >= next_change
            or (reattach_at is not None and now >= reattach_at and lost)
            or (every is not None and now - last >= every and offloads > 0))


class TestPostEventGate:
    """The loop opens its post-event checks on ``now >= threshold``; the
    threshold may open them early but must never skip one."""

    @given(TIMES, TIMES | st.just(math.inf), st.none() | TIMES,
           st.booleans(), TIMES, st.none() | TIMES, st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_threshold_never_skips_a_due_check(self, now, next_change,
                                               reattach_at, lost, last,
                                               every, offloads):
        args = (next_change, reattach_at, lost, last, every, offloads)
        if checks_due(now, *args):
            assert now >= post_event_threshold(*args)

    @given(TIMES, TIMES)
    # Here ``now - last >= every`` already holds one float below the
    # rounded ``last + every``.
    @example(5.093901979039841, 8.032342721659742)
    @settings(max_examples=300, deadline=None)
    def test_threshold_holds_at_the_rounding_boundary(self, last, every):
        # Readings a few floats either side of last + every, where
        # ``now - last >= every`` flips.
        args = (math.inf, None, False, last, every, 1)
        threshold = post_event_threshold(*args)
        below = above = last + every
        for _ in range(4):
            for now in (below, above):
                if checks_due(now, *args):
                    assert now >= threshold
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)

    def test_threshold_is_the_earliest_armed_check(self):
        assert post_event_threshold(5.0, 3.0, True, 0.0, None, 0) == 3.0
        # A reattach time counts only while the surrogate is lost, and
        # re-evaluation only after an offload.
        assert post_event_threshold(5.0, 3.0, False, 0.0, 1.0, 0) == 5.0
        assert 0.99 < post_event_threshold(5.0, None, False, 0.0, 1.0,
                                           1) <= 1.0
        assert post_event_threshold(math.inf, None, False, 0.0, None,
                                    4) == math.inf
