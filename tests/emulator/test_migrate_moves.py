"""Migration visits only the objects a placement change can move.

``TraceReplayer.migrate`` keeps the live objects of each node filed as
of the last migration and visits the objects of the nodes whose
membership changed, plus the objects born since then.  The oracle is the
full scan it replaced: every live object that is not client garbage
moves when its site disagrees with the new placement.  On random traces,
with a placement drawn for every migration, re-evaluation after every
event, recoveries that repatriate everything before a re-offload, lost
surrogates and collections between migrations, both must move the same
objects, the same bytes and leave the same site table.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.events import AllocEvent
from repro.emulator.replay import CLIENT, SURROGATE, TraceReplayer
from repro.net.faults import FaultSpec
from repro.rpc.retry import RetryPolicy

from .test_replay_properties import CLASSES, config, fault_specs, random_traces

#: Classes whose objects are nodes of their own in these replays.
GRANULAR = "app.A"


def full_scan_moves(replayer, offload_nodes):
    """The objects that move to the surrogate and to the client, by a
    scan of every live object."""
    garbage = replayer._pending_garbage
    to_surrogate, to_client = [], []
    for ix in replayer._live:
        if ix in garbage:
            continue
        site = replayer._site[ix]
        wants_surrogate = replayer._node[ix] in offload_nodes
        if wants_surrogate and site == CLIENT:
            to_surrogate.append(ix)
        elif not wants_surrogate and site == SURROGATE:
            to_client.append(ix)
    return to_surrogate, to_client


class ScriptedReplayer(TraceReplayer):
    """Applies the scripted placements in turn instead of the configured
    one; a scripted recovery first repatriates everything, as losing the
    surrogate does.  Records what each migration moved and the site
    table it left."""

    def __init__(self, trace, cfg, script):
        super().__init__(trace, cfg)
        self._granular_classes.add(GRANULAR)
        self.script = script
        self.calls = []

    def migrate(self, offload_nodes):
        offload_nodes, recover = self.script[len(self.calls)
                                             % len(self.script)]
        if recover:
            self.repatriate_unreachable()
        moved = super().migrate(offload_nodes)
        self.calls.append((moved, list(self._site)))
        return moved


class FullScanReplayer(ScriptedReplayer):
    def _moves(self, offload_nodes, changed):
        return full_scan_moves(self, offload_nodes)


class CheckedReplayer(ScriptedReplayer):
    def _moves(self, offload_nodes, changed):
        expected = full_scan_moves(self, offload_nodes)
        moves = super()._moves(offload_nodes, changed)
        assert [sorted(ixs) for ixs in moves] == [sorted(ixs)
                                                 for ixs in expected]
        return moves


#: A partition that outlasts the retry ladder loses the surrogate, and
#: heals: the replayer rediscovers it and offloads again.
partitions = st.builds(
    lambda seed, start, ladders: FaultSpec(
        seed=seed, partition_windows=(
            (start, start + ladders * RetryPolicy().give_up_s),)),
    st.integers(0, 99), st.floats(0.0, 1.0), st.floats(1.5, 4.0))


@st.composite
def scripts(draw, trace):
    """Placements over the trace's classes and granular objects, each
    with or without a recovery first."""
    nodes = list(CLASSES) + ["<main>"] + [
        f"{event.class_name}#{event.oid}" for event in trace.events
        if isinstance(event, AllocEvent) and event.class_name == GRANULAR]
    placement = st.frozensets(st.sampled_from(nodes))
    return draw(st.lists(st.tuples(placement, st.booleans()), min_size=1,
                         max_size=8))


@given(st.data(), st.integers(1, 10), fault_specs | partitions,
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_migrate_moves_what_the_full_scan_moves(data, offload_at, faults,
                                                pipelined):
    trace = data.draw(random_traces(object_refs=True))
    script = data.draw(scripts(trace))
    cfg = dataclasses.replace(
        config(), offload_at_event=offload_at,
        forced_offload_nodes=frozenset({"app.A", "app.B"}),
        single_shot=False, reevaluate_every=1e-9, faults=faults,
    )
    cfg = dataclasses.replace(cfg, data_plane=dataclasses.replace(
        cfg.data_plane, pipelined_migration=pipelined))
    checked = CheckedReplayer(trace, cfg, script)
    oracle = FullScanReplayer(trace, cfg, script)
    assert (checked.run().fingerprint() == oracle.run().fingerprint())
    assert checked.calls == oracle.calls
    assert checked._site == oracle._site
