"""The replay's execution graph is folded on read, to the eager rules.

``graph_goldens.json`` holds digests recorded from the loop that updated
the graph on every event.  The folded graph must match them after every
offload attempt and after ``run``; reading it at other points must not
change it; and a forced placement, which never reads it, folds nothing.
"""

import pytest

from repro.emulator.graphfold import GraphFold
from repro.emulator.replay import TraceReplayer

from .graph_goldens import goldens, graph_digest, graph_runs, probe_replay

RUNS = {key: (trace, config) for key, trace, config in graph_runs()}


@pytest.mark.parametrize("key", sorted(RUNS))
def test_folded_graph_matches_eager_golden(key):
    assert probe_replay(*RUNS[key]) == goldens()[key]


class RecordingFold(GraphFold):
    """A fold that also keeps every side-log entry it is given."""

    def __init__(self, *args):
        super().__init__(*args)
        self.entries = []

    def mark(self, at):
        self.entries.append(("mark", at))
        super().mark(at)

    def reclaim(self, at, node, nbytes):
        self.entries.append(("reclaim", at, node, nbytes))
        super().reclaim(at, node, nbytes)


@pytest.mark.parametrize("key,every", [
    ("dia/array/reeval", 1),
    ("dia/class/partition", 997),
    ("javanote/array/memory", 997),
])
def test_reading_every_n_events_leaves_the_graph_unchanged(key, every):
    trace, config = RUNS[key]
    replayer = TraceReplayer(trace, config)
    fold = replayer._fold
    recorder = replayer._fold = RecordingFold(
        fold.trace, fold.graph, fold.granular_classes)
    replayer.run()
    # Fold the same events and side log again afresh, reading
    # the graph every ``every`` events on the way.
    refold = TraceReplayer(trace, config)._fold
    for entry in recorder.entries:
        getattr(refold, entry[0])(*entry[1:])
    refold.end = recorder.end
    for upto in range(0, replayer.result.events_processed, every):
        refold.advance(upto)
    final = refold.advance(replayer.result.events_processed)
    assert graph_digest(final) == goldens()[key]["final"]


def test_forced_placement_folds_nothing_until_read():
    trace, config = RUNS["dia/class/loss"]
    assert config.forced_offload_nodes is not None
    replayer = TraceReplayer(trace, config)
    replayer.run()
    assert replayer._fold.folded == 0
    assert graph_digest(replayer.graph) == goldens()["dia/class/loss"]["final"]
    assert replayer._fold.folded == len(trace)
