"""Flat-CSR partitioner core vs the string-keyed reference kernel.

The flat path (``core.flatgraph``) must be *bit-identical* to the
reference MINCUT kernel (``mincut_oracle.generate_candidates``) — same
candidates, same statistics (including the float CPU columns), same
policy selections, same refusal messages — across cold runs,
warm-started sessions, and every repair/fallback branch.  These tests
drive both implementations over hypothesis-randomised graphs and
adversarial mutation mixes (edge growth, shrinking edges, node churn,
greedy-order flips) and compare exhaustively.
"""

import random
import time
from dataclasses import replace
from typing import List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import flatgraph
from repro.core.energy import EnergyPartitionPolicy
from repro.core.graph import ExecutionGraph, GraphDelta
from repro.core.partitioner import (
    IncrementalPartitioner,
    PartitionDecision,
    Partitioner,
)
from repro.core.policy import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    context_key,
)
from repro.errors import NoBeneficialPartitionError, PartitioningError

from .mincut_oracle import generate_candidates
from .policy_oracle import oracle_select

POLICIES = (
    MemoryPartitionPolicy(0.20),
    CpuPartitionPolicy(),
    BestEffortCpuPolicy(),
    CombinedPartitionPolicy(0.20),
    EnergyPartitionPolicy(),
)


def make_context(graph: ExecutionGraph) -> EvaluationContext:
    return EvaluationContext(
        heap_capacity=max(1, graph.total_memory()),
        total_cpu=graph.total_cpu(),
        elapsed=30.0,
    )


def reference_decision(policy, graph, pinned, ctx) -> PartitionDecision:
    """The cold reference: ``generate_candidates`` + ``oracle_select``.

    Wrapped the way ``Partitioner`` wraps an accepted decision or a
    refusal, so it compares field for field with the shipped path.
    """
    candidates = generate_candidates(graph, pinned)
    try:
        winner = candidates[oracle_select(policy, candidates, ctx)]
    except NoBeneficialPartitionError as refusal:
        return PartitionDecision.refusal(
            reason=str(refusal), candidates_evaluated=len(candidates),
            compute_seconds=0.0, policy_name=policy.name,
        )
    return Partitioner(policy)._decide(
        policy.decision_for(winner, ctx), len(candidates), {},
        time.perf_counter(),
    )


def assert_chain_matches(chain, reference) -> None:
    """Every candidate statistic and node set, exactly (floats too)."""
    assert chain.k == len(reference)
    for got, want in zip(chain.candidates(), reference):
        assert got.client_nodes == want.client_nodes
        assert got.surrogate_nodes == want.surrogate_nodes
        assert got.cut_bytes == want.cut_bytes
        assert got.cut_count == want.cut_count
        assert got.surrogate_memory == want.surrogate_memory
        assert got.surrogate_cpu == want.surrogate_cpu
        assert got.client_cpu == want.client_cpu


def assert_decisions_match(flat, reference) -> None:
    """PartitionDecision parity (warm_start/cache flags may differ)."""
    assert flat.beneficial == reference.beneficial
    assert flat.predicted_bandwidth == reference.predicted_bandwidth
    assert flat.refusal_reason == reference.refusal_reason
    assert flat.offload_nodes == reference.offload_nodes
    assert flat.client_nodes == reference.client_nodes
    assert flat.cut_bytes == reference.cut_bytes
    assert flat.cut_count == reference.cut_count
    assert flat.freed_bytes == reference.freed_bytes
    assert flat.predicted_time == reference.predicted_time
    assert flat.original_time == reference.original_time
    assert flat.policy_name == reference.policy_name


@st.composite
def graph_cases(draw):
    """A random weighted graph plus a (possibly stale) pinned list."""
    node_count = draw(st.integers(min_value=2, max_value=12))
    names = [f"n{i:02d}" for i in range(node_count)]
    graph = ExecutionGraph()
    for name in names:
        graph.add_memory(name, draw(st.integers(0, 10_000)))
        if draw(st.booleans()):
            # Dyadic fractions keep the float columns exactly
            # representable; the comparison is == either way.
            graph.add_cpu(name, draw(st.integers(0, 6400)) / 64)
    for _ in range(draw(st.integers(0, node_count * 2))):
        i = draw(st.integers(0, node_count - 1))
        j = draw(st.integers(0, node_count - 1))
        graph.record_interaction(
            names[i], names[j], draw(st.integers(1, 1_000_000)),
            count=draw(st.integers(1, 50)),
        )
    pinned = draw(st.lists(st.sampled_from(names), max_size=node_count,
                           unique=True))
    if draw(st.booleans()):
        pinned.append("ghost")  # pinned names absent from the graph
    return graph, pinned


class TestColdParity:
    @given(graph_cases())
    @settings(max_examples=60, deadline=None)
    def test_cold_chain_matches_legacy(self, case):
        graph, pinned = case
        legacy = generate_candidates(graph, pinned)
        assert_chain_matches(
            flatgraph.snapshot(graph).generate_chain(pinned), legacy)

    @given(graph_cases(), st.integers(0, len(POLICIES) - 1))
    @settings(max_examples=40, deadline=None)
    def test_partitioner_flag_parity(self, case, policy_index):
        graph, pinned = case
        ctx = make_context(graph)
        policy = POLICIES[policy_index]
        flat = Partitioner(policy).partition(graph, pinned, ctx)
        assert_decisions_match(
            flat, reference_decision(policy, graph, pinned, ctx))

    def test_empty_graph_raises_like_legacy(self):
        graph = ExecutionGraph()
        with pytest.raises(PartitioningError):
            generate_candidates(graph, [])
        fg = flatgraph.snapshot(graph)
        with pytest.raises(PartitioningError):
            fg.generate_chain([])

    def test_single_movable_node_chain(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 100)
        graph.add_memory("b", 200)
        graph.record_interaction("a", "b", 64)
        chain = flatgraph.snapshot(graph).generate_chain(["a"])
        assert chain.k == 1
        assert_chain_matches(chain, generate_candidates(graph, ["a"]))

    def test_all_pinned_yields_empty_chain(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 100)
        graph.add_memory("b", 200)
        graph.record_interaction("a", "b", 64)
        chain = flatgraph.snapshot(graph).generate_chain(["a", "b"])
        assert chain.k == 0
        assert chain.candidates() == []


@st.composite
def pendant_cases(draw):
    """A graph shaped like an object-granularity trace, plus every
    pendant corner the cold kernel's runs must get right.

    Core nodes are hubs owning many single-edge objects (pendants).
    Beside them: pendant pairs joined only to each other, isolated
    nodes, and detached hubs whose pendants have no connectivity until
    the rank pointer takes one of them.  Edge weights come from a short
    list with repeats, so equal-weight pendants (the rank tie-break)
    and zero-byte, zero-count edges are common.  Names are drawn as a
    random permutation, so ranks are unrelated to roles.
    """
    weights = st.tuples(st.sampled_from([0, 0, 1, 64, 64, 64, 4096]),
                        st.sampled_from([0, 1, 1, 2]))
    roles: List[str] = []
    edges: List[Tuple[int, int, Tuple[int, int]]] = []

    def node(role: str) -> int:
        roles.append(role)
        return len(roles) - 1

    core = [node("core") for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2 * len(core)))):
        a, b = draw(st.sampled_from(core)), draw(st.sampled_from(core))
        if a != b:
            edges.append((a, b, draw(weights)))
    hubs = core + [node("detached") for _ in range(draw(st.integers(0, 2)))]
    for hub in hubs:
        for _ in range(draw(st.integers(0 if hub in core else 1, 7))):
            edges.append((hub, node("pendant"), draw(weights)))
    for _ in range(draw(st.integers(0, 2))):
        edges.append((node("pair"), node("pair"), draw(weights)))
    for _ in range(draw(st.integers(0, 2))):
        node("isolated")
    labels = draw(st.permutations(range(len(roles))))
    names = [f"v{label:02d}" for label in labels]
    graph = ExecutionGraph()
    for name in names:
        graph.add_memory(name, draw(st.integers(0, 10_000)))
        if draw(st.booleans()):
            graph.add_cpu(name, draw(st.integers(0, 6400)) / 64)
    for a, b, (nbytes, count) in edges:
        graph.record_interaction(names[a], names[b], nbytes, count=count)
    # Pinned hubs put their pendants on the seed; an empty pin list
    # takes the most-connected fallback seed.
    pinned = [names[i] for i in draw(st.lists(st.sampled_from(core),
                                              unique=True))]
    if draw(st.booleans()):
        pinned.append(names[draw(st.integers(0, len(names) - 1))])
    return graph, pinned


def expected_selections(fg, graph, chain):
    """Each move's packed key, recomputed from the graph: its bytes and
    count towards the client side at that step, then its rank."""
    client = set(chain.seed)
    keys = []
    for v in chain.order[:-1]:
        name = fg.names[v]
        nbytes = count = 0
        for neighbor, edge in graph.adjacent_edges(name):
            if neighbor in client:
                nbytes += edge.bytes
                count += edge.count
        keys.append((nbytes * fg.cb + count) * fg.nb + fg.rank[v])
        client.add(name)
    return keys


def assert_warm_record(fg, graph, chain, warm) -> None:
    """What the cold run leaves for repair: selections and positions."""
    assert warm.sel_packed == expected_selections(fg, graph, chain)
    pos = [0] * fg.n
    for j, v in enumerate(chain.order):
        pos[v] = j + 1
    assert warm.pos == pos
    assert warm.ready == (chain.k >= 2)


def assert_cold_run_matches_oracle(graph, pinned) -> None:
    """One recorded cold run against the oracle: every column, the
    order, and the warm record's selections and positions."""
    fg = flatgraph.FlatGraph.try_compile(graph)
    warm = flatgraph.FlatWarmState()
    chain = fg.generate_chain(pinned, warm)
    reference = generate_candidates(graph, pinned)
    assert_chain_matches(chain, reference)
    if reference:
        assert ([fg.names[v] for v in chain.order]
                == reference[0]._log.order)
    assert_warm_record(fg, graph, chain, warm)


class TestPendantRuns:
    """The cold kernel moves pendants in runs; the oracle moves one node
    at a time.  Every column, the order and the warm record must agree."""

    @given(pendant_cases())
    @settings(max_examples=150, deadline=None)
    def test_cold_chain_matches_oracle(self, case):
        graph, pinned = case
        assert_cold_run_matches_oracle(graph, pinned)

    @given(pendant_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_repair_after_a_cold_run_matches_the_reference(self, case,
                                                           data):
        graph, pinned = case
        edge_keys = [key for key, _ in graph.edges()]
        assume(edge_keys)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        warm = flatgraph.FlatWarmState()
        fg.generate_chain(pinned, warm)
        for _ in range(data.draw(st.integers(1, 3))):
            a, b = data.draw(st.sampled_from(edge_keys))
            graph.record_interaction(a, b, data.draw(st.integers(0, 128)),
                                     count=data.draw(st.integers(0, 2)))
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None
        chain, fail, _, _ = fg.repair_chain(warm, fdelta, pinned)
        if chain is None:
            # No node was appended; the fallback seed may move.
            assert fail in (flatgraph.COLD_NOT_READY,
                            flatgraph.COLD_SEED_CHANGE,
                            flatgraph.COLD_SHRUNK_WINNER,
                            flatgraph.COLD_BUDGET)
            chain = fg.generate_chain(pinned, warm)
        reference = generate_candidates(graph, pinned)
        assert_chain_matches(chain, reference)
        assert_warm_record(fg, graph, chain, warm)

    @staticmethod
    def _hub_graph(pendants, hub_weight=64, pendant_bytes=None):
        graph = ExecutionGraph()
        graph.add_memory("hub", 100)
        for i in range(pendants):
            name = f"p{i}"
            graph.add_memory(name, 10 * (i + 1))
            graph.add_cpu(name, (i + 1) / 64)
            nbytes = hub_weight if pendant_bytes is None else pendant_bytes[i]
            graph.record_interaction("hub", name, nbytes)
        return graph

    def test_a_run_stops_one_short_of_the_last_node(self):
        # Every surrogate waits on the seed: one run moves k - 1 of them
        # and the last waiting pendant is the never-moved remainder.
        graph = self._hub_graph(4, pendant_bytes=[5, 9, 9, 1])
        chain = flatgraph.snapshot(graph).generate_chain(["hub"])
        assert chain.k == 4
        assert_chain_matches(chain, generate_candidates(graph, ["hub"]))
        assert [chain.fg.names[v] for v in chain.order] == [
            "p2", "p1", "p0", "p3"]  # equal weights: larger id first

    def test_a_pendant_hub_with_no_connectivity_is_taken_by_rank(self):
        # "u" and its pendants never touch the seed: the rank pointer
        # takes the highest-ranked of them, which releases the rest.
        graph = self._hub_graph(2)
        graph.record_interaction("u", "u1", 7)
        graph.record_interaction("u", "u2", 7, count=3)
        graph.record_interaction("w", "x", 0, count=0)  # a zero pendant pair
        graph.add_memory("zz", 1)  # isolated
        for pinned in (["hub"], ["u"], ["w"], []):
            fg = flatgraph.FlatGraph.try_compile(graph)
            warm = flatgraph.FlatWarmState()
            chain = fg.generate_chain(pinned, warm)
            assert_chain_matches(chain, generate_candidates(graph, pinned))
            assert_warm_record(fg, graph, chain, warm)

    def test_repair_after_a_run_goes_warm(self):
        graph = self._hub_graph(6, pendant_bytes=[10, 20, 30, 40, 50, 60])
        graph.record_interaction("hub", "core", 500)
        graph.record_interaction("core", "q", 5)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        warm = flatgraph.FlatWarmState()
        fg.generate_chain(["hub"], warm)
        graph.record_interaction("hub", "p0", 45)  # p0 overtakes p3
        fdelta = fg.sync(graph, graph.drain_dirty())
        chain, fail, splices, _ = fg.repair_chain(warm, fdelta, ["hub"])
        assert fail is None and splices == 1
        assert_chain_matches(chain, generate_candidates(graph, ["hub"]))
        assert_warm_record(fg, graph, chain, warm)


@st.composite
def seed_cases(draw):
    """A graph whose seed relaxes the awkward way, plus its pin list.

    Several pinned nodes share neighbours (a node next to two seeds is
    relaxed twice), seeds are joined to each other, edges may weigh
    nothing (a zero-weight seed edge relaxes nobody), pendants hang off
    seeds, and a pinned node may itself be a pendant.  An empty pin
    list takes the most-connected fallback seed.
    """
    weights = st.tuples(st.sampled_from([0, 0, 1, 64, 64, 4096]),
                        st.sampled_from([0, 1, 1, 3]))
    count = draw(st.integers(3, 12))
    labels = draw(st.permutations(range(count)))
    names = [f"s{label:02d}" for label in labels]
    graph = ExecutionGraph()
    for name in names:
        graph.add_memory(name, draw(st.integers(0, 4096)))
        if draw(st.booleans()):
            graph.add_cpu(name, draw(st.integers(0, 640)) / 64)
    seeds = names[:draw(st.integers(1, min(4, count - 1)))]
    for _ in range(draw(st.integers(0, 3 * count))):
        a = draw(st.sampled_from(seeds + names))
        b = draw(st.sampled_from(names))
        nbytes, ncount = draw(weights)
        graph.record_interaction(a, b, nbytes, count=ncount)
    for seed in draw(st.lists(st.sampled_from(seeds), max_size=3)):
        # A pendant owned by a seed.
        nbytes, ncount = draw(weights)
        graph.record_interaction(seed, f"p{len(graph.names):02d}", nbytes,
                                 count=ncount)
    if draw(st.booleans()):
        # A pinned pendant: pinned, with one neighbour.
        pendant = f"q{len(graph.names):02d}"
        graph.record_interaction(pendant, draw(st.sampled_from(names)),
                                 draw(st.sampled_from([0, 64])))
        seeds = seeds + [pendant]
    pinned = [] if draw(st.integers(0, 4)) == 0 else seeds
    return graph, pinned


class TestSeedRelaxation:
    """The cold kernel's set-up relaxes only the seed's neighbours and
    heapifies the relaxed non-pendants; the oracle relaxes one edge at
    a time.  Columns, order and the warm record must agree."""

    @given(seed_cases())
    @settings(max_examples=200, deadline=None)
    def test_seed_relaxation_matches_oracle(self, case):
        graph, pinned = case
        assert_cold_run_matches_oracle(graph, pinned)

    @staticmethod
    def _graph():
        graph = ExecutionGraph()
        for name, memory in (("a", 10), ("b", 20), ("c", 30), ("d", 40),
                             ("e", 50), ("f", 60), ("g", 70)):
            graph.add_memory(name, memory)
            graph.add_cpu(name, memory / 64)
        graph.record_interaction("a", "c", 64)           # c: two seeds
        graph.record_interaction("b", "c", 64, count=2)
        graph.record_interaction("a", "b", 4096)          # seed to seed
        graph.record_interaction("a", "d", 0, count=0)    # zero weight
        graph.record_interaction("d", "e", 8)
        graph.record_interaction("b", "f", 16)            # seed's pendant
        graph.record_interaction("g", "e", 1)             # g: a pendant
        return graph

    @pytest.mark.parametrize("pinned", [
        ["a", "b"],          # a node adjacent to two seeds
        ["a", "b", "g"],     # plus a pinned pendant
        ["a"],               # a zero-weight seed edge
        [],                  # the most-connected fallback seed
    ], ids=["two-seeds", "pinned-pendant", "zero-weight", "fallback"])
    def test_fixed_seed_shapes(self, pinned):
        assert_cold_run_matches_oracle(self._graph(), pinned)


class TestWarmPositionsOnDemand:
    """A recorded run derives ``pos`` only when it is read."""

    def test_repair_after_a_run_whose_pos_was_never_read(self):
        graph = TestSeedRelaxation._graph()
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        warm = flatgraph.FlatWarmState()
        fg.generate_chain(["a"], warm)
        assert warm._pos is None and warm.n == fg.n
        graph.record_interaction("d", "e", 100)
        graph.record_interaction("a", "c", 1)
        fdelta = fg.sync(graph, graph.drain_dirty())
        chain, fail, _, _ = fg.repair_chain(warm, fdelta, ["a"])
        assert fail is None
        assert warm._pos is None
        assert_chain_matches(chain, generate_candidates(graph, ["a"]))
        assert_warm_record(fg, graph, chain, warm)

    def test_an_appending_sync_fails_repair_with_node_churn(self):
        graph = TestSeedRelaxation._graph()
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        warm = flatgraph.FlatWarmState()
        fg.generate_chain(["a"], warm)
        recorded = warm.n
        graph.record_interaction("c", "cc", 5)   # sorts mid-table
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None and fg.n == recorded + 1
        chain, fail, _, _ = fg.repair_chain(warm, fdelta, ["a"])
        assert chain is None and fail == flatgraph.COLD_NODE_CHURN
        # The cold rerun re-records at the new size.
        chain = fg.generate_chain(["a"], warm)
        assert warm.n == fg.n
        assert_chain_matches(chain, generate_candidates(graph, ["a"]))
        assert_warm_record(fg, graph, chain, warm)


class TestFlatGraphStructure:
    @given(graph_cases())
    @settings(max_examples=30, deadline=None)
    def test_csr_cut_connectivity_match_graph(self, case):
        graph, _ = case
        fg = flatgraph.snapshot(graph)
        indptr, adj, eidx = fg.csr()
        assert indptr[-1] == len(adj) == len(eidx)
        names = fg.names
        for u in range(fg.n):
            row = [names[adj[p]] for p in range(indptr[u], indptr[u + 1])]
            assert sorted(row) == sorted(graph.neighbors(names[u]))
        group = frozenset(n for i, n in enumerate(names) if i % 2 == 0)
        group_idx = [i for i in range(fg.n) if i % 2 == 0]
        assert fg.cut(group_idx) == graph.cut(group)
        for u in range(fg.n):
            assert (fg.connectivity(u, group_idx)
                    == graph.connectivity(names[u], group))

    def test_sync_patches_and_csr_refreshes(self):
        graph = ExecutionGraph()
        for name in ("a", "b", "c"):
            graph.add_memory(name, 100)
        graph.record_interaction("a", "b", 10, count=100)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        fg.csr()
        graph.record_interaction("b", "c", 20, count=3)
        graph.record_interaction("a", "b", 5)
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None and not fdelta.rebased
        assert fg.synced_version == graph.version
        indptr, adj, _ = fg.csr()
        assert indptr[-1] == 4  # two undirected edges, two half-edges each
        assert fg.cut([fg.idx["a"]]) == graph.cut(frozenset({"a"}))

    def test_rebasis_reencodes_and_stays_exact(self):
        graph = ExecutionGraph()
        for name in ("a", "b", "c", "d"):
            graph.add_memory(name, 1000)
        graph.record_interaction("a", "b", 8)
        graph.record_interaction("b", "c", 4)
        graph.record_interaction("c", "d", 2)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        old_cb = fg.cb
        # Blow past the count basis so sync must rebasis.
        graph.record_interaction("a", "b", 1, count=10 * old_cb)
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None and fdelta.rebased
        assert fg.cb > old_cb
        assert_chain_matches(fg.generate_chain(["a"]),
                             generate_candidates(graph, ["a"]))

    def test_sync_appends_new_nodes_in_graph_order(self):
        graph = ExecutionGraph()
        for name in ("a", "b", "d", "e"):
            graph.add_memory(name, 100)
            graph.add_cpu(name, 0.1)
        graph.record_interaction("a", "b", 10)
        graph.record_interaction("d", "e", 20)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        old_idx = dict(fg.idx)
        # 4 -> 5 nodes crosses a power of two: the rank field widens.
        graph.record_interaction("b", "c", 30)  # "c" sorts mid-table
        graph.add_cpu("c", 0.7)
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None and fdelta.rebased
        assert fg.n == 5 and fg.names == list(graph.nodes())
        assert all(fg.idx[name] == i for name, i in old_idx.items())
        assert [fg.names[i] for i in fg.r2i] == sorted(fg.names)
        assert_chain_matches(fg.generate_chain(["a"]),
                             generate_candidates(graph, ["a"]))
        # 5 -> 6 stays under the power of two: a plain patch.
        graph.record_interaction("e", "aa", 5)
        fdelta = fg.sync(graph, graph.drain_dirty())
        assert fdelta is not None and not fdelta.rebased
        assert fg.names == list(graph.nodes())
        assert_chain_matches(fg.generate_chain(["a"]),
                             generate_candidates(graph, ["a"]))

    @given(st.lists(st.lists(st.text("abc#", max_size=4), max_size=6),
                    max_size=6),
           st.lists(st.text("abc#", max_size=4), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_ranks_after_appends_match_a_full_sort(self, rounds, first):
        graph = ExecutionGraph()
        for name in first:
            graph.add_memory(name, 1)
        fg = flatgraph.FlatGraph.try_compile(graph)
        for names in rounds:
            for name in names:
                graph.add_memory(name, 1)
            assert fg.sync(graph, graph.drain_dirty()) is not None
            full = sorted(range(fg.n), key=fg.names.__getitem__)
            assert fg.r2i == full
            assert fg.rank == [full.index(i) for i in range(fg.n)]
            assert fg.negrank == [-r for r in fg.rank]

    def test_sync_refuses_a_delta_that_misses_a_mutation(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 100)
        graph.add_memory("b", 100)
        graph.record_interaction("a", "b", 10)
        graph.drain_dirty()
        fg = flatgraph.FlatGraph.try_compile(graph)
        graph.record_interaction("a", "z", 10)  # new node and edge
        full = graph.drain_dirty()
        missed = GraphDelta(nodes=full.nodes, edges=frozenset())
        assert fg.sync(graph, missed) is None

    def test_statistics_beyond_int64_decode_exactly(self):
        huge = ExecutionGraph()
        huge.add_memory("a", 100)
        huge.add_memory("b", 100)
        huge.record_interaction("a", "b", 2 ** 70)  # beyond int64
        chain = flatgraph.snapshot(huge).generate_chain(["a"])
        assert chain.cut_bytes == [2 ** 70]
        assert chain.candidates()[0].cut_bytes == 2 ** 70
        assert chain.statistics(0)[0] == 2 ** 70


class TestSessionParity:
    """Multi-epoch incremental sessions under adversarial mutation mixes."""

    KINDS = ("bump", "shrink", "new_edge", "churn", "memory", "cpu")

    @staticmethod
    def _apply(graph: ExecutionGraph, names, kind: str,
               rng: random.Random) -> None:
        edges = [key for key, _ in graph.edges()]
        if kind == "bump" and edges:
            a, b = rng.choice(edges)
            graph.record_interaction(a, b, rng.randrange(1, 500),
                                     count=rng.randrange(1, 4))
        elif kind == "shrink" and edges:
            # Shrink an edge without going negative: exercises the
            # shrunk-winner detection in the repair sweep.
            a, b = rng.choice(edges)
            nbytes = graph.edge_bytes(a, b)
            if nbytes > 1:
                graph.record_interaction(a, b, -rng.randrange(1, nbytes),
                                         count=0)
        elif kind == "new_edge":
            a, b = rng.choice(names), rng.choice(names)
            graph.record_interaction(a, b, rng.randrange(1, 1000))
        elif kind == "churn":
            fresh = f"x{len(names):02d}"
            names.append(fresh)
            graph.record_interaction(rng.choice(names[:-1]), fresh,
                                     rng.randrange(1, 1000))
        elif kind == "memory":
            graph.add_memory(rng.choice(names), rng.randrange(0, 4096))
        elif kind == "cpu":
            graph.add_cpu(rng.choice(names), rng.randrange(0, 640) / 64)

    #: Per-epoch context changes: scale the heap, keep the context, or
    #: change only ``elapsed`` (which no selection reads).
    CONTEXTS = ("heap", "same", "elapsed")

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(KINDS), min_size=0, max_size=4),
                st.sampled_from(CONTEXTS),
            ),
            min_size=1, max_size=8,
        ),
        st.integers(0, len(POLICIES) - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_session_matches_legacy_session(self, seed, epochs,
                                            policy_index):
        """Every epoch of a warm session against a cold reference.

        The cache flag is set exactly on reuse epochs whose
        ``context_key`` equals the previous epoch's.
        """
        policy = POLICIES[policy_index]
        graph = ExecutionGraph()
        names = [f"n{i:02d}" for i in range(10)]
        rng = random.Random(seed)
        for name in names:
            graph.add_memory(name, rng.randrange(100, 8192))
            graph.add_cpu(name, rng.randrange(0, 640) / 64)
        for _ in range(18):
            graph.record_interaction(rng.choice(names), rng.choice(names),
                                     rng.randrange(1, 4096))

        session = IncrementalPartitioner(Partitioner(policy))
        pinned = [names[0], names[3]]
        heap_scale = 1
        last_key = None
        for kinds, change in epochs:
            for kind in kinds:
                self._apply(graph, names, kind, rng)
            if change == "heap":
                heap_scale *= 2
            ctx = make_context(graph)
            ctx = replace(
                ctx, heap_capacity=ctx.heap_capacity * heap_scale,
                elapsed=ctx.elapsed + (rng.randrange(1, 100)
                                       if change == "elapsed" else 0),
            )
            reuses = session.stats.reuse_hits
            decision = session.partition(graph, pinned, ctx)
            reused = session.stats.reuse_hits > reuses
            assert decision.policy_cache_hit == (
                reused and context_key(ctx) == last_key)
            last_key = context_key(ctx)
            assert_decisions_match(
                decision, reference_decision(policy, graph, pinned, ctx),
            )

    def test_warm_session_matches_forced_cold_session(self):
        rng = random.Random(7)
        base = ExecutionGraph()
        names = [f"n{i:02d}" for i in range(30)]
        for name in names:
            base.add_memory(name, rng.randrange(100, 8192))
        for _ in range(80):
            base.record_interaction(rng.choice(names), rng.choice(names),
                                    rng.randrange(1, 4096))
        cold_graph = base.copy()
        pinned = [names[0], names[5]]
        policy = MemoryPartitionPolicy(0.20)
        warm = IncrementalPartitioner(Partitioner(policy))
        cold = IncrementalPartitioner(Partitioner(policy), force_cold=True)
        warm_rng, cold_rng = random.Random(11), random.Random(11)
        edge_keys = [key for key, _ in base.edges()]
        for _ in range(15):
            a, b = warm_rng.choice(edge_keys)
            base.record_interaction(a, b, warm_rng.randrange(1, 64))
            a, b = cold_rng.choice(edge_keys)
            cold_graph.record_interaction(a, b, cold_rng.randrange(1, 64))
            ctx = make_context(base)
            assert_decisions_match(warm.partition(base, pinned, ctx),
                                   cold.partition(cold_graph, pinned, ctx))
        assert warm.stats.warm_hits > 0
        assert cold.stats.fallback_forced == cold.stats.cold_runs > 0


class TestFallbackTaxonomy:
    @staticmethod
    def _session(node_count=20, seed=3, policy=None):
        rng = random.Random(seed)
        graph = ExecutionGraph()
        names = [f"n{i:02d}" for i in range(node_count)]
        for name in names:
            graph.add_memory(name, rng.randrange(100, 8192))
        for _ in range(node_count * 3):
            graph.record_interaction(rng.choice(names), rng.choice(names),
                                     rng.randrange(1, 4096))
        session = IncrementalPartitioner(
            Partitioner(policy or MemoryPartitionPolicy(0.20)))
        return graph, names, session

    def test_node_churn_is_counted_and_patches_the_snapshot(self):
        graph, names, session = self._session()
        pinned = [names[0]]
        ctx = make_context(graph)
        session.partition(graph, pinned, ctx)
        snapshot = session._fg
        graph.record_interaction(names[1], "brand-new", 256)
        decision = session.partition(graph, pinned, make_context(graph))
        assert session.stats.fallback_node_churn == 1
        assert session._fg is snapshot
        fresh = Partitioner(MemoryPartitionPolicy(0.20)).partition(
            graph, pinned, make_context(graph))
        assert_decisions_match(decision, fresh)
        # Churn outranks the other reasons: a delta too large to repair
        # (dirty fraction over the warm threshold) is still churn.
        not_ready = session.stats.fallback_not_ready
        for i in range(20):
            graph.record_interaction(names[i], f"late{i:02d}", 64)
        decision = session.partition(graph, pinned, make_context(graph))
        assert session.stats.last_dirty_fraction > session.warm_threshold
        assert session.stats.fallback_node_churn == 2
        assert session.stats.fallback_not_ready == not_ready
        assert session._fg is snapshot
        fresh = Partitioner(MemoryPartitionPolicy(0.20)).partition(
            graph, pinned, make_context(graph))
        assert_decisions_match(decision, fresh)

    def test_budget_exhaustion_falls_back_cold(self, monkeypatch):
        monkeypatch.setattr(flatgraph, "REPAIR_BUDGET_MIN", 0)
        monkeypatch.setattr(flatgraph, "REPAIR_BUDGET_FRACTION", 0.0)
        graph, names, session = self._session()
        pinned = [names[0]]
        session.partition(graph, pinned, make_context(graph))
        rng = random.Random(5)
        edge_keys = [key for key, _ in graph.edges()]
        for _ in range(5):
            a, b = rng.choice(edge_keys)
            graph.record_interaction(a, b, 10_000)
            session.partition(graph, pinned, make_context(graph))
        stats = session.stats
        assert stats.warm_hits == 0
        assert stats.fallback_budget > 0

    def test_not_ready_covers_tiny_chains(self):
        graph = ExecutionGraph()
        graph.add_memory("a", 100)
        graph.add_memory("b", 100)
        graph.record_interaction("a", "b", 32)
        session = IncrementalPartitioner(
            Partitioner(MemoryPartitionPolicy(0.20)))
        ctx = make_context(graph)
        session.partition(graph, ["a"], ctx)  # k == 1: warm never ready
        graph.record_interaction("a", "b", 8)
        session.partition(graph, ["a"], make_context(graph))
        assert session.stats.fallback_not_ready >= 1
        assert session.stats.warm_hits == 0

    def test_external_drain_triggers_recompile_not_staleness(self):
        graph, names, session = self._session()
        pinned = [names[0]]
        session.partition(graph, pinned, make_context(graph))
        # Another consumer drains the dirty set: the session sees an
        # empty delta with a drifted version and must recompile rather
        # than trust the stale snapshot.
        graph.record_interaction(names[1], names[2], 9999)
        graph.drain_dirty()
        decision = session.partition(graph, pinned, make_context(graph))
        fresh = Partitioner(MemoryPartitionPolicy(0.20)).partition(
            graph, pinned, make_context(graph))
        assert_decisions_match(decision, fresh)

    def test_repair_counters_advance_on_warm_hits(self):
        graph, names, session = self._session(node_count=40, seed=9)
        pinned = [names[0], names[7]]
        session.partition(graph, pinned, make_context(graph))
        rng = random.Random(13)
        edge_keys = [key for key, _ in graph.edges()]
        for _ in range(10):
            a, b = rng.choice(edge_keys)
            graph.record_interaction(a, b, rng.randrange(1, 8))
            session.partition(graph, pinned, make_context(graph))
        stats = session.stats
        assert stats.warm_hits > 0
        taxonomy_total = (stats.fallback_not_ready
                          + stats.fallback_node_churn
                          + stats.fallback_seed_change
                          + stats.fallback_shrunk_winner
                          + stats.fallback_budget
                          + stats.fallback_forced)
        assert taxonomy_total <= stats.cold_runs
