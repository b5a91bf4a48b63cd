"""The partitioner's MINCUT kernel over the graph's interned columns.

This is the partitioner's only candidate generator; the string-keyed
reference generator it is tested against lives with the tests
(``tests/core/mincut_oracle.py``).  The graph itself is already flat:
:class:`~repro.core.graph.ExecutionGraph` stores interned node indices,
per-node memory/CPU lists and per-edge endpoint/weight lists, which
both the replay's fold and the monitor write.  A :class:`FlatGraph`
reads those lists in place and adds only what the kernel needs on top:

* the node names' lexicographic rank, kept negated as ``negrank`` (the
  cold kernel's initial keys, copied per call) beside its inverse
  ``r2i``, and re-derived at C speed when nodes are appended;
* a **kernel cache**: per-node rows of ``(neighbor, inc)`` pairs where
  ``inc`` is the edge's packed connectivity increment (below), each
  edge's ``edge_slot`` in the two rows, and ``rowtot`` — the per-node
  sum of its packed increments.

Packed connectivity keys
------------------------

The reference generator orders surrogate nodes by the tuple
``(conn_bytes, conn_count, node_id)`` with ties broken towards the
*largest* id.  Here the whole tuple is packed into one integer::

    key(v) = (conn_bytes * CB + conn_count) * NB + rank(v)

where ``rank(v)`` is the node id's lexicographic rank, ``NB`` is a
power of two above the node count and ``CB`` a power of two above twice
the graph's total interaction count.  Packed keys compare exactly like
the reference tuples (ranks are distinct, so ties never reach doubt), a
relaxation is a single integer add of the edge's pre-packed increment,
and a lazy-deletion heap of plain ints replaces the tuple heap.  The
factor-of-two slack in ``CB`` means interaction counts can keep growing
across epochs without re-deriving every increment; the basis is doubled
(amortised O(1)) only when the total count actually reaches ``CB``.

The selection loop also uses the row-total identity: moving ``v`` with
current packed connectivity ``key`` changes the packed cut by
``rowtot[v] - 2 * (key - key % NB)`` (its client-side edges leave the
cut, the rest join), so the inner loop never touches per-edge cut sums.

Pendant runs
------------

At object granularity most nodes are *pendants*: an array object has
one neighbour, the class that owns it.  Once that neighbour is on the
client side, a pendant's key is final — nothing else can relax it — so
the cold kernel parks it in a sorted ``leaves`` list of negated keys
instead of the heap.  When the best waiting pendant beats the best other
node, every pendant that beats that node moves in one run, best first
(capped so the chain still ends with one never-moved node).  A run
relaxes nobody, and a waiting pendant's row total is exactly its
connectivity, so the cut drops by its edge: the run's columns are
``accumulate`` sums in move order, the same left-to-right float adds as
one move at a time.  The heap holds only relaxed non-pendant nodes
(key >= ``NB``); nodes with no connectivity yet (key == rank) are taken
in descending rank through a pointer into ``r2i`` rather than sifted
through the heap.  A pendant is a node whose row has one entry, read on
each call, so ``sync`` and the kernel cache know nothing of pendants.

Set-up from the seed
--------------------

A cold run starts from the seed, not from all V nodes: the keys are a
C-speed copy of ``negrank``, the heap is heapified from the seed's
relaxed non-pendant neighbours alone, and the pendants that hang off
the seed are parked.  A bytearray indexed by rank marks the nodes the
rank pointer may still take; parking a pendant clears its mark, so
the pointer skips parked (and later moved) pendants with one
``rfind`` instead of stepping over them, and steps one at a time only
past seeds and nodes the heap relaxed or took.

Bounded local repair
--------------------

A warm start does not abandon the whole move log on a shrinking edge or
a greedy order flip; it *repairs* the log.  A single sweep replays the
previous order while exactly tracking the packed connectivity of the
**perturbed set** — endpoints of changed edges, plus (lazily) every
neighbor of a node that moves out of its old position.  At each step
the recorded winner is compared against the best tracked competitor; a
flip splices the overtaking node into the order and promotes its
untouched neighbors into the tracked set (their old recorded values can
no longer be trusted relative to the displaced segment).  Untracked
nodes keep exactly their recorded connectivities — every node whose
connectivity could have changed is tracked by construction — so the
sweep emits the same order and statistics a cold run would.  The sweep
falls back cold only when

* a recorded winner's connectivity *shrank* below its recorded value
  (untracked dominance can no longer be certified cheaply),
* the repair region exceeds its budget (total promoted adjacency over
  ``REPAIR_BUDGET_FRACTION`` of the half-edge count),
* nodes were appended since the recorded run (it has no position for
  them; the cold rerun re-records at the new size), or
* the seed changed.

Recording a run for repair costs O(1): :class:`FlatWarmState` keeps
the order, the selections and the node count, and derives the
per-node positions only when they are read.  Repair needs only the
seed's membership, which it marks from the seed itself.

Each fallback is reported with a reason so the session can expose a
fallback taxonomy in its :class:`~repro.core.partitioner.ReevalStats`.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import neg, sub
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple,
)
from weakref import WeakKeyDictionary

from ..errors import PartitioningError
from .graph import ExecutionGraph, GraphDelta

#: Repair gives up (and the session falls back cold) once the adjacency
#: it has re-examined exceeds this fraction of the half-edge count...
REPAIR_BUDGET_FRACTION = 0.25
#: ...but never for less than this much absolute work, so tiny graphs
#: are always repairable end to end.
REPAIR_BUDGET_MIN = 512

# Cold-fallback taxonomy reasons (ReevalStats counts one per cold epoch).
COLD_NOT_READY = "not-ready"
COLD_NODE_CHURN = "node-churn"
COLD_SEED_CHANGE = "seed-change"
COLD_SHRUNK_WINNER = "shrunk-winner"
COLD_BUDGET = "budget"
COLD_FORCED = "forced"


def _pow2_at_least(value: int) -> int:
    """Smallest power of two >= ``value`` (and >= 2)."""
    return 1 << max(1, (value - 1).bit_length())


class _MoveLog:
    """Shared move history behind one chain of lazy candidates.

    ``seed`` is the initial client partition; ``order`` lists every
    initially-surrogate node in the order it was moved to the client,
    with the never-moved remainder appended at the end.  Candidate ``i``
    of the chain is then ``client = seed | order[:i]``,
    ``surrogate = order[i:]`` — O(V) storage for the whole chain instead
    of O(V^2) worth of per-candidate frozensets.
    """

    __slots__ = ("seed", "order")

    def __init__(self, seed: FrozenSet[str]) -> None:
        self.seed = seed
        self.order: List[str] = []


class CandidatePartition:
    """One intermediate partitioning produced by the heuristic.

    ``client_nodes`` stay on the device; ``surrogate_nodes`` would be
    offloaded.  The cut statistics are the historical interactions that
    would become remote under this placement.

    Node sets of candidates a :class:`FlatChain` hands out are
    materialised lazily on first access (most candidates are only ever
    judged by their scalar cut statistics); explicitly constructed
    instances behave like the plain record they always were.
    """

    __slots__ = (
        "cut_count",
        "cut_bytes",
        "surrogate_memory",
        "surrogate_cpu",
        "client_cpu",
        "_client_nodes",
        "_surrogate_nodes",
        "_log",
        "_moves_applied",
    )

    def __init__(
        self,
        client_nodes: Iterable[str],
        surrogate_nodes: Iterable[str],
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> None:
        self._client_nodes: Optional[FrozenSet[str]] = frozenset(client_nodes)
        self._surrogate_nodes: Optional[FrozenSet[str]] = frozenset(
            surrogate_nodes
        )
        self._log: Optional[_MoveLog] = None
        self._moves_applied = 0
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu

    @classmethod
    def _deferred(
        cls,
        log: _MoveLog,
        moves_applied: int,
        cut_count: int,
        cut_bytes: int,
        surrogate_memory: int,
        surrogate_cpu: float,
        client_cpu: float,
    ) -> "CandidatePartition":
        self = cls.__new__(cls)
        self._client_nodes = None
        self._surrogate_nodes = None
        self._log = log
        self._moves_applied = moves_applied
        self.cut_count = cut_count
        self.cut_bytes = cut_bytes
        self.surrogate_memory = surrogate_memory
        self.surrogate_cpu = surrogate_cpu
        self.client_cpu = client_cpu
        return self

    @property
    def client_nodes(self) -> FrozenSet[str]:
        nodes = self._client_nodes
        if nodes is None:
            log = self._log
            nodes = log.seed.union(log.order[: self._moves_applied])
            self._client_nodes = nodes
        return nodes

    @property
    def surrogate_nodes(self) -> FrozenSet[str]:
        nodes = self._surrogate_nodes
        if nodes is None:
            nodes = frozenset(self._log.order[self._moves_applied:])
            self._surrogate_nodes = nodes
        return nodes

    def _fields(self) -> tuple:
        return (
            self.client_nodes,
            self.surrogate_nodes,
            self.cut_count,
            self.cut_bytes,
            self.surrogate_memory,
            self.surrogate_cpu,
            self.client_cpu,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidatePartition):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            "CandidatePartition("
            f"client_nodes={set(self.client_nodes)!r}, "
            f"surrogate_nodes={set(self.surrogate_nodes)!r}, "
            f"cut_count={self.cut_count}, cut_bytes={self.cut_bytes}, "
            f"surrogate_memory={self.surrogate_memory}, "
            f"surrogate_cpu={self.surrogate_cpu}, "
            f"client_cpu={self.client_cpu})"
        )


class FlatDelta(NamedTuple):
    """One epoch's edge changes, as the warm repair reads them.

    ``edge_changes`` holds ``(a_idx, b_idx, dbytes, dcount)`` per changed
    (or newly appeared) edge.  ``rebased`` is True when the packed-key
    basis grew — the count field doubled or appended nodes widened the
    rank field — so recorded packed selections must be re-encoded
    before reuse.
    """

    edge_changes: List[Tuple[int, int, int, int]]
    rebased: bool


class FlatWarmState:
    """Index-space outcome of one candidate-generation run.

    What :meth:`FlatGraph.repair_chain` needs to warm-start the next
    epoch: everything is keyed by interned node index, and selections
    are stored as packed keys (with the basis they were packed under,
    so a basis doubling can re-encode them in O(k)).  Recording a run
    costs O(1): the node positions are derived from the order only when
    :attr:`pos` is read, and appended nodes are detected from ``n``.
    """

    __slots__ = (
        "ready",
        "seed_key",
        "n",
        "order",
        "_pos",
        "sel_packed",
        "cb",
        "nb",
        "cut_bytes0",
        "cut_count0",
    )

    def __init__(self) -> None:
        self.ready = False
        self.seed_key: FrozenSet[str] = frozenset()
        #: Node count of the recorded run (set even when there was
        #: nothing to record), so a larger snapshot means appended nodes.
        self.n = 0
        #: Move order over node indices; ``order[j]`` joined the client
        #: at candidate index ``j + 1`` (the final entry never moved).
        self.order: List[int] = []
        self._pos: Optional[List[int]] = None
        #: Packed connectivity of the selection at each of the
        #: ``len(order) - 1`` steps, under the (cb, nb) basis below.
        self.sel_packed: List[int] = []
        self.cb = 0
        self.nb = 0
        # Candidate-0 cut statistics (the seed cut).  Repair patches
        # these with the delta's seed-crossing edges and rebuilds every
        # later candidate from scratch, so the full statistics columns
        # need not be retained here.
        self.cut_bytes0 = 0
        self.cut_count0 = 0

    @property
    def pos(self) -> List[int]:
        """idx -> candidate index from which the node is client-side
        (0 for seed members, ``len(order)`` for the never-moved tail),
        built from ``order`` on first read."""
        pos = self._pos
        if pos is None:
            pos = [0] * self.n
            for j, v in enumerate(self.order, 1):
                pos[v] = j
            self._pos = pos
        return pos


class FlatChain:
    """One candidate chain in columnar form.

    The generation kernels record three raw accumulators per candidate:
    the packed cut, the client memory and the client CPU.  The five
    per-candidate statistics columns are decoded from them lazily, one
    cached property each, so a policy that scans only memory and cut
    bytes never pays for decoding CPU or cut-count columns.  ``cb`` and
    ``nb`` are powers of two and a cut's rank field is zero, so a packed
    cut decodes by a shift (its bytes) and a shift and mask (its count).

    The packed basis (``cb``, ``nb``) and resource totals are captured
    at construction: a later ``sync`` may rebasis or retotal the parent
    graph, and a deferred decode must still use the values the raw
    arrays were packed under.

    The chain also keeps the seed and the move order (as interned
    indices).  Candidate objects — with their O(V) frozenset node sets
    — are only materialised on demand, through the same
    shared-:class:`_MoveLog` lazy mechanism the reference generator
    uses, so a chain whose winner is picked by a policy scan
    materialises exactly one candidate.
    """

    __slots__ = (
        "fg",
        "seed",
        "order",
        "k",
        "_log",
        "_raw_cut",
        "_raw_cmem",
        "_ccpus",
        "_byte_shift",
        "_count_shift",
        "_count_mask",
        "_total_mem",
        "_total_cpu",
        "_cut_bytes",
        "_cut_count",
        "_smem",
        "_scpu",
    )

    def __init__(
        self,
        fg: "FlatGraph",
        seed: FrozenSet[str],
        order: List[int],
        raw_cut: List[int],
        raw_cmem: List[int],
        ccpus: List[float],
        cb: int,
        nb: int,
        total_mem: int,
        total_cpu: float,
    ) -> None:
        self.fg = fg
        self.seed = seed
        self.order = order
        self.k = len(raw_cut)
        self._log: Optional[_MoveLog] = None
        self._raw_cut = raw_cut
        self._raw_cmem = raw_cmem
        self._ccpus = ccpus
        self._byte_shift = (cb * nb).bit_length() - 1
        self._count_shift = nb.bit_length() - 1
        self._count_mask = cb - 1
        self._total_mem = total_mem
        self._total_cpu = total_cpu
        self._cut_bytes: Optional[List[int]] = None
        self._cut_count: Optional[List[int]] = None
        self._smem: Optional[List[int]] = None
        self._scpu: Optional[List[float]] = None

    @property
    def cut_bytes(self) -> List[int]:
        col = self._cut_bytes
        if col is None:
            shift = self._byte_shift
            col = [c >> shift for c in self._raw_cut]
            self._cut_bytes = col
        return col

    @property
    def cut_count(self) -> List[int]:
        col = self._cut_count
        if col is None:
            shift = self._count_shift
            mask = self._count_mask
            col = [(c >> shift) & mask for c in self._raw_cut]
            self._cut_count = col
        return col

    @property
    def surrogate_memory(self) -> List[int]:
        col = self._smem
        if col is None:
            total_mem = self._total_mem
            col = [total_mem - m for m in self._raw_cmem]
            self._smem = col
        return col

    @property
    def surrogate_cpu(self) -> List[float]:
        col = self._scpu
        if col is None:
            total_cpu = self._total_cpu
            col = [total_cpu - c for c in self._ccpus]
            self._scpu = col
        return col

    @property
    def client_cpu(self) -> List[float]:
        return self._ccpus

    def statistics(self, index: int) -> Tuple[int, int, int, float, float]:
        """Candidate ``index``'s ``(cut_bytes, cut_count,
        surrogate_memory, surrogate_cpu, client_cpu)``, decoded alone
        by the column properties' expressions (so bit-identical)."""
        raw = self._raw_cut[index]
        ccpu = self._ccpus[index]
        return (
            raw >> self._byte_shift,
            (raw >> self._count_shift) & self._count_mask,
            self._total_mem - self._raw_cmem[index],
            self._total_cpu - ccpu,
            ccpu,
        )

    def _move_log(self) -> _MoveLog:
        log = self._log
        if log is None:
            log = _MoveLog(self.seed)
            log.order = list(map(self.fg.names.__getitem__, self.order))
            self._log = log
        return log

    def candidate(self, index: int) -> CandidatePartition:
        """Materialise one candidate (index ``i``: client = seed + i moves)."""
        # Picking one winner must not force whole-column decoding.
        cut_bytes, cut_count, smem, scpu, ccpu = self.statistics(index)
        return CandidatePartition._deferred(
            log=self._move_log(),
            moves_applied=index,
            cut_count=cut_count,
            cut_bytes=cut_bytes,
            surrogate_memory=smem,
            surrogate_cpu=scpu,
            client_cpu=ccpu,
        )

    def candidates(self) -> List[CandidatePartition]:
        """Every candidate, each materialised through :meth:`candidate`."""
        return [self.candidate(index) for index in range(self.k)]


class FlatGraph:
    """The partitioner's kernel cache over an :class:`ExecutionGraph`'s
    columns.

    The graph's interned columns (names, per-node memory and CPU,
    per-edge endpoints and weights) are read in place: the snapshot
    holds references to the graph's lists, never a copy, and covers
    the first ``n`` nodes and ``m`` edges.  What it adds is derived:
    the lexicographic ``negrank``/``r2i``, the packed ``rows`` with their
    ``edge_slot`` back-pointers, ``rowtot`` and the packing basis
    ``cb``/``nb``.  Compile once, then feed each epoch's
    :class:`GraphDelta` through :meth:`sync`, which patches the packed
    rows of the dirty edges in O(dirty) and appends rows for new nodes
    and edges (bisecting the new names into the ranking and re-reading
    the old ranks at C speed when nodes appeared).
    Only a delta the snapshot cannot explain forces a recompile.
    """

    __slots__ = (
        "names",
        "idx",
        "n",
        "m",
        "_rank",
        "negrank",
        "r2i",
        "_ranked_names",
        "node_mem",
        "node_cpu",
        "edge_a",
        "edge_b",
        "edge_nbytes",
        "edge_ncount",
        "edge_slot",
        "rows",
        "rowtot",
        "cb",
        "nb",
        "cbnb",
        "total_count",
        "total_mem",
        "half_edges",
        "synced_version",
        "_indptr",
        "_adj",
        "_eidx",
        "_csr_stale",
    )

    # -- compilation --------------------------------------------------------

    @classmethod
    def try_compile(cls, graph: ExecutionGraph) -> "FlatGraph":
        """Build the kernel cache over ``graph``'s columns.

        Every graph compiles: ``ExecutionGraph.record_interaction``
        refuses to leave an edge weight negative, which keeps the
        packed-key sign convention sound.
        """
        self = cls.__new__(cls)
        self.names = graph.names
        self.idx = graph.index
        self.node_mem = graph.node_mem
        self.node_cpu = graph.node_cpu
        self.edge_a = graph.edge_a
        self.edge_b = graph.edge_b
        self.edge_nbytes = graph.edge_nbytes
        self.edge_ncount = graph.edge_ncount
        self.n = n = len(graph.names)
        self.m = len(graph.edge_a)
        self._rank_names()
        self.total_count = sum(graph.edge_ncount)
        self.total_mem = sum(graph.node_mem)
        self.half_edges = 2 * self.m
        self.nb = _pow2_at_least(max(2, n))
        self.cb = _pow2_at_least(2 * (self.total_count + 1))
        self.cbnb = self.cb * self.nb
        self._build_rows()
        self._csr_stale = True
        self._indptr = self._adj = self._eidx = None
        self.synced_version = graph.version
        return self

    def _build_rows(self) -> None:
        """(Re)derive the kernel cache: packed rows, slots, row totals."""
        cb = self.cb
        nb = self.nb
        # Row entries are (neighbor, inc) tuples: CPython specialises
        # two-tuple unpacking in the kernel's hottest loop, and sync
        # patches a weight by replacing the whole tuple through its slot.
        rows: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        edge_slot: List[Tuple[int, int]] = []
        rowtot = [0] * self.n
        for a, b, nbytes, count in zip(self.edge_a, self.edge_b,
                                       self.edge_nbytes, self.edge_ncount):
            inc = (nbytes * cb + count) * nb
            edge_slot.append((len(rows[a]), len(rows[b])))
            rows[a].append((b, inc))
            rows[b].append((a, inc))
            rowtot[a] += inc
            rowtot[b] += inc
        self.rows = rows
        self.edge_slot = edge_slot
        self.rowtot = rowtot

    def csr(self) -> Tuple[array, array, array]:
        """Canonical CSR arrays ``(indptr, adj, eidx)`` (built lazily)."""
        if self._csr_stale:
            indptr = array("q", [0] * (self.n + 1))
            total = 0
            for i in range(self.n):
                total += len(self.rows[i])
                indptr[i + 1] = total
            adj = array("q", bytes(8 * total))
            eidx = array("q", bytes(8 * total))
            cursor = list(indptr[:-1])
            for e in range(self.m):
                a = self.edge_a[e]
                b = self.edge_b[e]
                adj[cursor[a]] = b
                eidx[cursor[a]] = e
                cursor[a] += 1
                adj[cursor[b]] = a
                eidx[cursor[b]] = e
                cursor[b] += 1
            self._indptr = indptr
            self._adj = adj
            self._eidx = eidx
            self._csr_stale = False
        return self._indptr, self._adj, self._eidx

    # -- epoch sync ---------------------------------------------------------

    def sync(
        self, graph: ExecutionGraph, delta: GraphDelta
    ) -> Optional[FlatDelta]:
        """Bring the cache up to one epoch's delta; None => recompile.

        The graph's columns already hold the current weights; the delta
        names the edges whose packed rows are stale.  An edge's previous
        weights are decoded from its packed increment, so no copy of the
        columns is kept.  Nodes and edges past ``n``/``m`` get rows (the
        graph never removes either, so indices only grow).  Returns None
        when ``graph`` is not the graph this cache was compiled over, or
        when a node or edge appended since the last sync is missing from
        the delta (a sign it did not cover every mutation).
        """
        if graph.names is not self.names:
            return None
        rows = self.rows
        n = len(self.names)
        if n > self.n:
            dirty = delta.nodes
            for i in range(self.n, n):
                if i not in dirty:
                    return None
        m = len(self.edge_a)
        if m > self.m:
            dirty = delta.edges
            for e in range(self.m, m):
                if e not in dirty:
                    return None
        edge_a = self.edge_a
        edge_b = self.edge_b
        if n > self.n:
            rows.extend([] for _ in range(n - self.n))
            self.rowtot.extend([0] * (n - self.n))
            appended = self.n
            self.n = n
            self._rank_names(appended)
            self._csr_stale = True
        if m > self.m:
            edge_slot = self.edge_slot
            for e in range(self.m, m):
                a = edge_a[e]
                b = edge_b[e]
                edge_slot.append((len(rows[a]), len(rows[b])))
                rows[a].append((b, 0))
                rows[b].append((a, 0))
            self.half_edges += 2 * (m - self.m)
            self.m = m
            self._csr_stale = True
        # Previous weights, decoded under the basis the rows carry.
        cb = self.cb
        nb = self.nb
        edge_slot = self.edge_slot
        edge_nbytes = self.edge_nbytes
        edge_ncount = self.edge_ncount
        edge_changes: List[Tuple[int, int, int, int]] = []
        changed: List[int] = []
        total_count = self.total_count
        for e in delta.edges:
            a = edge_a[e]
            old_bytes, old_count = divmod(rows[a][edge_slot[e][0]][1] // nb,
                                          cb)
            dbytes = edge_nbytes[e] - old_bytes
            dcount = edge_ncount[e] - old_count
            if dbytes or dcount:
                total_count += dcount
                edge_changes.append((a, edge_b[e], dbytes, dcount))
                changed.append(e)
        self.total_count = total_count
        self.total_mem = sum(self.node_mem)
        # A node count past the rank field's power of two widens ``nb``,
        # and counts past ``cb`` double it (amortised O(1) per epoch):
        # either moves every packed increment, so the rows are rebuilt.
        self.nb = _pow2_at_least(n)
        rebased = self.nb != nb
        if total_count >= cb:
            self.cb = _pow2_at_least(2 * (total_count + 1))
            rebased = True
        if rebased:
            self.cbnb = self.cb * self.nb
            self._build_rows()
        else:
            rowtot = self.rowtot
            for e in changed:
                inc = (edge_nbytes[e] * cb + edge_ncount[e]) * nb
                a = edge_a[e]
                b = edge_b[e]
                slot_a, slot_b = edge_slot[e]
                dinc = inc - rows[a][slot_a][1]
                rows[a][slot_a] = (b, inc)
                rows[b][slot_b] = (a, inc)
                rowtot[a] += dinc
                rowtot[b] += dinc
        self.synced_version = graph.version
        return FlatDelta(edge_changes, rebased)

    def _rank_names(self, appended: int = 0) -> None:
        """Lexicographic interning rank: packed keys tie-break exactly
        like the reference (bytes, count, node-id) max selection.

        ``r2i`` lists node indices in name order and ``_ranked_names``
        the names themselves; ``negrank`` is the negated inverse, the
        cold kernel's initial keys.  Node names are append-only and
        distinct, so after a sync only the nodes from index
        ``appended`` on are sorted and bisected into place, and the
        old nodes' new ranks are read through a table in one C-speed
        ``map``: no per-node Python loop.
        """
        names = self.names
        n = self.n
        fresh = sorted(range(appended, n), key=names.__getitem__)
        self._rank = None
        if not appended:
            self.r2i = fresh
            self._ranked_names = list(map(names.__getitem__, fresh))
            negrank = [0] * n
            for r, i in enumerate(fresh):
                negrank[i] = -r
            self.negrank = negrank
            return
        old_names = self._ranked_names
        old_r2i = self.r2i
        ranked: List[str] = []
        r2i: List[int] = []
        # moved[r]: the negated final rank of old rank r.
        moved: List[int] = []
        new_ranks: List[int] = []
        start = 0
        for i in fresh:
            name = names[i]
            at = bisect_left(old_names, name, start)
            ranked += old_names[start:at]
            r2i += old_r2i[start:at]
            shift = len(new_ranks)
            moved.extend(range(-start - shift, -at - shift, -1))
            new_ranks.append(at + shift)
            ranked.append(name)
            r2i.append(i)
            start = at
        ranked += old_names[start:]
        r2i += old_r2i[start:]
        moved.extend(range(-start - len(new_ranks), -n, -1))
        # Old node i holds -r in ``negrank``, and a list read at -r
        # reads its entry r from the end: reversed, behind entry 0.
        table = moved[:1] + moved[:0:-1]
        negrank = list(map(table.__getitem__, self.negrank))
        tail = [0] * (n - appended)
        for i, r in zip(fresh, new_ranks):
            tail[i - appended] = -r
        negrank += tail
        self.negrank = negrank
        self.r2i = r2i
        self._ranked_names = ranked

    @property
    def rank(self) -> List[int]:
        """Each node's lexicographic rank (derived from ``negrank`` on
        first read after a re-rank; the kernels read ``negrank``)."""
        rank = self._rank
        if rank is None:
            rank = self._rank = list(map(neg, self.negrank))
        return rank

    # -- cut / connectivity queries ----------------------------------------

    def cut(self, client: Iterable[int]) -> Tuple[int, int]:
        """Interaction ``(count, bytes)`` crossing an index partition."""
        inside = bytearray(self.n)
        for i in client:
            inside[i] = 1
        count = 0
        nbytes = 0
        for e in range(self.m):
            if inside[self.edge_a[e]] != inside[self.edge_b[e]]:
                count += self.edge_ncount[e]
                nbytes += self.edge_nbytes[e]
        return count, nbytes

    def connectivity(self, node: int, group: Iterable[int]) -> int:
        """Total edge bytes between ``node`` and the index ``group``."""
        members = set(group)
        cbnb = self.cbnb
        total = 0
        for w, inc in self.rows[node]:
            if w in members:
                total += inc // cbnb
        return total

    # -- cold candidate generation -----------------------------------------

    def _seed_set(self, pinned: Iterable[str]) -> set:
        """The reference generator's seed rule on the interned snapshot."""
        idx = self.idx
        seed = {name for name in pinned if name in idx}
        if seed:
            return seed
        if not self.n:
            raise PartitioningError(
                "cannot partition an empty execution graph"
            )
        names = self.names
        cbnb = self.cbnb
        rowtot = self.rowtot
        # rowtot[i] // cbnb is exactly the node's total edge bytes (the
        # count and rank fields cannot carry into the byte field).
        best = max(range(self.n),
                   key=lambda i: (rowtot[i] // cbnb, names[i]))
        return {names[best]}

    def generate_chain(
        self, pinned: Iterable[str],
        warm: Optional[FlatWarmState] = None,
    ) -> FlatChain:
        """Cold run of the MINCUT heuristic on packed integer keys.

        Emits bit-identical candidates to the reference generator: same
        move order, same integer cut/memory statistics, and the same
        float accumulation order for the CPU columns (the seed sums are
        taken in the same set-iteration order the reference uses).
        Pendants move in runs (see "Pendant runs" in the module
        docstring); the reference moves them one at a time.
        """
        seed_set = self._seed_set(pinned)
        n = self.n
        idx = self.idx
        seed_idx = [idx[name] for name in seed_set]
        k = n - len(seed_idx)
        node_mem = self.node_mem
        node_cpu = self.node_cpu
        client_mem = sum(node_mem[i] for i in seed_idx)
        client_cpu = sum(node_cpu[i] for i in seed_idx)
        total_mem = self.total_mem
        total_cpu = sum(node_cpu)
        seed_key = frozenset(seed_set)
        if warm is not None:
            warm.ready = False
            warm.seed_key = seed_key
            # Sized to this run even when there is nothing to record, so
            # a smaller ``n`` always means nodes appended since.
            warm.n = n
            warm.order = []
            warm._pos = None
            warm.sel_packed = []
        if k == 0:
            return FlatChain(self, seed_key, [], [], [], [],
                             self.cb, self.nb, total_mem, total_cpu)
        nb = self.nb
        cb = self.cb
        rows = self.rows
        rowtot = self.rowtot
        r2i = self.r2i
        record = warm is not None
        # ``cur`` holds the *negated* packed connectivity of each
        # surrogate (<= 0) so relaxations push heap entries without a
        # per-push negation; ``client`` marks a client-side node and
        # ``waiting`` a parked pendant (no surrogate value is positive,
        # so neither sentinel can collide).  Every node starts with no
        # connectivity: a C-speed copy of the cached negated ranks.
        client = 1
        waiting = 2
        cur = self.negrank[:]
        for s in seed_idx:
            cur[s] = client
        # A pendant's key is final once its one neighbour is client-side:
        # it waits in ``leaves`` (negated keys, sorted, best first)
        # rather than in the heap.  ``free`` marks by rank the nodes the
        # rank pointer may still take; parking a pendant clears its mark.
        leaves: List[int] = []
        park = leaves.append
        free = bytearray(b"\x01") * n
        # The heap holds only relaxed non-pendant nodes (key >= nb), so
        # it starts as the seed's relaxations; a node next to two seeds
        # leaves one stale entry, which lazy deletion skips.
        heap: List[int] = []
        cut_pk = 0
        for s in seed_idx:
            for w, inc in rows[s]:
                pk = cur[w]
                if pk <= 0:
                    cut_pk += inc
                    if len(rows[w]) == 1:
                        cur[w] = waiting
                        free[-pk] = 0
                        park(pk - inc)
                    elif inc:
                        pk -= inc
                        cur[w] = pk
                        heap.append(pk)
        leaves.sort()
        # Nodes with no connectivity yet (key == rank) are taken in
        # descending rank through the pointer ``rp`` into ``r2i``.
        heapify = heapq.heapify
        heapify(heap)
        rp = n - 1
        order = [0] * k
        # Only raw accumulators are recorded inside the hot loop; the
        # statistics columns are decoded lazily by FlatChain, and only
        # the ones a policy actually scans.
        raw_cut = [0] * k
        raw_cmem = [0] * k
        ccpus = [0.0] * k
        sel_packed: List[int] = [0] * (k - 1) if record else []
        raw_cut[0] = cut_pk
        raw_cmem[0] = client_mem
        ccpus[0] = client_cpu
        heappop = heapq.heappop
        heappush = heapq.heappush
        # Lazy deletion lets stale entries pile up (every relaxation
        # pushes afresh); once the heap outgrows the live surrogate
        # population by 4x, rebuilding it from ``cur`` in one C-speed
        # heapify is cheaper than sifting pops through the dead weight.
        compact_at = 4 * len(heap) + 64
        unsorted = False
        step = 0
        last = k - 1
        while step < last:
            if len(heap) > compact_at:
                heap = [c for c in cur if c <= -nb]
                heapify(heap)
                compact_at = 4 * len(heap) + 64
            # The best non-pendant node: the heap's top, else the
            # highest-ranked node with no connectivity, else none
            # (every remaining node is a waiting pendant).
            while heap:
                negpk = heappop(heap)
                rk = -negpk % nb
                v = r2i[rk]
                if cur[v] == negpk:
                    break
            else:
                if len(leaves) > last - step:
                    # Only waiting pendants remain; every one of them
                    # outranks this sentinel.
                    negpk = client
                else:
                    # Parked pendants are skipped at C speed; a moved or
                    # relaxed node fails the check and is stepped past.
                    rp = free.rfind(1, 0, rp + 1)
                    while cur[r2i[rp]] != -rp:
                        rp = free.rfind(1, 0, rp)
                    v = r2i[rp]
                    negpk = -rp
                    rk = rp
            if leaves:
                if unsorted:
                    leaves.sort()
                    unsorted = False
                if leaves[0] < negpk:
                    # A pendant run: every waiting pendant that beats
                    # the best other node moves now, best first.  None
                    # relaxes anybody, and each one's row total is its
                    # connectivity, so the cut drops by its edge.
                    end = min(bisect_left(leaves, negpk), last - step)
                    run = leaves[:end]
                    del leaves[:end]
                    end += step
                    movers = [r2i[-q % nb] for q in run]
                    order[step:end] = movers
                    if record:
                        sel_packed[step:end] = [-q for q in run]
                    # Same left-to-right sums as one move at a time, so
                    # the float column stays bit-identical.
                    raw_cut[step:end + 1] = accumulate(
                        [rowtot[u] for u in movers], sub, initial=cut_pk)
                    raw_cmem[step:end + 1] = accumulate(
                        [node_mem[u] for u in movers], initial=client_mem)
                    ccpus[step:end + 1] = accumulate(
                        [node_cpu[u] for u in movers], initial=client_cpu)
                    step = end
                    cut_pk = raw_cut[step]
                    client_mem = raw_cmem[step]
                    client_cpu = ccpus[step]
                    if step == last:
                        break
            cur[v] = client
            packed = -negpk
            if record:
                sel_packed[step] = packed
            client_mem += node_mem[v]
            client_cpu += node_cpu[v]
            cut_pk += rowtot[v] - 2 * (packed - rk)
            for w, inc in rows[v]:
                pk = cur[w]
                if pk <= 0:
                    if len(rows[w]) == 1:
                        # Its only neighbour is client-side now: the
                        # pendant's key is final.
                        cur[w] = waiting
                        free[-pk] = 0
                        park(pk - inc)
                        unsorted = True
                    elif inc:
                        # (A zero-weight edge changes no key: a node
                        # with no connectivity stays the pointer's.)
                        pk -= inc
                        cur[w] = pk
                        heappush(heap, pk)
            order[step] = v
            step += 1
            raw_cut[step] = cut_pk
            raw_cmem[step] = client_mem
            ccpus[step] = client_cpu
        # The never-moved remainder closes the order (exactly one node):
        # a waiting pendant, else the one index neither seeded nor moved.
        if leaves:
            order[last] = r2i[-leaves[0] % nb]
        else:
            order[last] = (n * (n - 1) // 2 - sum(seed_idx)
                           - sum(order[:last]))
        chain = FlatChain(self, seed_key, order, raw_cut, raw_cmem,
                          ccpus, cb, nb, total_mem, total_cpu)
        if record:
            self._commit_warm(warm, chain, sel_packed)
        return chain

    def _commit_warm(
        self, warm: FlatWarmState, chain: FlatChain,
        sel_packed: List[int],
    ) -> None:
        """Record ``chain`` for the next repair in O(1): positions are
        derived only if :attr:`FlatWarmState.pos` is read."""
        warm.seed_key = chain.seed
        warm.n = self.n
        warm.order = chain.order
        warm._pos = None
        warm.sel_packed = sel_packed
        warm.cb = self.cb
        warm.nb = self.nb
        # Repair only ever reads the candidate-0 cut; decode just that
        # element rather than forcing the chain's full columns.
        warm.cut_bytes0, warm.cut_count0 = chain.statistics(0)[:2]
        warm.ready = chain.k >= 2

    # -- bounded local repair ----------------------------------------------

    def repair_chain(
        self,
        warm: FlatWarmState,
        fdelta: FlatDelta,
        pinned: Iterable[str],
    ) -> Tuple[Optional[FlatChain], Optional[str], int, int]:
        """Replay + repair the previous move order against the delta.

        Returns ``(chain, fail_reason, splices, promotions)``; ``chain``
        is None exactly when ``fail_reason`` names the cold-fallback
        cause.  See the module docstring for the algorithm; the key
        invariant is that any node whose connectivity timeline can
        differ from the recorded run is in the exactly-tracked set, so
        untracked hypothesis winners can reuse their recorded packed
        selections verbatim.
        """
        if warm.n != self.n:
            # Nodes were appended since the recorded run: it has no
            # position for them, so the session reruns cold (and the
            # cold run re-records the warm state at the new size).
            return None, COLD_NODE_CHURN, 0, 0
        k = len(warm.order)
        if not warm.ready or k < 2:
            return None, COLD_NOT_READY, 0, 0
        idx = self.idx
        # Same seeding rule as the cold path, most-connected fallback
        # included — a delta can legitimately move that fallback seed,
        # which is a real seed change and repairs cannot survive it.
        seed_set = self._seed_set(pinned)
        if frozenset(seed_set) != warm.seed_key:
            return None, COLD_SEED_CHANGE, 0, 0
        cb = self.cb
        nb = self.nb
        if warm.cb != cb or warm.nb != nb:
            # The packed basis moved under the recorded selections:
            # re-encode them (O(k)) before comparing anything.
            ocb, onb = warm.cb, warm.nb
            ocbnb = ocb * onb
            warm.sel_packed = [
                ((p // ocbnb) * cb + (p // onb) % ocb) * nb + p % onb
                for p in warm.sel_packed
            ]
            warm.cb = cb
            warm.nb = nb
        old_order = warm.order
        osel = warm.sel_packed
        negrank = self.negrank
        r2i = self.r2i
        rows = self.rows
        rowtot = self.rowtot
        node_mem = self.node_mem
        node_cpu = self.node_cpu

        seed_idx = [idx[name] for name in seed_set]
        onclient = bytearray(self.n)
        for s in seed_idx:
            onclient[s] = 1
        # Candidate-0 baseline: patch the recorded seed cut with the
        # deltas of seed-crossing edges; memory/CPU come fresh from the
        # columns (same accumulation order as the cold kernel, so a
        # repaired chain is bit-identical to a cold rerun).
        cut_b0 = warm.cut_bytes0
        cut_c0 = warm.cut_count0
        for a, b, dbytes, dcount in fdelta.edge_changes:
            if onclient[a] != onclient[b]:
                cut_b0 += dbytes
                cut_c0 += dcount
        client_mem = sum(node_mem[i] for i in seed_idx)
        client_cpu = sum(node_cpu[i] for i in seed_idx)
        total_mem = self.total_mem
        total_cpu = sum(node_cpu)

        budget = max(REPAIR_BUDGET_MIN,
                     int(self.half_edges * REPAIR_BUDGET_FRACTION))
        work = 0
        # Exactly-tracked packed connectivities: endpoints of changed
        # edges now, neighbors of out-of-order movers as they appear.
        tracked: Dict[int, int] = {}
        for a, b, _, _ in fdelta.edge_changes:
            for v in (a, b):
                if not onclient[v] and v not in tracked:
                    row = rows[v]
                    work += len(row)
                    if work > budget:
                        # Known before the row is read: bail now.
                        return None, COLD_BUDGET, 0, 0
                    val = -negrank[v]
                    for w, inc in row:
                        if onclient[w]:
                            val += inc
                    tracked[v] = val
        # touch: future mover -> [(tracked node, packed inc)] updates.
        touch: Dict[int, List[Tuple[int, int]]] = {}
        for v in tracked:
            for w, inc in rows[v]:
                if not onclient[w]:
                    touch.setdefault(w, []).append((v, inc))
        heap = [-val for val in tracked.values()]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush

        order_new = [0] * k
        # Raw accumulators in the loop, lazy column decode in
        # FlatChain — same deferral as the cold kernel.
        raw_cut = [0] * k
        raw_cmem = [0] * k
        ccpus = [0.0] * k
        sel_new = [0] * (k - 1)
        cut_pk = (cut_b0 * cb + cut_c0) * nb
        raw_cut[0] = cut_pk
        raw_cmem[0] = client_mem
        ccpus[0] = client_cpu
        splices = 0
        promotions = 0
        optr = 0
        for step in range(k - 1):
            while onclient[old_order[optr]]:
                optr += 1
            w = old_order[optr]
            recorded = osel[optr] if w not in tracked else None
            if recorded is None:
                wv = tracked[w]
                if wv < osel[optr]:
                    # The recorded winner shrank: untracked nodes below
                    # its *recorded* value might now beat it, and their
                    # current connectivities are unknown.  Bail cold.
                    return None, COLD_SHRUNK_WINNER, splices, promotions
            else:
                wv = recorded
            mover = w
            mv = wv
            via_heap = False
            while heap:
                tv = -heap[0]
                v = r2i[tv % nb]
                if onclient[v] or tracked.get(v) != tv:
                    heappop(heap)
                    continue
                if tv > wv:
                    mover = v
                    mv = tv
                    via_heap = True
                    heappop(heap)
                break
            if via_heap:
                splices += 1
            else:
                optr += 1
            onclient[mover] = 1
            tracked.pop(mover, None)
            for t, inc in touch.pop(mover, ()):
                cv = tracked.get(t)
                if cv is not None:
                    cv += inc
                    tracked[t] = cv
                    heappush(heap, -cv)
            if via_heap:
                # An out-of-order move shifts the client timeline of
                # every neighbor, so their recorded values are no
                # longer comparable: promote them to exact tracking.
                for nbr, _ in rows[mover]:
                    if not onclient[nbr] and nbr not in tracked:
                        promotions += 1
                        row = rows[nbr]
                        work += len(row)
                        if work > budget:
                            return None, COLD_BUDGET, splices, promotions
                        val = -negrank[nbr]
                        for w2, inc2 in row:
                            if onclient[w2]:
                                val += inc2
                        tracked[nbr] = val
                        heappush(heap, -val)
                        for w2, inc2 in row:
                            if not onclient[w2]:
                                touch.setdefault(w2, []).append((nbr, inc2))
            client_mem += node_mem[mover]
            client_cpu += node_cpu[mover]
            cut_pk += rowtot[mover] - 2 * (mv - mv % nb)
            sel_new[step] = mv
            order_new[step] = mover
            ci = step + 1
            raw_cut[ci] = cut_pk
            raw_cmem[ci] = client_mem
            ccpus[ci] = client_cpu
        for v in old_order:
            if not onclient[v]:
                order_new[k - 1] = v
                break
        chain = FlatChain(self, warm.seed_key, order_new, raw_cut,
                          raw_cmem, ccpus, cb, nb, total_mem, total_cpu)
        self._commit_warm(warm, chain, sel_new)
        return chain, None, splices, promotions


# -- stateless snapshot cache ----------------------------------------------

#: Compiled snapshots for stateless ``Partitioner.partition`` callers,
#: keyed weakly by graph identity and validated against the graph's
#: version counter — repeated partitions of an unchanged graph (the
#: common multi-consumer case) reuse one compile.
_snapshots: "WeakKeyDictionary[ExecutionGraph, FlatGraph]" = (
    WeakKeyDictionary()
)


def snapshot(graph: ExecutionGraph) -> FlatGraph:
    """A compiled snapshot of ``graph`` (cached while its version holds)."""
    fg = _snapshots.get(graph)
    if fg is not None and fg.synced_version == graph.version:
        return fg
    fg = FlatGraph.try_compile(graph)
    try:
        _snapshots[graph] = fg
    except TypeError:
        pass  # non-weakrefable graph subclass: still usable, uncached
    return fg
