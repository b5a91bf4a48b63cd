"""Semantic placement hints and profile reuse (paper section 8).

The paper plans to "consider the benefits of exploiting additional
information about the applications such as hints from users and
developers, previously gathered profiling information, and high-level
components like JavaBeans".  Two mechanisms implement that here:

* :class:`PlacementHints` — a developer can pin classes to the client
  (``pin_local``) and declare component groups that must stay together
  (``keep_together``, the JavaBeans-style semantic unit).  Groups are
  honoured by *contracting* each group into one supernode before the
  MINCUT heuristic runs, so no candidate can split it.
* :func:`interaction_profile` — a previously gathered execution graph,
  stripped to its durable parts (interaction edges and CPU totals, not
  the stale live-memory numbers), suitable for warm-starting the
  monitor of a later run so the first partitioning decision starts from
  real history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError
from .graph import ExecutionGraph


@dataclass(frozen=True)
class PlacementHints:
    """Developer/user hints consulted by the partitioner."""

    #: Classes that must never leave the client, regardless of natives.
    pin_local: FrozenSet[str] = frozenset()
    #: Groups of classes that must be placed on the same site.
    keep_together: Tuple[FrozenSet[str], ...] = ()

    def __post_init__(self) -> None:
        seen: set = set()
        for group in self.keep_together:
            if len(group) < 2:
                raise ConfigurationError(
                    "keep_together groups need at least two members"
                )
            overlap = seen & set(group)
            if overlap:
                raise ConfigurationError(
                    f"classes {sorted(overlap)} appear in multiple groups"
                )
            seen |= set(group)

    @property
    def has_groups(self) -> bool:
        return bool(self.keep_together)


@dataclass(frozen=True)
class ColdStartSeed:
    """Ahead-of-time placement knowledge for a first partitioning.

    Produced by the static analyzer
    (:func:`repro.analysis.staticgraph.analyze_program`) — or assembled
    by hand from a previous run's profile — and consumed by
    :meth:`repro.core.engine.OffloadingEngine.apply_cold_start` and the
    emulator's ``EmulatorConfig.cold_start``.  Both fold the ``profile``
    into their live execution graph with
    :meth:`~repro.core.graph.ExecutionGraph.merge_profile`, so the very
    first MINCUT does not run on an empty graph and the partitioning
    session's first drain carries the seed; the ``hints`` carry
    advisory pins and co-location groups into the partitioner.
    """

    hints: Optional[PlacementHints] = None
    profile: Optional[ExecutionGraph] = None
    #: Provenance marker, e.g. ``"static-analysis:dia"``.
    source: str = "static-analysis"
    #: Predicted bytes crossing the pinned/offloadable boundary, from
    #: the interprocedural dataflow pass.  Consumed by the fleet placer
    #: as a per-client load estimate before any trace is replayed.
    predicted_cross_traffic: Optional[float] = None

    @property
    def empty(self) -> bool:
        return self.hints is None and self.profile is None


def group_node_id(index: int, members: FrozenSet[str]) -> str:
    """Stable id for a contracted group supernode."""
    return f"<group:{index}:{min(members)}>"


def contract_graph(
    graph: ExecutionGraph, groups: Tuple[FrozenSet[str], ...]
) -> Tuple[ExecutionGraph, Dict[str, FrozenSet[str]]]:
    """Merge each hint group present in the graph into one supernode.

    Returns the contracted graph and an expansion map from supernode id
    to the member nodes it replaced.  Edges between two members of the
    same group disappear (they can never be cut); edges from a member
    to the outside re-attach to the supernode.
    """
    alias: Dict[str, str] = {}
    expansion: Dict[str, FrozenSet[str]] = {}
    for index, group in enumerate(groups):
        members = frozenset(m for m in group if graph.has_node(m))
        if len(members) < 2:
            continue
        supernode = group_node_id(index, members)
        expansion[supernode] = members
        for member in members:
            alias[member] = supernode

    contracted = ExecutionGraph()
    for node_id in graph.nodes():
        target = alias.get(node_id, node_id)
        stats = graph.node(node_id)
        merged = contracted.ensure_node(target)
        merged.memory_bytes += stats.memory_bytes
        merged.cpu_seconds += stats.cpu_seconds
        merged.live_objects += stats.live_objects
        merged.created_objects += stats.created_objects
    for (a, b), edge in graph.edges():
        target_a = alias.get(a, a)
        target_b = alias.get(b, b)
        if target_a == target_b:
            continue
        contracted.record_interaction(target_a, target_b, edge.bytes,
                                      count=edge.count)
    return contracted, expansion


def expand_nodes(
    nodes: FrozenSet[str], expansion: Dict[str, FrozenSet[str]]
) -> FrozenSet[str]:
    """Replace supernodes with their member nodes."""
    expanded: List[str] = []
    for node in nodes:
        members = expansion.get(node)
        if members is None:
            expanded.append(node)
        else:
            expanded.extend(members)
    return frozenset(expanded)


def interaction_profile(graph: ExecutionGraph) -> ExecutionGraph:
    """A reusable profile: interactions and CPU, without live memory.

    Live-memory annotations describe one run's heap at one moment and
    would mislead a later run, so they are zeroed; the durable signal —
    which classes talk to which, how much, and where time is spent — is
    kept.
    """
    profile = ExecutionGraph()
    for node_id in graph.nodes():
        stats = graph.node(node_id)
        node = profile.ensure_node(node_id)
        node.cpu_seconds = stats.cpu_seconds
    for (a, b), edge in graph.edges():
        profile.record_interaction(a, b, edge.bytes, count=edge.count)
    return profile
