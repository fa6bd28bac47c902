"""Follower computation for a candidate anchor (Algorithms 4 and 5).

Anchoring ``x`` raises the coreness of its *followers* by exactly one
(Theorem 4.6). ``find_followers`` computes them without re-running core
decomposition: for each tree node adjacent to ``x`` (Theorem 4.7), it
explores only the candidate followers reachable via upstair paths
(Theorem 4.14), in a min-heap ordered by shell-layer pair, discarding
candidates whose degree bound falls below ``c(u) + 1`` (Theorem 4.15)
with a cascading shrink (Algorithm 5).

The per-node exploration itself is the flat kernel
(:mod:`repro.anchors.kernels.flat_backend`); this module owns
everything around it — node iteration order, reuse, the Figure-13
counters, verification — so the dict oracle the tests substitute for
it (:mod:`repro.anchors.kernels.dict_backend`) is byte-identical by
construction on those observables.

``followers_naive`` is the brute-force oracle (two full decompositions);
the test suite asserts both agree on randomized graphs.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import flat_explorer, tables_for
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, core_decomposition
from repro.core.tree import NodeId
from repro.graphs.graph import Graph, Vertex
from repro.lint.markers import pure
from repro.verify import enabled as _verify_enabled

#: The per-candidate explorer factory. Module attribute so the tests can
#: substitute the dict oracle (``DictExplorer``) for the flat kernel.
_explorer = flat_explorer


@dataclass
class FollowerCounters:
    """Instrumentation matching the paper's Figure 13 measurements.

    Since the :mod:`repro.obs` registry became the single home for work
    counters this class is a thin façade kept for API compatibility:
    the search code reports into the registry, and per-scope values are
    read back out through :meth:`from_window` (a registry delta). The
    explicit ``counters=`` accumulator threaded through
    :func:`find_followers` still works for callers that want a local
    tally without scoping a window.
    """

    explored_nodes: int = 0  # tree nodes searched from scratch
    reused_nodes: int = 0  # tree nodes answered from the cache
    visited_vertices: int = 0  # heap pops across all explorations
    pruned_candidates: int = 0  # candidates skipped by the upper bound
    evaluated_candidates: int = 0  # candidates whose followers were computed

    def merge(self, other: "FollowerCounters") -> None:
        self.explored_nodes += other.explored_nodes
        self.reused_nodes += other.reused_nodes
        self.visited_vertices += other.visited_vertices
        self.pruned_candidates += other.pruned_candidates
        self.evaluated_candidates += other.evaluated_candidates

    @classmethod
    def from_window(cls, window: _obs.Window) -> "FollowerCounters":
        """The counters accumulated in the registry since ``window`` opened."""
        return cls(
            explored_nodes=window.counter(_obs.EXPLORED_NODES),
            reused_nodes=window.counter(_obs.REUSED_NODES),
            visited_vertices=window.counter(_obs.VISITED_VERTICES),
            pruned_candidates=window.counter(_obs.PRUNED_CANDIDATES),
            evaluated_candidates=window.counter(_obs.EVALUATED_CANDIDATES),
        )


@dataclass
class FollowerReport:
    """Per-tree-node follower counts for one candidate anchor.

    ``counts[id]`` is ``|F[x][id]|``; ``members[id]`` holds the actual
    follower set when the node was explored this call (reused nodes only
    have their cached count — the paper's cache stores counts, not sets).
    """

    anchor: Vertex
    counts: dict[NodeId, int] = field(default_factory=dict)
    members: dict[NodeId, set[Vertex]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """``|F(x)| = g({x})`` — the coreness gain of anchoring ``x``."""
        return sum(self.counts.values())

    @classmethod
    def from_counts(cls, anchor: Vertex, counts: Mapping[NodeId, int]) -> "FollowerReport":
        """Rehydrate a report from per-node counts alone (no member sets).

        The shape a candidate-scan worker ships back to the parent: the
        reuse cache stores counts only (like the paper's), so a shipped
        report is as storable as a locally computed one.
        """
        return cls(anchor=anchor, counts=dict(counts))

    def all_members(self) -> set[Vertex]:
        """Union of explored follower sets (valid when nothing was reused)."""
        result: set[Vertex] = set()
        for group in self.members.values():  # lint: order-ok set union is commutative
            result |= group
        return result


@pure
def find_followers(
    state: AnchoredState,
    x: Vertex,
    reusable_counts: Mapping[NodeId, int] | None = None,
    counters: FollowerCounters | None = None,
    only_coreness: int | None = None,
) -> FollowerReport:
    """Compute ``F[x][id]`` for every node ``id`` in ``sn(x)`` (Algorithm 4).

    Args:
        state: current anchored state (``x`` must not already be anchored).
        x: the candidate anchor.
        reusable_counts: validated cache entries ``{node id: |F[x][id]|}``
            from the previous greedy iteration; those nodes are not
            re-explored (Section 4.3 / "Reusing Followers").
        counters: optional instrumentation accumulator.
        only_coreness: when set, restrict the search to tree nodes with
            exactly this coreness (per-node explorations are independent,
            so skipping nodes is sound). OLAK uses this to search only
            the (k-1)-shell.

    Returns:
        A :class:`FollowerReport` whose total is the coreness gain of
        anchoring ``x`` on top of the current anchors (restricted to the
        selected shell when ``only_coreness`` is given).
    """
    if x in state.anchors:
        raise ValueError(f"candidate {x!r} is already anchored")
    report = FollowerReport(anchor=x)
    own_node = state.node_id(x)
    with _obs.span("followers.search", anchor=x):
        # The flat tables carry ``sn(x)`` presorted per id: ascending
        # interned id is the canonical vertex_sort_key order.
        tables = tables_for(state)
        order: "Collection[NodeId]" = tables.sn_ids[tables.index[x]]
        reused = visited = 0
        todo: list[tuple[NodeId, bool]] = []
        for nid in order:
            if only_coreness is not None and state.tree.nodes[nid].k != only_coreness:
                continue
            if reusable_counts is not None and nid in reusable_counts:
                report.counts[nid] = reusable_counts[nid]
                reused += 1
                continue
            todo.append((nid, nid == own_node))
        # A fully-reused candidate (every node answered from the cache)
        # never touches the kernel at all; otherwise the kernel gets
        # the surviving node list in one batched call so it can hoist
        # its per-candidate table bindings out of the per-node loop.
        if todo:
            explorer = _explorer(state, x)
            counts = report.counts
            members = report.members
            for nid, survivors, pops in explorer.explore_nodes(todo):
                counts[nid] = len(survivors)
                members[nid] = survivors
                visited += pops
        explored = len(todo)
        # Registry reads are deltas over sums, so batching the adds per
        # call is observationally identical to per-node increments.
        if reused:
            _obs.add(_obs.REUSED_NODES, reused)
        if explored:
            _obs.add(_obs.EXPLORED_NODES, explored)
            _obs.add(_obs.VISITED_VERTICES, visited)
    _obs.add(_obs.EVALUATED_CANDIDATES)
    if counters is not None:
        counters.explored_nodes += explored
        counters.reused_nodes += reused
        counters.visited_vertices += visited
        counters.evaluated_candidates += 1
    # With nothing reused and no shell restriction the report is complete:
    # cross-validate it against a full re-decomposition when verifying.
    if _verify_enabled() and not reusable_counts and only_coreness is None:
        from repro.verify.invariants import verify_follower_report

        verify_follower_report(state, x, report.total, report.all_members())
    return report


@pure
def followers_naive(
    graph: Graph,
    x: Vertex,
    anchors: Collection[Vertex] = (),
    base: CoreDecomposition | None = None,
) -> set[Vertex]:
    """Brute-force follower oracle: diff two full core decompositions.

    Returns every non-anchor vertex (other than ``x``) whose coreness
    strictly increases when ``x`` is anchored on top of ``anchors``.
    """
    anchor_set = frozenset(anchors)
    if base is None:
        base = core_decomposition(graph, anchor_set)
    after = core_decomposition(graph, anchor_set | {x})
    return {
        u
        for u in graph.vertices()
        if u != x and u not in anchor_set and after.coreness[u] > base.coreness[u]
    }
