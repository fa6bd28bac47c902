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
it (:mod:`repro.verify.dict_explorer`) is byte-identical by
construction on those observables.

``followers_naive`` is the brute-force oracle (two full decompositions);
the test suite asserts both agree on randomized graphs.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import flat_explorer
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, core_decomposition
from repro.graphs.graph import Graph, Vertex
from repro.lint.markers import pure
from repro.verify import enabled as _verify_enabled

#: The per-candidate explorer factory ``(state, xid)``. Module attribute so
#: the tests can substitute the dict oracle (``DictExplorer``) for the flat kernel.
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

    Keyed by node CSR id. ``counts[id]`` is ``|F[x][id]|``; ``members[id]``
    holds the actual follower set when the node was explored this call
    (reused nodes only have their cached count — the paper's cache
    stores counts, not sets).
    """

    anchor: Vertex
    counts: dict[int, int] = field(default_factory=dict)
    members: dict[int, set[Vertex]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """``|F(x)| = g({x})`` — the coreness gain of anchoring ``x``."""
        return sum(self.counts.values())

    def all_members(self) -> set[Vertex]:
        """Union of explored follower sets (valid when nothing was reused)."""
        result: set[Vertex] = set()
        for group in self.members.values():  # lint: order-ok set union is commutative
            result |= group
        return result


class FollowerSearch:
    """The count-first per-candidate search (Algorithm 4 over ``sn(x)``).

    One instance serves a GAC or OLAK round (in the parent or in the
    round's forked pool workers) or one :func:`find_followers` call;
    :meth:`flush` adds the Figure-13 tallies in one batch (registry
    reads are deltas over sums).
    """

    __slots__ = (
        "state", "tables", "verify", "reused", "explored", "visited", "evaluated"
    )

    def __init__(self, state: AnchoredState) -> None:
        self.state = state
        self.tables = state.tables
        self.verify = _verify_enabled()
        self.reused = self.explored = self.visited = self.evaluated = 0

    def counts(
        self,
        xid: int,
        reusable: Mapping[int, int] | None = None,
        *,
        only_coreness: int | None = None,
        members: dict[int, set[Vertex]] | None = None,
    ) -> dict[int, int]:
        """``{node id: |F[x][id]|}`` for the candidate with CSR id ``xid``.

        Nodes of ``sn(x)`` in ``reusable`` are answered from it, the rest
        explored in one kernel call (reused first, each in ``sn(x)`` order).
        ``members`` receives each explored node's follower set; otherwise
        the kernel builds sets only to verify a result that reused nothing.
        """
        t = self.tables
        own = t.nid[xid]
        counts: dict[int, int] = {}
        todo: list[tuple[int, bool]] = []
        for nid in t.sn_ids[xid]:
            if only_coreness is not None and t.core[nid] != only_coreness:
                continue
            if reusable and nid in reusable:
                counts[nid] = reusable[nid]
            else:
                todo.append((nid, nid == own))
        self.reused += len(counts)
        self.evaluated += 1
        check = self.verify and not reusable and only_coreness is None
        found: dict[int, set[Vertex]] | None = {} if check else None
        if members is not None:
            found = members
        if todo:
            explorer = _explorer(self.state, xid)
            for nid, count, pops, survivors in explorer.explore_nodes(
                todo, found is not None
            ):
                counts[nid] = count
                self.visited += pops
                if found is not None:
                    found[nid] = survivors or set()
            self.explored += len(todo)
        if check and found is not None:
            from repro.verify.invariants import verify_follower_report

            total = sum(counts.values())
            every = set().union(*found.values())
            verify_follower_report(self.state, t.labels[xid], total, every)
        return counts

    def flush(self) -> None:
        """Move the tallied counters into the registry (one add per counter).

        The tallies restart from zero, so a pool worker can flush after
        every candidate and ship that candidate's deltas.
        """
        if self.reused:
            _obs.add(_obs.REUSED_NODES, self.reused)
        if self.explored:
            _obs.add(_obs.EXPLORED_NODES, self.explored)
            _obs.add(_obs.VISITED_VERTICES, self.visited)
        if self.evaluated:
            _obs.add(_obs.EVALUATED_CANDIDATES, self.evaluated)
        self.reused = self.explored = self.visited = self.evaluated = 0


@pure
def find_followers(
    state: AnchoredState,
    x: Vertex,
    reusable_counts: Mapping[int, int] | None = None,
    counters: FollowerCounters | None = None,
    only_coreness: int | None = None,
) -> FollowerReport:
    """Compute ``F[x][id]`` for every node ``id`` in ``sn(x)`` (Algorithm 4).

    The member-returning form of :class:`FollowerSearch`.

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

    Raises:
        VertexNotFoundError: if ``x`` is not in the graph.
        ValueError: if ``x`` is already anchored.
    """
    xid = state.id_of(x)
    if x in state.anchors:
        raise ValueError(f"candidate {x!r} is already anchored")
    report = FollowerReport(anchor=x)
    with _obs.span("followers.search", anchor=x):
        search = FollowerSearch(state)
        report.counts = search.counts(
            xid,
            reusable_counts,
            only_coreness=only_coreness,
            members=report.members,
        )
        if counters is not None:
            counters.explored_nodes += search.explored
            counters.reused_nodes += search.reused
            counters.visited_vertices += search.visited
            counters.evaluated_candidates += 1
        search.flush()
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

    Raises:
        ValueError: if ``x`` is already anchored.
    """
    anchor_set = frozenset(anchors)
    if x in anchor_set:
        raise ValueError(f"candidate {x!r} is already anchored")
    if base is None:
        base = core_decomposition(graph, anchor_set)
    after = core_decomposition(graph, anchor_set | {x})
    return {
        u
        for u in graph.vertices()
        if u != x and u not in anchor_set and after.coreness[u] > base.coreness[u]
    }
