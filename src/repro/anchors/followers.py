"""Follower computation for a candidate anchor (Algorithms 4 and 5).

Anchoring ``x`` raises the coreness of its *followers* by exactly one
(Theorem 4.6). ``find_followers`` computes them without re-running core
decomposition: for each tree node adjacent to ``x`` (Theorem 4.7), it
explores only the candidate followers reachable via upstair paths
(Theorem 4.14), in a min-heap ordered by shell-layer pair, discarding
candidates whose degree bound falls below ``c(u) + 1`` (Theorem 4.15)
with a cascading shrink (Algorithm 5).

The search itself is the flat kernel's candidate stream
(:meth:`repro.anchors.kernels.flat_backend.FlatTables.stream`); this
module owns the one seam every search goes through (:data:`_stream`),
the Figure-13 counters it tallies and the ``REPRO_VERIFY`` check of its
results, so the tests can substitute the dict oracle's stream
(:func:`repro.verify.dict_explorer.dict_stream`) for every round at
once.

``followers_naive`` is the brute-force oracle (two full decompositions);
the test suite asserts both agree on randomized graphs.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.anchors.kernels.flat_backend import Evaluation, Tally
from repro.anchors.state import AnchoredState
from repro.core.decomposition import CoreDecomposition, core_decomposition
from repro.graphs.graph import Graph, Vertex
from repro.lint.markers import pure
from repro.verify import enabled as _verify_enabled


def _flat_stream(
    state: AnchoredState,
    ids: Iterable[int],
    tally: Tally,
    served: Mapping[int, Mapping[int, int]] | None = None,
    *,
    only_coreness: int | None = None,
    members: dict[int, set[Vertex]] | None = None,
) -> Iterator[Evaluation]:
    """The flat kernel's candidate stream over ``state``'s tables."""
    return state.tables.stream(
        ids, tally, served, only_coreness=only_coreness, members=members
    )


#: The candidate stream every follower search runs. Module attribute so
#: the tests can substitute the dict oracle (``dict_stream``) for the flat kernel.
_stream = _flat_stream


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


class FollowerSearch(Tally):
    """The count-first candidate search (Algorithm 4 over ``sn(x)``).

    One instance serves a GAC or OLAK round (in the parent or in the
    round's forked pool workers) or one :func:`find_followers` call. It
    is the :class:`~repro.anchors.kernels.flat_backend.Tally` its
    streams add to; :meth:`flush` moves the tallies into the registry
    in one batch (registry reads are deltas over sums).
    """

    __slots__ = ("state", "verify")

    def __init__(self, state: AnchoredState) -> None:
        super().__init__()
        self.state = state
        self.verify = _verify_enabled()

    def stream(
        self,
        ids: Iterable[int],
        served: Mapping[int, Mapping[int, int]] | None = None,
        *,
        only_coreness: int | None = None,
        members: dict[int, set[Vertex]] | None = None,
    ) -> Iterator[Evaluation]:
        """``(id, {node id: |F[x][id]|}, |F(x)|)`` for each id of ``ids``.

        The kernel's stream (:data:`_stream`) with this search as its
        tally. Under ``REPRO_VERIFY``, every candidate answered without
        a served count (and without ``only_coreness``) is checked
        against a full re-decomposition.
        """
        out = _stream(
            self.state, ids, self, served, only_coreness=only_coreness, members=members
        )
        if self.verify and only_coreness is None:
            return self._checked(out, served)
        return out

    def _checked(
        self,
        out: Iterator[Evaluation],
        served: Mapping[int, Mapping[int, int]] | None,
    ) -> Iterator[Evaluation]:
        from repro.verify.invariants import verify_follower_report

        state = self.state
        for evaluation in out:
            i, _, total = evaluation
            if not (served and served.get(i)):
                # The members of the same search, from a one-id stream
                # whose work stays out of the Figure-13 tallies.
                found: dict[int, set[Vertex]] = {}
                for _ in _stream(state, (i,), Tally(), members=found):
                    pass
                every = set().union(*found.values())
                verify_follower_report(state, state.tables.labels[i], total, every)
            yield evaluation

    def flush(self) -> None:
        """Move the tallied counters into the registry (one add per counter).

        The tallies restart from zero.
        """
        reused, explored, visited, evaluated = self.take()
        if reused:
            _obs.add(_obs.REUSED_NODES, reused)
        if explored:
            _obs.add(_obs.EXPLORED_NODES, explored)
            _obs.add(_obs.VISITED_VERTICES, visited)
        if evaluated:
            _obs.add(_obs.EVALUATED_CANDIDATES, evaluated)


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
        served = {xid: reusable_counts} if reusable_counts else None
        for _, counts, _ in search.stream(
            (xid,), served, only_coreness=only_coreness, members=report.members
        ):
            report.counts = counts
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
