"""The dict-of-sets follower exploration — the kernel's test oracle.

The original :func:`repro.anchors.followers.find_followers` inner loop:
per-vertex ``dict`` status/bound tables keyed by vertex label, heap
entries ordered by ``(shell-layer pair, canonical sort key, vertex)``.
Of the state it reads only the graph and anchors; the decomposition and
adjacency are a fresh ``peel_decomposition`` and ``TreeAdjacency``. It
shares no table code with the flat kernel, which must match it byte for
byte. :func:`dict_stream` runs it under the flat kernel's stream
contract, and the tests put that behind the
``repro.anchors.followers._stream`` seam; it maps the kernel's CSR ids
to labels on entry and back on exit.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro import obs, verify
from repro.core.decomposition import CoreDecomposition, _sort_key, peel_decomposition
from repro.core.tree import CoreComponentTree, TreeAdjacency
from repro.graphs.graph import Vertex

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports (layering)
    from repro.anchors.kernels.flat_backend import Evaluation, Tally
    from repro.anchors.state import AnchoredState

# Exploration status tags. UNEXPLORED is represented by absence.
_IN_HEAP = 1
_SURVIVED = 2
_DISCARDED = 3


_Oracle = tuple[
    "AnchoredState",
    frozenset[Vertex],
    CoreDecomposition,
    CoreComponentTree,
    TreeAdjacency,
]
#: The last oracle built, ``(state, anchors, decomposition, tree, adjacency)``:
#: ``apply_anchor`` replaces ``state.anchors`` on every anchoring, so
#: identity means "same round" (one build per round, not per candidate).
_last: "_Oracle | None" = None


def _oracle(state: "AnchoredState") -> _Oracle:
    """Fresh peel and adjacency for the state's graph and anchors,
    built with counters and checks muted."""
    global _last
    if _last is not None and _last[0] is state and _last[1] is state.anchors:
        return _last
    with obs.suspended(), verify.suspended():
        decomposition = peel_decomposition(state.graph, state.anchors)
        tree = CoreComponentTree.build(state.graph, decomposition)
        adjacency = TreeAdjacency(state.graph, decomposition, tree, state.anchors)
    _last = (state, state.anchors, decomposition, tree, adjacency)
    return _last


class DictExplorer:
    """Per-candidate exploration context for the dict backend.

    Holds the state lookups Algorithm 4 reads on every pop — bound once
    per candidate so the per-node ``explore`` calls share them.
    """

    __slots__ = (
        "x",
        "labels",
        "tca_x",
        "anchors",
        "pairs",
        "coreness",
        "same_shell",
        "fixed_support",
        "px",
        "adj_x",
    )

    def __init__(self, state: "AnchoredState", xid: int) -> None:
        _, _, decomposition, _, adjacency = _oracle(state)
        self.labels = state.tables.labels
        self.x = x = self.labels[xid]
        self.tca_x = adjacency.tca[x]
        self.anchors = state.anchors
        self.pairs = decomposition.shell_layer
        self.coreness = decomposition.coreness
        self.same_shell = adjacency.same_shell
        self.fixed_support = adjacency.fixed_support
        self.px = self.pairs[x]
        self.adj_x = state.graph.neighbors(x)

    def explore(self, nid: Vertex, is_own_node: bool) -> tuple[set[Vertex], int]:
        """Survivors and heap pops of the exploration within one tree node."""
        x = self.x
        anchors = self.anchors
        pairs = self.pairs
        coreness = self.coreness
        same_shell = self.same_shell
        fixed_support = self.fixed_support
        px = self.px
        adj_x = self.adj_x

        if is_own_node:
            seeds = [
                v
                for v in self.tca_x.get(nid, ())
                if v not in anchors and pairs[v][0] == px[0] and pairs[v][1] > px[1]
            ]
        else:
            seeds = [v for v in self.tca_x.get(nid, ()) if v not in anchors]

        status: dict[Vertex, int] = {}
        dplus: dict[Vertex, int] = {}
        heap: list[tuple[tuple[int, int], object, Vertex]] = []
        for v in seeds:
            status[v] = _IN_HEAP
            heapq.heappush(heap, (pairs[v], _sort_key(v), v))

        pops = 0
        while heap:
            _, _, u = heapq.heappop(heap)
            if status.get(u) != _IN_HEAP:
                continue
            pops += 1
            # d+(u) of Theorem 4.15: anchored + deeper-shell neighbors are
            # precomputed (they always count); x counts if adjacent and not
            # already part of the fixed support; same-shell neighbors count
            # per their exploration status — higher layers unless discarded,
            # lower/equal layers only while surviving or queued.
            cu = coreness[u]
            iu = pairs[u][1]
            bound = fixed_support[u]
            if u in adj_x and coreness[x] <= cu:
                bound += 1
            for v in same_shell[u]:
                if v == x:
                    continue  # already counted via the adjacency check
                sv = status.get(v)
                if pairs[v][1] > iu:
                    if sv != _DISCARDED:
                        bound += 1
                elif sv == _IN_HEAP or sv == _SURVIVED:
                    bound += 1
            if bound >= cu + 1:
                status[u] = _SURVIVED
                dplus[u] = bound
                for w in same_shell[u]:
                    if w == x or w in status:
                        continue
                    if pairs[w][1] > iu:
                        status[w] = _IN_HEAP
                        heapq.heappush(heap, (pairs[w], _sort_key(w), w))
            else:
                status[u] = _DISCARDED
                _shrink(same_shell, coreness, status, dplus, u)

        return {u for u, s in status.items() if s == _SURVIVED}, pops


def _shrink(
    same_shell: dict[Vertex, list[Vertex]],
    coreness: dict[Vertex, int],
    status: dict[Vertex, int],
    dplus: dict[Vertex, int],
    discarded: Vertex,
) -> None:
    """Algorithm 5: cascade the discard of a candidate to its supporters.

    Only same-shell neighbors can be surviving candidates (exploration
    never leaves the tree node), so the cascade walks those lists only.
    """
    stack = [discarded]
    while stack:
        w = stack.pop()
        for v in same_shell[w]:
            if status.get(v) == _SURVIVED:
                dplus[v] -= 1
                if dplus[v] < coreness[v] + 1:
                    status[v] = _DISCARDED
                    stack.append(v)


def dict_stream(
    state: "AnchoredState",
    ids: Iterable[int],
    tally: "Tally",
    served: Mapping[int, Mapping[int, int]] | None = None,
    *,
    only_coreness: int | None = None,
    members: dict[int, set[Vertex]] | None = None,
) -> "Iterator[Evaluation]":
    """:meth:`FlatTables.stream <repro.anchors.kernels.flat_backend.FlatTables.stream>`
    on the oracle: the same yields, tallies and survivor sets.

    ``sn(x)``, its order (ascending node CSR id) and ``x``'s own node
    come from the oracle's label-keyed tree and adjacency, not from the
    flat tables; each node is explored by :meth:`DictExplorer.explore`.
    """
    _, _, decomposition, tree, adjacency = _oracle(state)
    index = state.tables.index
    for xid in ids:
        explorer = DictExplorer(state, xid)
        x = explorer.x
        own = tree.node_of[x].node_id if x in tree.node_of else None
        sn = sorted(adjacency.sn[x], key=index.__getitem__)
        if only_coreness is not None:
            sn = [nid for nid in sn if decomposition.coreness[nid] == only_coreness]
        row = served.get(xid) if served else None
        counts: dict[int, int] = {}
        todo: list[Vertex] = []
        for nid in sn:
            i = index[nid]
            if row and i in row:
                counts[i] = row[i]
            else:
                todo.append(nid)
        tally.reused += len(counts)
        tally.evaluated += 1
        for nid in todo:
            survivors, pops = explorer.explore(nid, nid == own)
            counts[index[nid]] = len(survivors)
            tally.visited += pops
            if members is not None:
                members[index[nid]] = survivors
        tally.explored += len(todo)
        yield xid, counts, sum(counts.values())
